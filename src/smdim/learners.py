"""Online learners over finite problems.

`Mrsoa` is the minimax randomized version-space learner for realizable
(thresholded-feedback) streams: it plays a mixture under which every
thresholded label that would keep a high-dimensional version space alive is
safe by margin gamma, so each over-margin round strictly shrinks the
dimension and at most dim_gamma of them can ever happen.

`AgnosticLearner` runs a pool of Mrsoa experts, one per (timepoint subset,
threshold assignment) on a quantized loss grid, aggregated by multiplicative
weights. `FollowTheLeader` and `UniformLearner` are baselines.

Both version-space learners keep their version spaces as the engine's `int`
bitmasks, restrict them with `DimensionEngine.restrict` (`AgnosticLearner`
once per threshold, on the full space) and play
`DimensionEngine.mixture`, Mrsoa's mixture rule, which the engine memoizes per
(mask, instance), so every learner on one engine shares each mixture; it
sweeps the dimension recursion's qualifying rows, decides each level's game
by the recursion's own verdict (`DimensionEngine._passes`) and solves only
the game it plays. `AgnosticLearner` never walks its pool: it keeps one exact
summed weight per (bitmask, timepoints used), so each round costs one
mixture, one expected loss and one summed weight per bitmask, not per
expert; no per-expert weight or list of experts is ever built. Both take
their engine from one rule, `_engine_for`: a new engine at gamma when none is
given, else the given one, which is refused when built on other problem or
class objects than the learner's, or at another margin than a gamma it is
also given.

All learners speak the same protocol: predict(x) -> Mixture, then
update(x, y, eps) with eps optional; snapshot() returns the learner's state
as an immutable value, and restore(state) returns to it, so a caller can
replay several continuations of one prefix. A snapshot taken right after
predict(x) holds that prediction, so after restoring it update(x, ...) may
follow at once: several labels can answer one prediction. Everything except the
MW learning rate (a double, by design) is exact rational arithmetic; the exp
factors are converted exactly into Fractions so replays are bit-identical.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .core import (
    BudgetError,
    HypothesisClass,
    Mixture,
    Problem,
    ProtocolError,
    RationalLike,
    RealizabilityError,
    ValidationError,
    VersionSpace,
    check_count,
    check_index,
    check_threshold,
    exceeds,
    expected_loss,
    format_rational,
    format_value,
    parse_rational,
    scaled_loss,
    validate_problem,
)
from .dimensions import DimensionEngine, GammaValue, to_mask, to_members
# Not called here (the engine's `game` solves every LP), but kept bound: the
# benchmark's tests check that its tracer rebinds the solver on this module.
from .game import solve_min_max  # noqa: F401

# The most points an AgnosticLearner's threshold grid may hold.
GRID_BUDGET = 100_000


def _engine_for(problem: Problem, cls: HypothesisClass, gamma, engine) -> DimensionEngine:
    """The engine a version-space learner plays on: `engine`, or a new one at
    `gamma` when none is given.

    An engine on another (problem, class) pair or margin than the learner was
    given is refused, and so is gamma = 0, the strict margin, which has no
    safe mixtures. The pair is compared by identity, the rule
    `dimensions._tables` keys by, so the engine's problem and class are the
    learner's.
    """
    if engine is None:
        if gamma is None:
            raise ValidationError("a version-space learner needs gamma or a prepared engine")
        engine = DimensionEngine(problem, cls, gamma)
    if engine.problem is not problem or engine.cls is not cls:
        raise ValidationError("the engine was built on another problem or class than the learner's")
    if gamma is not None and GammaValue.of(gamma) != engine.gamma:
        raise ValidationError(
            f"gamma {GammaValue.of(gamma).describe()} differs from the engine's {engine.gamma.describe()}"
        )
    if engine.gamma.strict:
        raise ValidationError("version-space learners need gamma > 0, not the strict margin 0")
    return engine


class Mrsoa:
    """Minimax randomized version-space learner (realizable protocol).

    predict(x) plays `DimensionEngine.mixture`. At dimension 0 it is the
    mixture that is simultaneously below eps_y + gamma for the per-label
    minimal realizable thresholds eps_y (one always exists, or the dimension
    were positive). Otherwise it is the mixture of the lowest level whose game
    over the candidates with child dimension above the level stays below
    gamma: under it, any feedback that is over margin restricts to a child of
    strictly smaller dimension.

    update(x, y, eps): keep hypotheses with loss(y, h(x)) <= eps. An explicit
    eps that empties the space raises RealizabilityError; eps=None
    self-thresholds at the smallest realizable loss (for label-only games).
    """

    def __init__(
        self,
        problem: Problem,
        cls: HypothesisClass,
        gamma: Union[GammaValue, RationalLike, None] = None,
        engine: Optional[DimensionEngine] = None,
    ):
        self.engine = _engine_for(problem, cls, gamma, engine)
        self.problem, self.cls = problem, cls
        self._space = to_mask(range(self.cls.num_hypotheses))

    @property
    def version_space(self) -> VersionSpace:
        return VersionSpace(to_members(self._space))

    @property
    def dimension(self) -> int:
        return self.engine.dim_members(self._space)

    def snapshot(self) -> int:
        """The version space (a bitmask); `restore` returns to it."""
        return self._space

    def restore(self, state: int) -> None:
        self._space = state

    def predict(self, x: int) -> Mixture:
        check_index("instance", x, self.problem.num_instances)
        return self.engine.mixture(self._space, x)

    def update(self, x: int, y: int, eps: Union[RationalLike, None] = None) -> None:
        check_index("instance", x, self.problem.num_instances)
        check_index("label", y, self.problem.num_labels)
        if eps is not None:
            eps = parse_rational(eps)
            check_threshold(eps, self.problem.bound_c)
        kept = self.engine.restrict(self._space, x, y, eps)
        if not kept:
            raise RealizabilityError("stream not eps_t-realizable")
        self._space = kept


def loss_grid(alpha: RationalLike, c: RationalLike) -> tuple:
    """The quantized threshold grid {0, alpha, ..., ceil(c/alpha)*alpha}, for
    alpha > 0 and c >= 0, each read by `parse_rational` (a float is refused)."""
    alpha, c = parse_rational(alpha), parse_rational(c)
    if alpha <= 0:
        raise ValidationError(f"loss_grid needs alpha > 0, got {format_rational(alpha)}")
    if c < 0:
        raise ValidationError(f"loss_grid needs a loss bound c >= 0, got {format_rational(c)}")
    steps = math.ceil(c / alpha)
    return tuple(i * alpha for i in range(steps + 1))


def pool_size(horizon: int, d_gamma: int, grid_points: int) -> int:
    """The number of experts with at most d_gamma of `horizon` timepoints and
    one of `grid_points` thresholds at each: sum_i grid_points**i * C(horizon, i).
    Each argument is a count of at least 0."""
    check_count("horizon", horizon)
    check_count("d_gamma", d_gamma)
    check_count("grid_points", grid_points)
    return sum(grid_points**i * math.comb(horizon, i) for i in range(d_gamma + 1))


@lru_cache(maxsize=16)
def _pool_shape(horizon: int, d_gamma: int, alpha: Fraction, c: Fraction) -> tuple:
    """(size, grid, counts) of the expert pool, which is never enumerated. An
    alpha outside (0, c] is refused, and so, at d_gamma >= 1, is a grid of
    more than `GRID_BUDGET` points, before the grid is built (a tiny alpha
    makes it huge; at d_gamma = 0 no expert has a timepoint to read it).
    counts[s][j] experts share each choice of j timepoints up to round s with
    their thresholds."""
    if alpha <= 0 or alpha > c > 0:
        alpha, c = format_rational(alpha), format_rational(c)
        raise ValidationError(f"alpha must be in (0, c], got alpha={alpha}, c={c}")
    points = math.ceil(c / alpha) + 1
    if d_gamma and points > GRID_BUDGET:
        raise BudgetError(f"threshold grid of {format_rational(points)} points exceeds budget {GRID_BUDGET}")
    grid = loss_grid(alpha, c) if d_gamma else ()
    counts = tuple(
        tuple(pool_size(horizon - s, d_gamma - j, len(grid)) for j in range(d_gamma + 1))
        for s in range(horizon + 1)
    )
    return pool_size(horizon, d_gamma, points), grid, counts


def _exp_factor(eta: float, c: Fraction, loss: Fraction) -> Fraction:
    if c == 0 or loss == 0 or eta == 0.0:
        return Fraction(1)
    # Fraction(float) is exact, so the update stays a deterministic rational.
    return Fraction(math.exp(-eta * float(loss / c)))


def aggregate_mixture(
    weights: Sequence[Union[int, Fraction]], mixtures: Sequence[Mixture]
) -> Mixture:
    """Weight-average of mixtures (exact); expected loss is linear, so playing
    this equals drawing an expert by weight and playing its mixture. Only the
    ratios of the weights matter, so integer weights on any common scale work.
    Each weight must be a positive int or Fraction: an int's type must be int
    itself, as for `check_count` (a bool is refused); each entry must be a
    Mixture.

    The sums are taken in integers: Fraction weights, when there are any, are
    put over their lcm (`scaled_loss`) first, and every mixture's `scaled`
    over the lcm of their `den`s. The result is made from those integers
    (`Mixture.from_scaled`), so it builds no Fraction until its weights are
    read."""
    if not mixtures or len(weights) != len(mixtures):
        raise ValidationError("need equally many weights and mixtures, at least one")
    total = 0
    for w, m in zip(weights, mixtures):
        if type(w) is not int and not isinstance(w, Fraction):
            raise ValidationError(f"weight {format_value(w)} is not an int or a Fraction")
        if w <= 0:
            raise ValidationError(f"non-positive weight {format_rational(w)}")
        if not isinstance(m, Mixture):
            raise ValidationError(f"entry {format_value(m)} is not a Mixture")
        # The first entry is a Mixture by now.
        if len(m.scaled) != len(mixtures[0].scaled):
            raise ValidationError(f"mixtures of {len(mixtures[0])} and {len(m)} entries")
        total += w
    if type(total) is not int:  # a Fraction weight: all of them over their lcm
        _, (weights,) = scaled_loss((weights,))
        total = sum(weights)
    den = math.lcm(*(m.den for m in mixtures))  # a common denominator of every entry
    sums = [0] * len(mixtures[0].scaled)
    for w, m in zip(weights, mixtures):
        factor = w * (den // m.den)
        for j, entry in enumerate(m.scaled):
            if entry:
                sums[j] += factor * entry
    return Mixture.from_scaled(sums, total * den)


class AgnosticLearner:
    """Multiplicative weights over the timepoint/threshold expert pool.

    Each expert is an Mrsoa version space that only updates on its own
    timepoints, with its own quantized thresholds in place of observed losses.
    A grid threshold at or above every loss (the grid can end above c when
    alpha does not divide it) keeps the expert's space. An expert whose
    threshold turns out unrealizable skips that update and keeps playing (only
    consistent experts matter for the regret guarantee; the rest just need to
    be deterministic).

    A round never walks the pool. After round s an expert's weight and
    version space depend only on its timepoints up to s, `used` of them, and
    their thresholds; the experts that share those differ only in later
    timepoints, and there are counts[s][used] = pool_size(T - s, d - used, k)
    of them, with d the dimension and k the grid's size. So the state maps
    each (space, used) to the summed weight of one expert per such prefix,
    and a space weighs sum_j state[(space, j)] * counts[s][j]. Each round plays
    one memoized mixture, one expected loss and one summed weight per space.
    An update multiplies each entry by its space's exp factor, keeps it there
    (the experts with no timepoint this round) and, while used < d, adds it
    once per grid threshold at (its space restricted by the threshold, used +
    1), which is exact because counts[s - 1][j] = counts[s][j] + k *
    counts[s][j + 1]. The state thus holds at most d + 1 entries per space.

    Every exp factor `Fraction(float)` is dyadic, a / 2**e, so the weights are
    kept as integer numerators over one shared power of two, 2**exponent: a
    round multiplies each numerator by a * 2**(E - e), with E the largest e of
    the round, and adds E to the exponent. The default alpha is min(1/T, c),
    or 1/T when c = 0.

    There is no per-expert view: the pool's size N = pool_size(T, d, k) is
    counted, never enumerated, and sets eta = sqrt(2 ln N / T). The one bound
    is on what is built, the threshold grid: at d >= 1 a grid of more than
    `GRID_BUDGET` points raises `BudgetError` before it is built. `snapshot`
    also carries the prediction awaiting its update (None between rounds), so
    restoring a snapshot taken right after predict lets update follow at once,
    and restoring one taken between rounds drops a pending prediction.
    """

    def __init__(
        self,
        problem: Problem,
        cls: HypothesisClass,
        gamma: Union[GammaValue, RationalLike, None],
        horizon: int,
        alpha: Union[RationalLike, None] = None,
        engine: Optional[DimensionEngine] = None,
    ):
        check_count("horizon", horizon, 1)
        self.engine = engine = _engine_for(problem, cls, gamma, engine)
        self.problem, self.cls = problem, cls
        self.horizon = horizon
        c = self.problem.bound_c
        if alpha is None:
            self.alpha = Fraction(1, horizon)
            if c.numerator and exceeds(self.alpha, c):  # 0 < c < 1/T; c >= 0
                self.alpha = c
        else:
            self.alpha = parse_rational(alpha)
        self._full = full = to_mask(range(self.cls.num_hypotheses))
        self.dimension = engine.dim_members(full)
        size, self._grid, self._counts = _pool_shape(horizon, self.dimension, self.alpha, c)
        self.eta = math.sqrt(2.0 * math.log(size) / horizon)
        self._groups = {(full, 0): 1}
        self._exponent = 0
        self._factor_cache: dict = {}
        self._fan_out_cache: dict = {}
        self.round = 0
        self._pending = None

    def snapshot(self) -> tuple:
        """The state, with the prediction awaiting its update (None between
        rounds); `restore` returns to it. An update builds a new dict of
        groups, never changing one in place."""
        return (self._groups, self._exponent, self.round, self._pending)

    def restore(self, state: tuple) -> None:
        self._groups, self._exponent, self.round, self._pending = state

    def predict(self, x: int) -> Mixture:
        if self.round >= self.horizon:
            raise ProtocolError(f"horizon {self.horizon} exhausted")
        check_index("instance", x, self.problem.num_instances)
        counts = self._counts[self.round]
        weights: dict = {}
        for (space, used), n in self._groups.items():
            weights[space] = weights.get(space, 0) + n * counts[used]
        spaces = tuple(weights)
        mixtures = tuple(self.engine.mixture(space, x) for space in spaces)
        self._pending = (x, spaces, mixtures)
        return aggregate_mixture(tuple(weights.values()), mixtures)

    def update(self, x: int, y: int, eps: Union[RationalLike, None] = None) -> None:
        # eps is part of the common learner protocol but this learner ignores
        # it: experts use their own quantized thresholds.
        if self._pending is None or self._pending[0] != x:
            raise ProtocolError("update without a matching predict")
        check_index("label", y, self.problem.num_labels)
        _, spaces, mixtures = self._pending
        self._pending = None
        factors = {}
        for space, mixture in zip(spaces, mixtures):
            # The mixture, and so the factor, is fixed by (space, x).
            key = (space, x, y)
            factor = self._factor_cache.get(key)
            if factor is None:
                loss = expected_loss(self.problem, mixture, y)
                factor = self._factor_cache[key] = _exp_factor(
                    self.eta, self.problem.bound_c, loss
                )
            factors[space] = factor
        shift = max(f.denominator.bit_length() - 1 for f in factors.values())
        scale = None
        if shift:
            scale = {
                space: f.numerator << (shift - f.denominator.bit_length() + 1)
                for space, f in factors.items()
            }
            self._exponent += shift
        # Each distinct mask of the hypotheses within a grid threshold on (x, y)
        # (restrict(space, ...) is space & restrict(full, ...)), with how many
        # thresholds give it. Dimension 0 has no grid.
        fan_out = self._fan_out_cache.get((x, y))
        if fan_out is None:
            masks = (self.engine.restrict(self._full, x, y, v) for v in self._grid)
            fan_out = self._fan_out_cache[x, y] = tuple(Counter(masks).items())
        d = self.dimension
        groups: dict = {}
        get = groups.get
        for key, n in self._groups.items():
            space, used = key
            if scale is not None:
                n *= scale[space]
            groups[key] = get(key, 0) + n
            if used < d:
                used += 1
                # One copy per grid threshold, counted once per distinct mask.
                for mask, times in fan_out:
                    key = (space & mask or space, used)
                    groups[key] = get(key, 0) + n * times
        self._groups = groups
        self.round += 1


class FollowTheLeader:
    """Dirac on the prediction with least cumulative past loss (lowest index on ties).

    Only defined for constant-function hypothesis classes, where the best
    prediction in hindsight and the best hypothesis in hindsight coincide.
    """

    def __init__(self, problem: Problem, cls: HypothesisClass):
        validate_problem(problem, cls)
        for h, row in enumerate(cls.table):
            if len(set(row)) != 1:
                raise ValidationError(f"hypothesis {h} is not constant; follow-the-leader undefined")
        self.problem = problem
        self.cls = cls
        self._cumulative = [Fraction(0)] * problem.num_predictions

    def snapshot(self) -> tuple:
        """The cumulative losses; `restore` returns to them."""
        return tuple(self._cumulative)

    def restore(self, state: tuple) -> None:
        self._cumulative = list(state)

    def predict(self, x: int) -> Mixture:
        best = 0
        for z in range(1, len(self._cumulative)):
            if self._cumulative[z] < self._cumulative[best]:
                best = z
        return Mixture.dirac(len(self._cumulative), best)

    def update(self, x: int, y: int, eps=None) -> None:
        check_index("label", y, self.problem.num_labels)
        row = self.problem.loss[y]
        for z in range(len(self._cumulative)):
            self._cumulative[z] += row[z]


class UniformLearner:
    """Plays the uniform mixture every round, one `Mixture` built once; never updates."""

    def __init__(self, problem: Problem, cls: Optional[HypothesisClass] = None):
        self._mixture = Mixture.uniform(problem.num_predictions)

    def snapshot(self) -> None:
        """This learner has no state."""
        return None

    def restore(self, state: None) -> None:
        pass

    def predict(self, x: int) -> Mixture:
        return self._mixture

    def update(self, x: int, y: int, eps=None) -> None:
        pass
