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
bitmasks, restrict them with `DimensionEngine.restrict` and play mixtures from
`_cached_mixture`, memoized per (mask, instance) in the engine's `mixtures`,
so every learner on one engine shares them. Mrsoa's level sweep takes its LP
row ids from `DimensionEngine.qualifying_rows`, the rule the dimension
recursion uses, and solves them through `DimensionEngine.game`, the engine's
game table. `AgnosticLearner` groups its experts by bitmask: experts with equal
masks play the same mixture, so each round costs one mixture, one expected
loss and one summed weight per group, not per expert.

All learners speak the same protocol: predict(x) -> Mixture, then
update(x, y, eps) with eps optional; snapshot() returns the learner's state
between rounds as an immutable value, and restore(state) returns to it, so a
caller can replay several continuations of one prefix. Everything except the
MW learning rate (a double, by design) is exact rational arithmetic; the exp
factors are converted exactly into Fractions so replays are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
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
    expected_loss,
    parse_rational,
)
from .dimensions import DimensionEngine, GammaValue, to_mask, to_members
# Not called here (the engine's `game` solves every LP), but kept bound: the
# benchmark's tests check that its tracer rebinds the solver on this module.
from .game import solve_min_max  # noqa: F401

# The most experts an AgnosticLearner pool may hold.
POOL_BUDGET = 100_000


def _check_realizable_gamma(engine: DimensionEngine) -> None:
    if engine.gamma.strict:
        raise ValidationError("version-space learners need gamma > 0, not the strict variant")


def _check_index(kind: str, index: int, size: int) -> None:
    if not 0 <= index < size:
        raise ValidationError(f"{kind} index {index} out of range")


class Mrsoa:
    """Minimax randomized version-space learner (realizable protocol).

    predict(x): if the current version space has dimension 0, play the mixture
    that is simultaneously below eps_y + gamma for the per-label minimal
    realizable thresholds eps_y (one always exists, or the dimension were
    positive). Otherwise sweep dimension levels downward, at each level
    solving the minimax game over candidates whose child dimension exceeds the
    level, and play the mixture achieving the lowest level whose game value
    stays below gamma: under it, any feedback that is over margin restricts to
    a child of strictly smaller dimension.

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
        if engine is None:
            if gamma is None:
                raise ValidationError("Mrsoa needs gamma or a prepared engine")
            engine = DimensionEngine(problem, cls, gamma)
        _check_realizable_gamma(engine)
        self.engine = engine
        self.problem = engine.problem
        self.cls = engine.cls
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
        _check_index("instance", x, self.problem.num_instances)
        return _cached_mixture(self.engine, self._space, x)

    def update(self, x: int, y: int, eps: Union[RationalLike, None] = None) -> None:
        _check_index("instance", x, self.problem.num_instances)
        _check_index("label", y, self.problem.num_labels)
        if eps is not None:
            eps = parse_rational(eps)
            if not 0 <= eps <= self.problem.bound_c:
                raise ValidationError(f"threshold {eps} outside [0, {self.problem.bound_c}]")
        kept = self.engine.restrict(self._space, x, y, eps)
        if not kept:
            raise RealizabilityError("stream not eps_t-realizable")
        self._space = kept


def _cached_mixture(engine: DimensionEngine, members: int, x: int) -> Mixture:
    """Mrsoa's mixture on bitmask `members` at instance x, memoized on the engine.

    Equal (members, x) keys get the same Mixture object.
    """
    key = (members, x)
    mu = engine.mixtures.get(key)
    if mu is None:
        mu = engine.mixtures[key] = _minimax_mixture(engine, members, x)
    return mu


def _minimax_mixture(engine: DimensionEngine, members: int, x: int) -> Mixture:
    # A child has dimension above `level` exactly when it is shatterable to
    # level + 1, and a label's children nest, so `qualifying_rows` gives the
    # row of each label's first candidate whose child exceeds the level.
    gamma = engine.gamma.gamma
    dim = engine.dim_members(members)
    best_sol = None
    for level in range(dim - 1, -1, -1):
        _, ids = engine.qualifying_rows(members, x, level + 1)
        if not ids:
            # No candidate exceeds this level; the level is achieved by any
            # mixture, keep sweeping for a sharper one.
            continue
        sol = engine.game(ids)
        if not sol.value < gamma:
            break
        best_sol = sol
    if best_sol is None:
        # Every candidate child has dimension 0 (only possible at dim <= 1):
        # any feedback already shrinks the dimension, so just minimize the
        # worst realizable threshold violation.
        _, ids = engine.qualifying_rows(members, x, 0)
        best_sol = engine.game(ids)
        if dim == 0 and not best_sol.value < gamma:
            raise RuntimeError(
                "dimension-zero version space admits no mixture below gamma "
                "for every realizable threshold; dimension accounting is inconsistent"
            )
    return best_sol.mixture


@dataclass(frozen=True)
class ExpertId:
    """A timepoint subset (1-based rounds) with one grid threshold per timepoint."""

    timepoints: tuple
    thresholds: tuple

    def __post_init__(self):
        if len(self.timepoints) != len(self.thresholds):
            raise ValidationError("timepoints and thresholds must have equal length")
        prev = 0
        for t in self.timepoints:
            if not isinstance(t, int) or t <= prev:
                raise ValidationError("timepoints must be strictly increasing and >= 1")
            prev = t
        for v in self.thresholds:
            # The sign of a Fraction is its numerator's; `v < 0` would go
            # through the numbers ABCs, and pools build many experts.
            if not isinstance(v, Fraction) or v.numerator < 0:
                raise ValidationError(f"threshold {v!r} is not a nonnegative Fraction")


def loss_grid(alpha: Fraction, c: Fraction) -> tuple:
    """The quantized threshold grid {0, alpha, ..., ceil(c/alpha)*alpha}."""
    steps = math.ceil(c / alpha)
    return tuple(i * alpha for i in range(steps + 1))


def pool_size(horizon: int, d_gamma: int, grid_points: int) -> int:
    return sum(grid_points**i * math.comb(horizon, i) for i in range(d_gamma + 1))


def build_expert_pool(
    horizon: int,
    d_gamma: int,
    alpha: RationalLike,
    c: RationalLike,
) -> tuple:
    """All experts with at most d_gamma timepoints and grid thresholds.

    alpha must lie in (0, c]; when c = 0 any alpha > 0 is accepted and the
    grid is {0}. The pool size is checked against `POOL_BUDGET` before any
    enumeration; the deterministic order is by timepoint-set size, then the
    sets lexicographically, then threshold assignments lexicographically.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if d_gamma < 0:
        raise ValidationError(f"d_gamma must be >= 0, got {d_gamma}")
    alpha = parse_rational(alpha)
    c = parse_rational(c)
    if alpha <= 0 or alpha > c > 0:
        raise ValidationError(f"alpha must be in (0, c], got alpha={alpha}, c={c}")
    # Count the grid's points without building it: a tiny alpha makes it huge,
    # and only experts with timepoints read it.
    size = pool_size(horizon, d_gamma, math.ceil(c / alpha) + 1)
    if size > POOL_BUDGET:
        raise BudgetError(f"expert pool of {size} exceeds budget {POOL_BUDGET}")
    grid = loss_grid(alpha, c) if d_gamma else ()
    pool = [ExpertId((), ())]
    for i in range(1, d_gamma + 1):
        for points in combinations(range(1, horizon + 1), i):
            for thresholds in product(grid, repeat=i):
                pool.append(ExpertId(points, thresholds))
    return tuple(pool)


# Learners with equal (horizon, dimension, alpha, c) share one immutable pool
# and its update plan; the bound keeps a long-lived process from holding every
# pool it ever built.
@lru_cache(maxsize=16)
def _pool_plan(horizon: int, d_gamma: int, alpha: Fraction, c: Fraction) -> tuple:
    """(pool, updates): updates[t - 1] lists (expert index, threshold) of the
    experts that update in round t."""
    pool = build_expert_pool(horizon, d_gamma, alpha, c)
    updates = tuple([] for _ in range(horizon))
    for i, ident in enumerate(pool):
        for t, threshold in zip(ident.timepoints, ident.thresholds):
            updates[t - 1].append((i, threshold))
    return pool, tuple(map(tuple, updates))


def _exp_factor(eta: float, c: Fraction, loss: Fraction) -> Fraction:
    if c == 0 or loss == 0 or eta == 0.0:
        return Fraction(1)
    # Fraction(float) is exact, so the update stays a deterministic rational.
    return Fraction(math.exp(-eta * float(loss / c)))


def aggregate_mixture(weights: Sequence[RationalLike], mixtures: Sequence[Mixture]) -> Mixture:
    """Weight-average of mixtures (exact); expected loss is linear, so playing
    this equals drawing an expert by weight and playing its mixture. Only the
    ratios of the weights matter, so integer weights on any common scale work."""
    if not mixtures or len(weights) != len(mixtures):
        raise ValidationError("need equally many weights and mixtures, at least one")
    width = len(mixtures[0])
    total = 0
    den = 1  # a common denominator of every mixture entry
    for w, m in zip(weights, mixtures):
        if w <= 0:
            raise ValidationError(f"non-positive weight {w}")
        if len(m) != width:
            raise ValidationError(f"mixtures of {width} and {len(m)} entries")
        total += w
        for entry in m.weights:
            den = math.lcm(den, entry.denominator)
    sums = [0] * width
    for w, m in zip(weights, mixtures):
        for j, entry in enumerate(m.weights):
            if entry:
                sums[j] += w * (entry.numerator * (den // entry.denominator))
    return Mixture(tuple(Fraction(s, total * den) for s in sums))


class AgnosticLearner:
    """Multiplicative weights over the timepoint/threshold expert pool.

    Each expert is an Mrsoa version space, kept as a bitmask beside its weight,
    that only updates on its own timepoints, with its own quantized thresholds
    in place of observed losses. Experts with equal bitmasks play the same
    memoized mixture, so each round works per group of equal bitmasks: one
    mixture, one summed weight and one expected loss per group. A grid
    threshold at or above every loss (the grid can end above c when alpha
    does not divide it) keeps the expert's space. An expert whose threshold turns out unrealizable
    skips that update and keeps playing (only consistent experts matter for the
    regret guarantee; the rest just need to be deterministic).

    Every exp factor `Fraction(float)` is dyadic, a / 2**k, so the weights are
    kept as integer numerators over one shared power of two, 2**exponent: a
    round multiplies each numerator by a * 2**(K - k), with K the largest k of
    the round, and adds K to the exponent. `weights` gives the exact
    Fractions. The default alpha is min(1/T, c), or 1/T when c = 0.
    """

    def __init__(
        self,
        problem: Problem,
        cls: HypothesisClass,
        gamma: Union[GammaValue, RationalLike],
        horizon: int,
        alpha: Union[RationalLike, None] = None,
        engine: Optional[DimensionEngine] = None,
    ):
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        if engine is None:
            engine = DimensionEngine(problem, cls, gamma)
        _check_realizable_gamma(engine)
        self.engine = engine
        self.problem = engine.problem
        self.cls = engine.cls
        self.horizon = horizon
        c = self.problem.bound_c
        if alpha is None:
            self.alpha = Fraction(1, horizon)
            if 0 < c < self.alpha:
                self.alpha = c
        else:
            self.alpha = parse_rational(alpha)
        full = to_mask(range(self.cls.num_hypotheses))
        self.dimension = engine.dim_members(full)
        self.pool, self._updates = _pool_plan(horizon, self.dimension, self.alpha, c)
        self.eta = math.sqrt(2.0 * math.log(len(self.pool)) / horizon)
        self._numerators = (1,) * len(self.pool)
        self._exponent = 0
        self._spaces = (full,) * len(self.pool)
        self._factor_cache: dict = {}
        self.round = 0
        self._pending = None

    @property
    def weights(self) -> list:
        """Each expert's weight, exactly: the product of its exp factors so far."""
        scale = 1 << self._exponent
        return [Fraction(n, scale) for n in self._numerators]

    def snapshot(self) -> tuple:
        """The state between rounds; `restore` returns to it."""
        return (self._numerators, self._exponent, self._spaces, self.round)

    def restore(self, state: tuple) -> None:
        self._numerators, self._exponent, self._spaces, self.round = state
        self._pending = None

    def predict(self, x: int) -> Mixture:
        if self.round >= self.horizon:
            raise ProtocolError(f"horizon {self.horizon} exhausted")
        _check_index("instance", x, self.problem.num_instances)
        groups: dict = {}
        for space, n in zip(self._spaces, self._numerators):
            groups[space] = groups.get(space, 0) + n
        spaces = tuple(groups)
        mixtures = tuple(_cached_mixture(self.engine, space, x) for space in spaces)
        self._pending = (x, spaces, mixtures)
        return aggregate_mixture(tuple(groups.values()), mixtures)

    def update(self, x: int, y: int, eps: Union[RationalLike, None] = None) -> None:
        # eps is part of the common learner protocol but this learner ignores
        # it: experts use their own quantized thresholds.
        if self._pending is None or self._pending[0] != x:
            raise ProtocolError("update without a matching predict")
        _check_index("label", y, self.problem.num_labels)
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
        if shift:
            scale = {
                space: f.numerator << (shift - f.denominator.bit_length() + 1)
                for space, f in factors.items()
            }
            self._numerators = tuple(
                n * scale[space] for n, space in zip(self._numerators, self._spaces)
            )
            self._exponent += shift
        t = self.round + 1
        if self._updates[t - 1]:
            kept_spaces = list(self._spaces)
            for i, threshold in self._updates[t - 1]:
                kept = self.engine.restrict(kept_spaces[i], x, y, threshold)
                if kept:
                    kept_spaces[i] = kept
            self._spaces = tuple(kept_spaces)
        self.round = t


class FollowTheLeader:
    """Dirac on the prediction with least cumulative past loss (lowest index on ties).

    Only defined for constant-function hypothesis classes, where the best
    prediction in hindsight and the best hypothesis in hindsight coincide.
    """

    def __init__(self, problem: Problem, cls: HypothesisClass):
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
        row = self.problem.loss[y]
        for z in range(len(self._cumulative)):
            self._cumulative[z] += row[z]


class UniformLearner:
    """Plays the uniform mixture every round; never updates."""

    def __init__(self, problem: Problem, cls: Optional[HypothesisClass] = None):
        self._size = problem.num_predictions

    def snapshot(self) -> None:
        """This learner has no state."""
        return None

    def restore(self, state: None) -> None:
        pass

    def predict(self, x: int) -> Mixture:
        return Mixture.uniform(self._size)

    def update(self, x: int, y: int, eps=None) -> None:
        pass
