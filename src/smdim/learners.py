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
rows from `DimensionEngine.qualifying_rows`, the rule the dimension recursion
uses.

All learners speak the same protocol: predict(x) -> Mixture, then
update(x, y, eps) with eps optional. Everything except the MW learning rate
(a double, by design) is exact rational arithmetic; the exp factors are
converted exactly into Fractions so replays are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
from .game import solve_min_max


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

    Equal (members, x) keys get the same Mixture object, which lets
    `aggregate_mixture` group agnostic experts in identical states.
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
        _, rows = engine.qualifying_rows(members, x, level + 1)
        if not rows:
            # No candidate exceeds this level; the level is achieved by any
            # mixture, keep sweeping for a sharper one.
            continue
        sol = solve_min_max(rows)
        if not sol.value < gamma:
            break
        best_sol = sol
    if best_sol is None:
        # Every candidate child has dimension 0 (only possible at dim <= 1):
        # any feedback already shrinks the dimension, so just minimize the
        # worst realizable threshold violation.
        _, rows = engine.qualifying_rows(members, x, 0)
        best_sol = solve_min_max(rows)
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
            if not isinstance(v, Fraction) or v < 0:
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
    budget: int = 100_000,
) -> tuple:
    """All experts with at most d_gamma timepoints and grid thresholds.

    The pool size is checked against `budget` before any enumeration; the
    deterministic order is by timepoint-set size, then the sets
    lexicographically, then threshold assignments lexicographically.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if d_gamma < 0:
        raise ValidationError(f"d_gamma must be >= 0, got {d_gamma}")
    alpha = parse_rational(alpha)
    c = parse_rational(c)
    if not 0 < alpha <= c:
        raise ValidationError(f"alpha must be in (0, c], got alpha={alpha}, c={c}")
    grid = loss_grid(alpha, c)
    size = pool_size(horizon, d_gamma, len(grid))
    if size > budget:
        raise BudgetError(f"expert pool of {size} exceeds budget {budget}")
    pool = [ExpertId((), ())]
    for i in range(1, d_gamma + 1):
        for points in combinations(range(1, horizon + 1), i):
            for thresholds in product(grid, repeat=i):
                pool.append(ExpertId(points, thresholds))
    return tuple(pool)


def _exp_factor(eta: float, c: Fraction, loss: Fraction) -> Fraction:
    if c == 0 or loss == 0 or eta == 0.0:
        return Fraction(1)
    # Fraction(float) is exact, so the update stays a deterministic rational.
    return Fraction(math.exp(-eta * float(loss / c)))


def aggregate_mixture(weights: Sequence[Fraction], mixtures: Sequence[Mixture]) -> Mixture:
    """Weight-average of mixtures (exact); expected loss is linear, so playing
    this equals drawing an expert by weight and playing its mixture."""
    if not mixtures or len(weights) != len(mixtures):
        raise ValidationError("need equally many weights and mixtures, at least one")
    total = Fraction(0)
    size = len(mixtures[0].weights)
    sums = [Fraction(0)] * size
    groups = {}
    for w, m in zip(weights, mixtures):
        if w <= 0:
            raise ValidationError(f"non-positive weight {w}")
        slot = groups.get(id(m))
        if slot is None:
            groups[id(m)] = [m, w]
        else:
            slot[1] += w
        total += w
    for m, w in groups.values():
        for j, entry in enumerate(m.weights):
            if entry:
                sums[j] += w * entry
    return Mixture(tuple(s / total for s in sums))


class AgnosticLearner:
    """Multiplicative weights over the timepoint/threshold expert pool.

    Each expert is an Mrsoa version space, kept as a bitmask beside its weight,
    that only updates on its own timepoints, with its own quantized thresholds
    in place of observed losses. Experts share the engine's mixture memo, so
    experts in identical version-space states cost one computation. A grid threshold at or
    above every loss (the grid can end above c when alpha does not divide it)
    keeps the expert's space. An expert whose threshold turns out unrealizable
    skips that update and keeps playing (only consistent experts matter for the
    regret guarantee; the rest just need to be deterministic).
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
        self.alpha = Fraction(1, horizon) if alpha is None else parse_rational(alpha)
        full = to_mask(range(self.cls.num_hypotheses))
        self.dimension = engine.dim_members(full)
        self.pool = build_expert_pool(horizon, self.dimension, self.alpha, self.problem.bound_c)
        self.eta = math.sqrt(2.0 * math.log(len(self.pool)) / horizon)
        self.weights = [Fraction(1)] * len(self.pool)
        self._spaces = [full] * len(self.pool)
        self._factor_cache: dict = {}
        self.round = 0
        self._pending = None

    def predict(self, x: int) -> Mixture:
        if self.round >= self.horizon:
            raise ProtocolError(f"horizon {self.horizon} exhausted")
        _check_index("instance", x, self.problem.num_instances)
        mixtures = [_cached_mixture(self.engine, space, x) for space in self._spaces]
        self._pending = (x, tuple(mixtures))
        return aggregate_mixture(self.weights, mixtures)

    def update(self, x: int, y: int, eps: Union[RationalLike, None] = None) -> None:
        # eps is part of the common learner protocol but this learner ignores
        # it: experts use their own quantized thresholds.
        if self._pending is None or self._pending[0] != x:
            raise ProtocolError("update without a matching predict")
        _check_index("label", y, self.problem.num_labels)
        mixtures = self._pending[1]
        self._pending = None
        t = self.round + 1
        losses = [expected_loss(self.problem, m, y) for m in mixtures]
        for i, loss in enumerate(losses):
            factor = self._factor_cache.get(loss)
            if factor is None:
                factor = _exp_factor(self.eta, self.problem.bound_c, loss)
                self._factor_cache[loss] = factor
            if factor != 1:
                self.weights[i] *= factor
        for i, ident in enumerate(self.pool):
            if t in ident.timepoints:
                threshold = ident.thresholds[ident.timepoints.index(t)]
                kept = self.engine.restrict(self._spaces[i], x, y, threshold)
                if kept:
                    self._spaces[i] = kept
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

    def predict(self, x: int) -> Mixture:
        return Mixture.uniform(self._size)

    def update(self, x: int, y: int, eps=None) -> None:
        pass
