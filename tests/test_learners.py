"""Learner behavior: minimax play, version-space bookkeeping, expert pools, MW."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from smdim import learners
from smdim.adversaries import find_sqrt_witness, rademacher_stream
from smdim.core import (
    BudgetError,
    HypothesisClass,
    Mixture,
    ProtocolError,
    RealizabilityError,
    ValidationError,
    expected_loss,
    make_problem,
    validate_problem,
)
from smdim.dimensions import DimensionEngine, GammaValue, to_mask
from smdim.game import AffineRow, solve_min_max
from smdim.instances import make_builtin
from smdim.learners import (
    AgnosticLearner,
    FollowTheLeader,
    Mrsoa,
    UniformLearner,
    aggregate_mixture,
    loss_grid,
    pool_size,
)
from smdim.simulation import exact_expectation_over_signs, run_game, transcript_rows
from smdim.verify import gen_multiclass, gen_regression

from test_core import mixtures
from test_dimensions import small_random_instance

F = Fraction


def three_quarter_constants():
    """Two constant hypotheses on two labels with 0/(3/4) loss, so c = 3/4."""
    problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "3/4"], ["3/4", "0"]])
    return validate_problem(problem, HypothesisClass(((0,), (1,))))


UNIT_GAP = ("multiclass:binary-constants", "multilabel:pair-constants")


def zero_loss_constants():
    """Two constant hypotheses under an all-zero loss matrix, so c = 0."""
    problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "0"], ["0", "0"]])
    return validate_problem(problem, HypothesisClass(((0,), (1,))))


def agnostic_enum_class(rng):
    """A class shaped like the benchmark's sign-enumeration workload: absolute
    loss on a grid in [0, 1] that contains 0 and 1 (so c = 1), one or two
    instances, two to four hypotheses, and a two-point sign witness."""
    while True:
        grid = sorted([F(0), F(1)] + rng.sample((F(1, 4), F(1, 2), F(3, 4)), rng.randint(0, 1)))
        nx = rng.randint(1, 2)
        universe = list(product(range(len(grid)), repeat=nx))
        rows = tuple(sorted(rng.sample(universe, min(rng.randint(2, 4), len(universe)))))
        ids = tuple(range(len(grid)))
        loss = [[abs(y - z) for z in grid] for y in grid]
        problem, cls = validate_problem(
            make_problem(tuple(range(nx)), ids, ids, loss), HypothesisClass(rows)
        )
        if find_sqrt_witness(problem, cls) is not None:
            return problem, cls


def binary_pairs():
    """All four 0/1 functions on two instances under 0/1 loss: dimension 2 at
    gamma = 1/4, so agnostic pools grow like 17^2 * C(16, 2) at T = 16."""
    problem = make_problem((0, 1), (0, 1), (0, 1), [[0, 1], [1, 0]])
    return validate_problem(problem, HypothesisClass(((0, 0), (0, 1), (1, 0), (1, 1))))


def binary_triples():
    """All eight 0/1 functions on three instances under 0/1 loss: dimension 3
    at gamma = 1/4, so the pool at T = 12 holds 494,651 experts."""
    problem = make_problem((0, 1, 2), (0, 1), (0, 1), [[0, 1], [1, 0]])
    return validate_problem(problem, HypothesisClass(tuple(product((0, 1), repeat=3))))


def expert_pool(horizon, d_gamma, grid):
    """The experts `AgnosticLearner` groups, enumerated: each (timepoints,
    thresholds) pair with at most d_gamma of the rounds 1..horizon and one grid
    threshold per timepoint."""
    return [
        (points, thresholds)
        for i in range(d_gamma + 1)
        for points in combinations(range(1, horizon + 1), i)
        for thresholds in product(grid, repeat=i)
    ]


def grid_points(learner):
    """k, the number of thresholds in the learner's grid."""
    return len(loss_grid(learner.alpha, learner.problem.bound_c))


def state_weights(learner):
    """Each version space's summed expert weight, read from the snapshot's
    groups: after round s an entry (space, used) is the weight of one expert
    per prefix, shared by the pool_size(T - s, d - used, k) experts that
    differ only in later timepoints."""
    groups, exponent, s, _ = learner.snapshot()
    d, k = learner.dimension, grid_points(learner)
    out = {}
    for (space, used), n in groups.items():
        weight = F(n * pool_size(learner.horizon - s, d - used, k), 1 << exponent)
        out[space] = out.get(space, 0) + weight
    return out


class ReferenceAgnosticLearner:
    """The per-expert multiplicative weights that `AgnosticLearner` groups:
    one Fraction weight and one mixture per expert, each reweighted by
    Fraction(exp(-eta * loss / c)) of its own expected loss."""

    def __init__(self, problem, cls, horizon, alpha, engine):
        self.problem, self.engine = problem, engine
        full = to_mask(range(cls.num_hypotheses))
        d = engine.dim_members(full)
        self.pool = expert_pool(horizon, d, loss_grid(alpha, problem.bound_c) if d else ())
        self.eta = math.sqrt(2.0 * math.log(len(self.pool)) / horizon)
        self.weights = [F(1)] * len(self.pool)
        self.spaces = [full] * len(self.pool)
        self.round = 0

    def space_weights(self):
        """Each version space's summed expert weight."""
        out = {}
        for space, weight in zip(self.spaces, self.weights):
            out[space] = out.get(space, 0) + weight
        return out

    def predict(self, x):
        self.mixtures = [self.engine.mixture(space, x) for space in self.spaces]
        total = sum(self.weights)
        return Mixture.of(tuple(
            sum(w * m.weights[z] for w, m in zip(self.weights, self.mixtures)) / total
            for z in range(self.problem.num_predictions)
        ))

    def update(self, x, y, eps=None):
        self.round += 1
        for i, mixture in enumerate(self.mixtures):
            loss = expected_loss(self.problem, mixture, y)
            if loss:
                self.weights[i] *= F(math.exp(-self.eta * float(loss / self.problem.bound_c)))
        for i, (timepoints, thresholds) in enumerate(self.pool):
            if self.round in timepoints:
                threshold = thresholds[timepoints.index(self.round)]
                kept = self.engine.restrict(self.spaces[i], x, y, threshold)
                if kept:
                    self.spaces[i] = kept


def assert_matches_reference(learner, reference, rounds):
    """`learner` and `reference` play the same mixture each round and hold the
    same summed weight per version space after it."""
    size = pool_size(learner.horizon, learner.dimension, grid_points(learner))
    assert (size, learner.eta) == (len(reference.pool), reference.eta)
    for x, y in rounds:
        assert learner.predict(x) == reference.predict(x)
        learner.update(x, y)
        reference.update(x, y)
        assert state_weights(learner) == reference.space_weights()


def play(learner, stream):
    """The mixtures `learner` plays on `stream`, updating after each round."""
    played = []
    for x, y, eps in stream:
        played.append(learner.predict(x))
        learner.update(x, y, eps)
    return played


def reference_mixture(engine, members, x):
    """Mrsoa's mixture written straight from the dimensions: a full
    `dim_members` for every candidate child, then at each level the first row
    of each label whose child has dimension above the level."""

    def first_rows(cands):
        rows = {}
        for y, key, _, _ in cands:
            rows.setdefault(y, AffineRow(engine.problem.loss[y], -F(key, engine._den)))
        return list(rows.values())

    cands = engine.candidate_rows(members, x)
    dims = [engine.dim_members(child) for _, _, child, _ in cands]
    best = None
    for level in range(engine.dim_members(members) - 1, -1, -1):
        rows = first_rows(c for c, d in zip(cands, dims) if d > level)
        if not rows:
            continue
        sol = solve_min_max(rows)
        if not sol.value < engine.gamma.gamma:
            break
        best = sol
    if best is None:
        best = solve_min_max(first_rows(cands))
    return best.mixture


class TestMrsoa:
    @pytest.mark.parametrize(
        "eps, message",
        [
            ("3/4", r"^threshold 3/4 outside \[0, 1/2\]$"),
            (F(-1, 4), r"^threshold -1/4 outside \[0, 1/2\]$"),
            (1, r"^threshold 1 outside \[0, 1/2\]$"),
        ],
    )
    def test_update_refuses_a_threshold_outside_zero_and_c(self, eps, message):
        # Declared bound 1, largest loss c = 1/2; the space is left as it was.
        problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "1/2"], ["1/2", "0"]], bound_c=1)
        learner = Mrsoa(problem, HypothesisClass(((0,), (1,))), F(1, 8))
        with pytest.raises(ValidationError, match=message):
            learner.update(0, 0, eps)
        assert learner.version_space.members == (0, 1)
        learner.update(0, 0, "1/2")
        learner.update(0, 0, 0)
        assert learner.version_space.members == (0,)

    @pytest.mark.parametrize(
        "x, y, eps, message",
        [
            (2, 5, "nonsense", "instance index 2 out of range"),
            (0, 5, "nonsense", "label index 5 out of range"),
            (0, 1, "nonsense", "not a rational literal: 'nonsense'"),
            (0, 1, "3/4", "threshold 3/4 outside [0, 1/2]"),
        ],
    )
    def test_update_checks_the_instance_the_label_the_literal_then_the_threshold(self, x, y, eps, message):
        problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "1/2"], ["1/2", "0"]], bound_c=1)
        learner = Mrsoa(problem, HypothesisClass(((0,), (1,))), F(1, 8))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            learner.update(x, y, eps)
        assert learner.version_space.members == (0, 1)

    def test_mixtures_match_the_dimension_formula(self):
        # Over states reached by random realizable streams, Mrsoa plays the
        # mixture the per-child dimension formula gives, computed on a
        # separate engine.
        rng = random.Random(23)
        classes = [small_random_instance(rng) for _ in range(30)]
        classes += [gen_regression(rng) for _ in range(12)]
        for problem, cls in classes:
            for gamma in (F(1, 8), F(1, 4), F(1, 2)):
                reference = DimensionEngine(problem, cls, gamma)
                learner = Mrsoa(problem, cls, gamma)
                for _ in range(6):
                    x = rng.randrange(problem.num_instances)
                    members = to_mask(learner.version_space.members)
                    assert learner.predict(x) == reference_mixture(reference, members, x)
                    h = rng.choice(learner.version_space.members)
                    y = rng.randrange(problem.num_labels)
                    eps = problem.loss[y][cls.table[h][x]]
                    learner.update(x, y, rng.choice((eps, None)))

    def test_a_top_game_that_passes_the_margin_raises(self):
        # At dimension 1 the depth-1 game is below the margin, or the space
        # would shatter to depth 2. A verdict memo that says otherwise is
        # inconsistent, and Mrsoa refuses to play rather than fall back to
        # the depth-0 mixture.
        problem, cls = make_builtin("list:singleton-constants")
        engine = DimensionEngine(problem, cls, F(1, 4))
        full = to_mask(range(cls.num_hypotheses))
        assert engine.dim_members(full) == 1
        ids = engine.qualifying_rows(full, 0, 1)
        engine._verdicts[ids] = True
        with pytest.raises(RuntimeError, match="memo and the game verdicts disagree"):
            Mrsoa(problem, cls, engine=engine).predict(0)

    def test_initial_play_on_binary_constants(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        assert learner.dimension == 1
        assert learner.predict(0).weights == (F(1, 2), F(1, 2))

    def test_singleton_space_plays_dirac(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        learner.predict(0)
        learner.update(0, 0)  # self-threshold at the realizable minimum 0
        assert learner.version_space.members == (0,)
        assert learner.predict(0).weights == (F(1), F(0))

    def test_explicit_unrealizable_threshold_raises(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        learner.update(0, 0, F(0))
        with pytest.raises(RealizabilityError, match="not eps_t-realizable"):
            learner.update(0, 1, F(0))

    def test_self_threshold_never_empties(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        for y in (0, 1, 1, 0, 1):
            learner.predict(0)
            learner.update(0, y)
            assert learner.version_space.members

    def test_strict_gamma_rejected(self):
        # 0 is the strict margin, however it is given.
        problem, cls = make_builtin("multiclass:binary-constants")
        for gamma in (GammaValue.strict_zero(), 0, "0", F(0)):
            with pytest.raises(ValidationError, match=r"^version-space learners need gamma > 0"):
                Mrsoa(problem, cls, gamma)

    def test_needs_gamma_or_engine(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError):
            Mrsoa(problem, cls)

    def test_over_margin_feedback_decreases_dimension(self):
        # Whenever the expected loss of the played mixture is at least
        # gamma + eps_t, the updated version space has strictly smaller
        # dimension. This is the invariant behind the mistake bound.
        rng = random.Random(19)
        gamma = F(1, 4)
        for _ in range(25):
            problem, cls = gen_multiclass(rng)
            engine = DimensionEngine(problem, cls, gamma)
            learner = Mrsoa(problem, cls, engine=engine)
            for _ in range(4):
                x = rng.randrange(problem.num_instances)
                mixture = learner.predict(x)
                y = rng.randrange(problem.num_labels)
                before_members = learner.version_space.members
                before_dim = engine.dim_members(to_mask(before_members))
                eps = min(
                    problem.loss[y][cls.table[h][x]] for h in before_members
                )
                expected = sum(
                    w * problem.loss[y][z]
                    for z, w in enumerate(mixture.weights)
                )
                learner.update(x, y)
                if expected >= gamma + eps:
                    after_dim = engine.dim_members(to_mask(learner.version_space.members))
                    assert after_dim < before_dim

    def test_shared_mixture_cache(self):
        # Learners on one engine share its mixture memo: equal states get the
        # same Mixture object, and every agnostic expert group gets it too.
        # The engine's game table is cleared before each play, so only the
        # memo can share it.
        problem, cls = make_builtin("multiclass:binary-constants")
        engine = DimensionEngine(problem, cls, F(1, 4))
        first = Mrsoa(problem, cls, engine=engine)
        second = Mrsoa(problem, cls, engine=engine)
        agnostic = AgnosticLearner(problem, cls, F(1, 4), horizon=2, engine=engine)
        engine.games.clear()
        mixture = first.predict(0)
        engine.games.clear()
        assert second.predict(0) is mixture
        engine.games.clear()
        agnostic.predict(0)
        _, spaces, mixtures = agnostic._pending
        assert spaces == (to_mask(range(cls.num_hypotheses)),)
        assert mixtures[0] is mixture
        # After a round the experts split into groups; each group plays the
        # memo's Mixture object for its version space.
        agnostic.update(0, 1)
        agnostic.predict(0)
        _, spaces, mixtures = agnostic._pending
        assert len(spaces) == len(set(spaces)) > 1
        for space, group_mixture in zip(spaces, mixtures):
            first.restore(space)
            engine.games.clear()
            assert first.predict(0) is group_mixture

    def test_bad_indices_rejected(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        with pytest.raises(ValidationError):
            learner.predict(5)
        with pytest.raises(ValidationError):
            learner.update(0, 9)

    def test_update_rejects_bad_instance(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        for x in (-1, 7):
            with pytest.raises(ValidationError, match="instance index"):
                learner.update(x, 0)
        assert learner.version_space.members == (0, 1)


def _mrsoa(problem, cls, gamma, engine):
    return Mrsoa(problem, cls, gamma, engine=engine)


def _agnostic(problem, cls, gamma, engine):
    return AgnosticLearner(problem, cls, gamma, 3, engine=engine)


@pytest.mark.parametrize("make", [_mrsoa, _agnostic], ids=["Mrsoa", "AgnosticLearner"])
class TestPreparedEngine:
    """A learner given an engine plays on that engine's pair and margin, so
    the engine must be built on the learner's own arguments."""

    def test_matching_engine_is_accepted(self, make):
        problem, cls = make_builtin("multiclass")
        engine = DimensionEngine(problem, cls, F(1, 8))
        for gamma in (None, F(1, 8), "1/8", GammaValue(F(1, 8))):
            assert make(problem, cls, gamma, engine).engine is engine

    def test_neither_gamma_nor_engine_is_refused(self, make):
        problem, cls = make_builtin("multiclass")
        with pytest.raises(ValidationError, match="needs gamma or a prepared engine"):
            make(problem, cls, None, None)

    def test_engine_on_another_problem_is_refused(self, make):
        problem, cls = make_builtin("multiclass")
        other_problem, other_cls = make_builtin("hilbert:orthonormal")
        engine = DimensionEngine(other_problem, other_cls, F(1, 8))
        with pytest.raises(ValidationError, match="another problem or class"):
            make(problem, cls, None, engine)

    def test_engine_on_another_class_object_is_refused(self, make):
        # Identity, the rule the engine's shared tables are keyed by: an
        # equal class parsed separately is another class.
        problem, cls = make_builtin("multiclass")
        engine = DimensionEngine(problem, HypothesisClass(cls.table), F(1, 8))
        with pytest.raises(ValidationError, match="another problem or class"):
            make(problem, cls, None, engine)

    def test_engine_at_another_gamma_is_refused(self, make):
        problem, cls = make_builtin("multiclass")
        engine = DimensionEngine(problem, cls, F(1, 8))
        with pytest.raises(ValidationError, match="gamma 1/2 differs from the engine's 1/8"):
            make(problem, cls, "1/2", engine)


class TestExpertPool:
    def test_grid_and_size_formula(self):
        grid = loss_grid(F(1, 2), F(1))
        assert grid == (F(0), F(1, 2), F(1))
        assert pool_size(4, 1, len(grid)) == 13

    def test_grid_needs_positive_alpha(self):
        for alpha in (F(0), F(-1)):
            with pytest.raises(ValidationError, match="alpha > 0"):
                loss_grid(alpha, F(1))

    def test_grid_needs_a_nonnegative_loss_bound(self):
        with pytest.raises(ValidationError, match="c >= 0, got -1"):
            loss_grid(F(1, 2), F(-1))
        assert loss_grid(F(1, 2), F(0)) == (F(0),)

    def test_grid_reads_its_arguments_as_rationals(self):
        # A float alpha once made the float grid (0.0, 0.5, 1.0), and a "p/q"
        # string raised a bare TypeError.
        for alpha, c in ((0.5, F(1)), (F(1, 2), 1.0)):
            with pytest.raises(ValidationError, match="^refusing float "):
                loss_grid(alpha, c)
        assert loss_grid("1/2", 1) == loss_grid(F(1, 2), "1") == (F(0), F(1, 2), F(1))
        assert all(type(v) is Fraction for v in loss_grid("1/3", "2/3"))

    def test_pool_size_counts_the_enumerated_pool(self):
        for horizon, d, grid in ((4, 1, (F(0), F(1, 2), F(1))), (5, 2, (F(0), F(1))), (3, 0, ())):
            pool = expert_pool(horizon, d, grid)
            assert len(pool) == len(set(pool)) == pool_size(horizon, d, len(grid))
        assert pool_size(4, 1, 3) == 13 and pool_size(0, 2, 5) == 1

    @pytest.mark.parametrize(
        "horizon, d_gamma, grid_points, message",
        [
            (-1, 1, 3, r"^horizon must be >= 0, got -1$"),
            (2.0, 1, 3, r"^horizon must be an int, got 2.0$"),
            (True, 1, 3, r"^horizon must be an int, got True$"),
            (3, True, 3, r"^d_gamma must be an int, got True$"),
            (2, 1.0, 3, r"^d_gamma must be an int, got 1.0$"),
            (2, -1, 3, r"^d_gamma must be >= 0, got -1$"),
            (3, 1, -2, r"^grid_points must be >= 0, got -2$"),
            (3, 1, False, r"^grid_points must be an int, got False$"),
        ],
    )
    def test_pool_size_refuses_bad_counts(self, horizon, d_gamma, grid_points, message):
        # pool_size(3, 1, -2) was once -5, pool_size(3, True, 3) was 10 and
        # pool_size(-1, 1, 3) raised a bare ValueError.
        with pytest.raises(ValidationError, match=message):
            pool_size(horizon, d_gamma, grid_points)

    def test_pool_within_published_bound(self):
        # pool size <= (2cT/alpha)^d for d >= 1 on these parameters
        for horizon, d, alpha, c in ((4, 1, F(1, 2), F(1)), (6, 1, F(1, 6), F(1)), (5, 2, F(1), F(2))):
            grid = loss_grid(alpha, c)
            size = pool_size(horizon, d, len(grid))
            assert size <= (2 * c * horizon / alpha) ** d

    def test_the_budget_bounds_the_grid(self):
        # A pool of 121,370,426 experts (T = 30, d = 3, 31 grid points) was
        # once refused; only a grid of more than GRID_BUDGET points is now.
        problem, cls = binary_triples()
        learner = AgnosticLearner(problem, cls, F(1, 4), 30, alpha=F(1, 30))
        assert (learner.dimension, pool_size(30, 3, 31)) == (3, 121_370_426)
        assert learner.eta == math.sqrt(2 * math.log(121_370_426) / 30)
        problem, cls = make_builtin("multiclass:binary-constants")
        top = learners.GRID_BUDGET - 1
        assert len(AgnosticLearner(problem, cls, F(1, 4), 2, alpha=F(1, top))._grid) == top + 1
        with pytest.raises(BudgetError, match=f"^threshold grid of {top + 2} points exceeds budget {top + 1}$"):
            AgnosticLearner(problem, cls, F(1, 4), 2, alpha=F(1, top + 1))

    def test_budget_checked_before_the_grid_is_built(self, monkeypatch):
        # alpha = 1/10**9 would make a grid of a billion Fractions.
        built = []
        monkeypatch.setattr(learners, "loss_grid", lambda alpha, c: built.append((alpha, c)))
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(BudgetError):
            AgnosticLearner(problem, cls, F(1, 4), 3, alpha=F(1, 10**9))
        # At dimension 0 no expert has a timepoint to read the grid.
        learner = AgnosticLearner(problem, HypothesisClass(((0,),)), F(1, 4), 3, alpha=F(1, 10**9))
        assert learner.dimension == 0
        assert built == []

    def test_alpha_range_checked(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        for alpha in (F(0), F(2)):
            with pytest.raises(ValidationError, match=r"^alpha must be in \(0, c\]"):
                AgnosticLearner(problem, cls, F(1, 4), 4, alpha=alpha)
        problem, cls = zero_loss_constants()
        with pytest.raises(ValidationError, match=r"^alpha must be in \(0, c\]"):
            AgnosticLearner(problem, cls, F(1, 4), 4, alpha=F(-1))

    def test_zero_loss_bound_takes_any_alpha(self):
        # c = 0: the grid is {0} whatever alpha > 0 is, so a dimension-1 pool
        # over 3 rounds holds 4 experts.
        problem, cls = zero_loss_constants()
        for alpha in (F(1, 3), F(2)):
            assert loss_grid(alpha, F(0)) == (F(0),)
            assert AgnosticLearner(problem, cls, F(1, 4), 3, alpha=alpha).alpha == alpha
        assert pool_size(3, 1, 1) == len(expert_pool(3, 1, (F(0),))) == 4

    def test_learners_with_equal_parameters_share_one_pool_shape(self):
        # Equal (horizon, dimension, alpha, c) share one grid and one table of
        # expert counts; another alpha gets its own grid.
        problem, cls = make_builtin("multiclass:binary-constants")
        first = AgnosticLearner(problem, cls, F(1, 4), horizon=4)
        second = AgnosticLearner(problem, cls, F(1, 4), horizon=4, engine=first.engine)
        other = AgnosticLearner(problem, cls, F(1, 4), horizon=4, alpha=F(1, 2))
        assert second._grid is first._grid and second._counts is first._counts
        assert first._grid == loss_grid(F(1, 4), F(1))
        assert other._grid == loss_grid(F(1, 2), F(1))


class TestMultiplicativeWeights:
    def test_aggregate_is_exact_weighted_average(self):
        mixtures = [Mixture.dirac(2, 0), Mixture.dirac(2, 1)]
        out = aggregate_mixture([F(1), F(3)], mixtures)
        assert out.weights == (F(1, 4), F(3, 4))

    def test_aggregate_validation(self):
        with pytest.raises(ValidationError):
            aggregate_mixture([], [])
        with pytest.raises(ValidationError):
            aggregate_mixture([F(0)], [Mixture.dirac(2, 0)])
        # True once weighed as 1; 0.5 and "1/2" once raised TypeError.
        for weight in (True, 0.5, "1/2"):
            with pytest.raises(ValidationError, match=f"^weight {weight!r} is not an int or a Fraction$"):
                aggregate_mixture([weight], [Mixture.dirac(2, 0)])
        # A tuple of weights was once read for its `den`: a bare AttributeError.
        with pytest.raises(ValidationError, match=r"^entry \(Fraction\(1, 1\),\) is not a Mixture$"):
            aggregate_mixture([1], [(F(1),)])
        with pytest.raises(ValidationError, match="^entry None is not a Mixture$"):
            aggregate_mixture([1, 1], [Mixture.dirac(2, 0), None])

    def test_played_mixtures_build_no_weights(self):
        # Widths, supports, expected losses and the aggregate read the
        # integers alone; the weights are built when something reads them.
        problem, _ = three_quarter_constants()
        mixed = [Mixture((1, 3), 4), Mixture.dirac(2, 1), Mixture.uniform(2)]
        out = aggregate_mixture([3, F(1, 2), 2**70], mixed)
        for mixture in (*mixed, out):
            assert len(mixture) == 2 and mixture.support() in ((0, 1), (1,))
            expected_loss(problem, mixture, 0)
            assert "weights" not in vars(mixture)
        reference = tuple(
            sum((w * m.weights[j] for w, m in zip((3, F(1, 2), 2**70), mixed)), F(0)) / (F(7, 2) + 2**70)
            for j in range(2)
        )
        assert out.weights == reference and vars(out)["weights"] is out.weights

    @given(st.data())
    def test_aggregate_equals_a_fraction_sum(self, data):
        width = data.draw(st.integers(1, 4))
        mixed = data.draw(st.lists(mixtures(width), min_size=1, max_size=4))
        weight = st.one_of(
            st.integers(1, 2**70), st.builds(F, st.integers(1, 9), st.sampled_from((1, 3, 2**61)))
        )
        weights = data.draw(st.lists(weight, min_size=len(mixed), max_size=len(mixed)))
        total = sum(weights, F(0))
        reference = tuple(
            sum((w * m.weights[j] for w, m in zip(weights, mixed)), F(0)) / total
            for j in range(width)
        )
        assert aggregate_mixture(weights, mixed).weights == reference

    def test_aggregate_rejects_unequal_widths(self):
        # Wider second: an IndexError; narrower second: a wrong 3-entry mixture.
        halves, thirds = Mixture.uniform(2), Mixture.uniform(3)
        for mixtures in ([halves, thirds], [thirds, halves]):
            with pytest.raises(ValidationError):
                aggregate_mixture([1, 1], mixtures)


class TestAgnosticLearner:
    @pytest.mark.parametrize(
        "horizon, message",
        [
            (True, r"^horizon must be an int, got True$"),
            (2.0, r"^horizon must be an int, got 2.0$"),
            (0, r"^horizon must be >= 1, got 0$"),
        ],
    )
    def test_the_horizon_is_an_int(self, horizon, message):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match=message):
            AgnosticLearner(problem, cls, F(1, 4), horizon)

    def test_a_played_sign_walk_builds_no_weights_until_a_writer_reads_them(self):
        # The walk, the learner's aggregate and the expected losses read the
        # integers alone; a transcript writer builds the weights it writes.
        problem, cls = make_builtin("regression:three-point")
        witness = find_sqrt_witness(problem, cls)
        played = []

        def factory():
            learner = AgnosticLearner(problem, cls, F(1, 4), 6)
            predict = learner.predict
            learner.predict = lambda x: played.append(predict(x)) or played[-1]
            return learner

        streams = lambda signs: rademacher_stream(witness, signs)
        exact_expectation_over_signs(problem, cls, streams, factory, 6)
        report = run_game(problem, cls, factory(), streams((1, -1, -1, 1, 1, -1)))
        assert len(played) > 6 and not any("weights" in vars(mu) for mu in played)
        rows = transcript_rows(problem, report)
        assert all("weights" in vars(r.mixture) for r in report.rounds) and len(rows) == 7

    def test_default_alpha_is_c_below_one_over_horizon(self):
        # 0 < c < 1/T takes alpha = c; c = 0 keeps 1/T.
        cls = HypothesisClass(((0,), (1,)))
        small = make_problem(("x0",), (0, 1), (0, 1), [["0", "1/8"], ["1/8", "0"]])
        assert AgnosticLearner(small, cls, F(1, 32), 4).alpha == F(1, 8)
        assert AgnosticLearner(small, cls, F(1, 32), 8).alpha == F(1, 8)
        assert AgnosticLearner(small, cls, F(1, 32), 16).alpha == F(1, 16)
        zero = make_problem(("x0",), (0,), (0, 1), [["0", "0"]])
        assert AgnosticLearner(zero, cls, F(1, 32), 4).alpha == F(1, 4)

    def test_pool_uses_default_alpha_one_over_horizon(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=4)
        assert learner.alpha == F(1, 4)
        assert learner.dimension == 1
        size = pool_size(4, 1, len(loss_grid(F(1, 4), F(1))))
        assert size == len(expert_pool(4, 1, loss_grid(F(1, 4), F(1)))) == 21
        assert learner.eta == math.sqrt(2 * math.log(size) / 4)

    def test_play_is_exact_and_updates_advance(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3)
        for t, y in enumerate((0, 1, 0), start=1):
            mixture = learner.predict(0)
            assert sum(mixture.weights) == 1
            learner.update(0, y)
            assert learner.round == t

    def test_horizon_exhaustion_raises(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=1)
        learner.predict(0)
        learner.update(0, 0)
        with pytest.raises(ProtocolError):
            learner.predict(0)

    def test_update_requires_matching_predict(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=2)
        with pytest.raises(ProtocolError):
            learner.update(0, 0)

    def test_unrealizable_expert_updates_are_skipped(self):
        # On the two-constant multilabel instance, label (0,1) has loss 1/2
        # against both hypotheses, so threshold-0 experts cannot restrict and
        # must skip while the learner keeps playing.
        problem, cls = make_builtin("multilabel:pair-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=2)
        mixed_label = problem.labels.index((0, 1))
        learner.predict(0)
        learner.update(0, mixed_label)
        mixture = learner.predict(0)
        assert sum(mixture.weights) == 1
        assert all(space for space, _ in learner._groups)

    def test_weights_follow_exact_exp_factors(self):
        # Each expert's weight is multiplied by Fraction(exp(-eta * loss / c))
        # of its own mixture's expected loss, and kept exactly at zero loss;
        # each version space weighs the sum of its experts' weights. Experts
        # are replayed independently with Mrsoa; c = 3/4 here.
        problem, cls = three_quarter_constants()
        engine = DimensionEngine(problem, cls, F(1, 4))
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3, alpha=F(1, 4), engine=engine)
        stream = [(0, 0), (0, 0), (0, 1)]
        pool = expert_pool(3, learner.dimension, loss_grid(F(1, 4), problem.bound_c))
        experts = [(ident, Mrsoa(problem, cls, engine=engine), [F(1)]) for ident in pool]
        zero_losses = 0
        for t, (x, y) in enumerate(stream, start=1):
            learner.predict(x)
            learner.update(x, y)
            spaces = {}
            for (timepoints, thresholds), expert, weight in experts:
                loss = expected_loss(problem, expert.predict(x), y)
                if loss == 0:
                    zero_losses += 1
                else:
                    weight[0] *= F(math.exp(-learner.eta * float(loss / problem.bound_c)))
                if t in timepoints:
                    expert.update(x, y, thresholds[timepoints.index(t)])
                space = expert.snapshot()
                spaces[space] = spaces.get(space, 0) + weight[0]
            assert state_weights(learner) == spaces
        assert zero_losses > 0

    def test_zero_eta_keeps_weights(self):
        # A one-hypothesis class has dimension 0, so the pool is the single
        # empty expert and eta = sqrt(2 ln 1 / T) = 0.
        problem, _ = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, HypothesisClass(((0,),)), F(1, 4), horizon=2)
        assert learner.eta == 0.0
        learner.predict(0)
        learner.update(0, 1)  # loss 1 against the Dirac on prediction 0
        assert learner.snapshot() == ({(1, 0): 1}, 0, 1, None)

    def test_grid_threshold_above_c_keeps_the_space(self):
        # alpha = 1/3 does not divide c = 3/4, so the grid ends at 1 > c; an
        # expert thresholding there keeps its whole version space, and weighs
        # exactly what the expert with no timepoints weighs. Thresholds 0, 1/3
        # and 2/3 on label 0 keep hypothesis 0 alone.
        problem, cls = three_quarter_constants()
        engine = DimensionEngine(problem, cls, F(1, 4))
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3, engine=engine)
        assert loss_grid(learner.alpha, problem.bound_c) == (F(0), F(1, 3), F(2, 3), F(1))
        reference = ReferenceAgnosticLearner(problem, cls, 3, learner.alpha, engine)
        assert_matches_reference(learner, reference, [(0, 0)])
        groups = learner.snapshot()[0]
        assert groups.keys() == {(0b11, 0), (0b01, 1), (0b11, 1)}
        assert groups[0b11, 1] == groups[0b11, 0] and groups[0b01, 1] == 3 * groups[0b11, 0]
        assert_matches_reference(learner, reference, [(0, 1), (0, 1)])

    def test_bad_indices_rejected(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=2)
        with pytest.raises(ValidationError, match="instance index"):
            learner.predict(3)
        learner.predict(0)
        with pytest.raises(ValidationError, match="label index"):
            learner.update(0, 5)
        learner.update(0, 1)
        assert learner.round == 1

    def test_default_alpha_is_at_most_c(self):
        # c = 3/4 < 1/T at T = 1, so the default alpha is c, not 1/T (which the
        # pool rejects). The played mixture is uniform by symmetry, and
        # hypothesis 1 has no loss on label 1.
        problem, cls = three_quarter_constants()
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=1)
        assert (learner.alpha, learner.dimension) == (F(3, 4), 1)
        assert pool_size(1, 1, len(loss_grid(F(3, 4), F(3, 4)))) == 3
        assert learner.eta == math.sqrt(2 * math.log(3))
        report = run_game(problem, cls, learner, [(0, 1)])
        assert report.rounds[0].mixture == Mixture.uniform(2)
        assert report.regret == F(3, 8)

    def test_zero_loss_bound(self):
        # c = 0: nothing is shatterable at gamma > 0, so the pool is the
        # single empty expert, eta is 0 and the regret is 0.
        problem, cls = zero_loss_constants()
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3)
        assert (learner.alpha, learner.dimension, learner.eta) == (F(1, 3), 0, 0.0)
        assert pool_size(3, 0, 0) == 1
        report = run_game(problem, cls, learner, [(0, 0), (0, 1), (0, 1)])
        assert report.regret == 0
        assert learner.snapshot() == ({(0b11, 0): 1}, 0, 3, None)

    def test_matches_per_expert_reference(self):
        # Grouping experts by version space, with integer weight numerators
        # over a shared power of two, plays the same mixtures and keeps the
        # same summed weight per version space as per-expert Fraction MW,
        # round by round.
        rng = random.Random(31)
        cases = [(make_builtin(n), range(1, 8)) for n in UNIT_GAP]
        cases.append((three_quarter_constants(), (1, 3)))
        cases += [(agnostic_enum_class(rng), (3, 4, 5)) for _ in range(20)]
        for (problem, cls), horizons in cases:
            engine = DimensionEngine(problem, cls, F(1, 4))
            for horizon in horizons:
                learner = AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine)
                reference = ReferenceAgnosticLearner(problem, cls, horizon, learner.alpha, engine)
                rounds = [
                    (rng.randrange(problem.num_instances), rng.randrange(problem.num_labels))
                    for _ in range(horizon)
                ]
                assert_matches_reference(learner, reference, rounds)

    def test_the_state_holds_at_most_d_plus_one_entries_per_space(self, monkeypatch):
        # T = 16 and d = 2 make a pool of 34,953 experts; the state keeps one
        # entry per (space, timepoints used). With every exp factor 1 each
        # entry counts its experts' prefixes, so the entries, each times the
        # experts per prefix, count the whole pool after every round.
        problem, cls = binary_pairs()
        learner = AgnosticLearner(problem, cls, F(1, 4), 16)
        d = learner.dimension
        assert (d, pool_size(16, d, grid_points(learner))) == (2, 34_953)
        monkeypatch.setattr(learners, "_exp_factor", lambda eta, c, loss: F(1))
        rng = random.Random(16)
        for _ in range(16):
            x, y = rng.randrange(2), rng.randrange(2)
            assert sum(learner.predict(x).weights) == 1
            learner.update(x, y)
            groups = learner.snapshot()[0]
            spaces = {space for space, _ in groups}
            assert len(groups) <= (d + 1) * len(spaces)
            assert sum(state_weights(learner).values()) == 34_953

    @pytest.mark.parametrize(
        "make, horizon, size", [(binary_pairs, 6, 778), (binary_triples, 4, 671)], ids=["d2", "d3"]
    )
    def test_matches_per_expert_reference_at_higher_dimension(self, make, horizon, size):
        # The reference affords the 778 experts of a dimension-2 pool at
        # T = 6 and the 671 of a dimension-3 pool at T = 4.
        problem, cls = make()
        engine = DimensionEngine(problem, cls, F(1, 4))
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine)
        reference = ReferenceAgnosticLearner(problem, cls, horizon, learner.alpha, engine)
        assert len(reference.pool) == size
        rng = random.Random(horizon)
        rounds = [
            (rng.randrange(problem.num_instances), rng.randrange(2)) for _ in range(horizon)
        ]
        assert_matches_reference(learner, reference, rounds)

    def test_plays_past_the_old_pool_budget(self):
        # At T = 12 the dimension-3 pool holds 494,651 experts, which a budget
        # of 100,000 experts once refused; the state plays it in groups.
        problem, cls = binary_triples()
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=12)
        assert (learner.dimension, pool_size(12, 3, grid_points(learner))) == (3, 494_651)
        assert learner.eta == math.sqrt(2 * math.log(494_651) / 12)
        rng = random.Random(12)
        stream = [(rng.randrange(3), rng.randrange(2)) for _ in range(12)]
        report = run_game(problem, cls, learner, stream)
        assert len(report.rounds) == learner.round == 12
        assert all(sum(r.mixture.weights) == 1 for r in report.rounds)
        groups = learner.snapshot()[0]
        assert len(groups) <= 4 * len({space for space, _ in groups})

    def test_deterministic_replay(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        stream = [(0, 1), (0, 0), (0, 1), (0, 1)]
        runs = []
        for _ in range(2):
            learner = AgnosticLearner(problem, cls, F(1, 4), horizon=4)
            played = []
            for x, y in stream:
                played.append(learner.predict(x))
                learner.update(x, y)
            runs.append(played)
        assert runs[0] == runs[1]


class TestSnapshots:
    @given(st.randoms(use_true_random=False))
    def test_restore_replays_like_a_fresh_learner(self, rng):
        # Play a prefix, snapshot, play another continuation, restore, and
        # play the first continuation: the mixtures and state are a fresh
        # learner's on prefix + first continuation. Classes of dimension
        # 0 are skipped: their agnostic pool is one expert that never updates.
        problem, cls = small_random_instance(rng)
        while not Mrsoa(problem, cls, F(1, 4)).dimension:
            problem, cls = small_random_instance(rng)
        target = rng.randrange(cls.num_hypotheses)

        def examples(count):
            out = []
            for _ in range(count):
                x = rng.randrange(problem.num_instances)
                y = rng.randrange(problem.num_labels)
                out.append((x, y, problem.loss[y][cls.table[target][x]]))
            return out

        prefix, first, other = examples(rng.randint(0, 3)), examples(3), examples(3)
        horizon = len(prefix) + 3
        constants = HypothesisClass(
            tuple((z,) * problem.num_instances for z in range(problem.num_predictions))
        )
        makers = (
            lambda: Mrsoa(problem, cls, F(1, 4)),
            lambda: AgnosticLearner(problem, cls, F(1, 4), horizon),
            lambda: FollowTheLeader(problem, constants),
            lambda: UniformLearner(problem, cls),
        )
        for make in makers:
            fresh = make()
            expected = play(fresh, prefix + first)[len(prefix):]
            learner = make()
            play(learner, prefix)
            state = learner.snapshot()
            play(learner, other)
            learner.restore(state)
            assert play(learner, first) == expected
            assert learner.snapshot() == fresh.snapshot()

    def test_a_snapshot_after_predict_answers_each_label(self):
        # Restoring an agnostic learner's snapshot taken right after predict
        # and updating with one label, then again with another, leaves it
        # where a fresh learner that played that label is: the same summed
        # weights, next mixtures and state.
        rng = random.Random(7)
        cases = [make_builtin(n) for n in UNIT_GAP] + [agnostic_enum_class(rng) for _ in range(6)]
        for problem, cls in cases:
            engine = DimensionEngine(problem, cls, F(1, 4))
            prefix = [
                (rng.randrange(problem.num_instances), rng.randrange(problem.num_labels), None)
                for _ in range(2)
            ]
            x = rng.randrange(problem.num_instances)

            def make():
                learner = AgnosticLearner(problem, cls, F(1, 4), 4, engine=engine)
                play(learner, prefix)
                return learner

            learner = make()
            mixture = learner.predict(x)
            predicted = learner.snapshot()
            for y in range(problem.num_labels):
                learner.restore(predicted)
                learner.update(x, y)
                fresh = make()
                assert fresh.predict(x) == mixture
                fresh.update(x, y)
                assert state_weights(learner) == state_weights(fresh)
                for z in range(problem.num_instances):
                    assert learner.predict(z) == fresh.predict(z)
                assert learner.snapshot() == fresh.snapshot()

    def test_restored_weights_are_a_fresh_replay_of_the_prefix(self):
        # After restoring a snapshot taken right after predict, or one taken
        # between rounds, the state and its summed weights are those of a
        # fresh learner that played the same prefix, whatever was played in
        # between.
        problem, cls = binary_pairs()
        engine = DimensionEngine(problem, cls, F(1, 4))
        rng = random.Random(12)
        rounds = [(rng.randrange(2), rng.randrange(2), None) for _ in range(5)]

        def fresh(prefix):
            learner = AgnosticLearner(problem, cls, F(1, 4), 5, engine=engine)
            play(learner, prefix)
            return learner

        learner = fresh(rounds[:2])
        between = learner.snapshot()
        x, y, _ = rounds[2]
        learner.predict(x)
        predicted = learner.snapshot()
        learner.update(x, y)
        play(learner, rounds[3:])
        learner.restore(predicted)
        learner.update(x, y)
        replayed = fresh(rounds[:3])
        assert learner.snapshot() == replayed.snapshot()
        assert state_weights(learner) == state_weights(replayed)
        play(learner, rounds[3:])
        learner.restore(between)
        assert learner.round == 2
        replayed = fresh(rounds[:2])
        assert learner.snapshot() == replayed.snapshot()
        assert state_weights(learner) == state_weights(replayed)

    def test_restoring_a_snapshot_between_rounds_drops_the_prediction(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=2)
        between = learner.snapshot()
        learner.predict(0)
        learner.restore(between)
        with pytest.raises(ProtocolError, match="update without a matching predict"):
            learner.update(0, 0)


class TestBaselines:
    def test_ftl_breaks_ties_low_and_tracks_leader(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = FollowTheLeader(problem, cls)
        assert learner.predict(0).weights == (F(1), F(0))
        learner.update(0, 1)
        assert learner.predict(0).weights == (F(0), F(1))
        learner.update(0, 0)
        # cumulative losses tie again: lowest index wins
        assert learner.predict(0).weights == (F(1), F(0))

    def test_ftl_refuses_a_label_out_of_range(self):
        # A negative label would wrap to the last label's losses, one past the
        # end would be a bare IndexError.
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = FollowTheLeader(problem, cls)
        for y in (-1, problem.num_labels):
            with pytest.raises(ValidationError, match=f"label index {y} out of range"):
                learner.update(0, y)
        assert learner.snapshot() == (F(0), F(0))

    def test_ftl_sums_integers_over_the_loss_denominator(self):
        # The totals are ints over the loss table's denominator, and the play
        # is their first argmin, as it is of the Fraction sums.
        problem, cls = make_builtin("multilabel:pair-constants")
        den = problem.scaled_loss[0]
        learner = FollowTheLeader(problem, cls)
        totals = [F(0)] * problem.num_predictions
        for y in (1, 3, 0, 2, 1, 1, 3):
            best = totals.index(min(totals))
            assert learner.predict(0) == Mixture.dirac(problem.num_predictions, best)
            learner.update(0, y)
            totals = [total + v for total, v in zip(totals, problem.loss[y])]
            assert all(type(total) is int for total in learner.snapshot())
            assert [F(total, den) for total in learner.snapshot()] == totals
        assert den == 2

    @pytest.mark.parametrize("index", [0.0, 1.0, True, False])
    def test_learners_refuse_an_index_that_is_not_an_int(self, index):
        # Each raised a bare TypeError, or read a bool as 0 or 1; the learners
        # check their indices by the rule a stream's rounds are checked by.
        problem, cls = make_builtin("multiclass:binary-constants")
        gamma = F(1, 4)

        def agnostic_update(y):
            learner = AgnosticLearner(problem, cls, gamma, 2)
            learner.predict(0)
            learner.update(0, y)

        calls = [
            ("instance", lambda i: Mrsoa(problem, cls, gamma).predict(i)),
            ("instance", lambda i: Mrsoa(problem, cls, gamma).update(i, 0)),
            ("instance", lambda i: AgnosticLearner(problem, cls, gamma, 2).predict(i)),
            ("label", lambda i: Mrsoa(problem, cls, gamma).update(0, i)),
            ("label", agnostic_update),
            ("label", lambda i: FollowTheLeader(problem, cls).update(0, i)),
        ]
        for name, call in calls:
            with pytest.raises(ValidationError, match=f"^{name} index {index!r} is not an int$"):
                call(index)

    def test_ftl_requires_constant_hypotheses(self):
        problem = make_problem(
            ("x0", "x1"), (0, 1), (0, 1), [[0, 1], [1, 0]], bound_c=1
        )
        problem, cls = validate_problem(
            problem, HypothesisClass(((0, 1), (1, 0)))
        )
        with pytest.raises(ValidationError, match="not constant"):
            FollowTheLeader(problem, cls)

    def test_uniform_learner_is_constant(self):
        problem, cls = make_builtin("hilbert:orthonormal")
        learner = UniformLearner(problem, cls)
        before = learner.predict(0)
        learner.update(0, 2)
        assert learner.predict(0) == before == Mixture.uniform(3)
