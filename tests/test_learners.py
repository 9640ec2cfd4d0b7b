"""Learner behavior: minimax play, version-space bookkeeping, expert pools, MW."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from smdim import learners
from smdim.adversaries import find_sqrt_witness
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
    ExpertId,
    FollowTheLeader,
    Mrsoa,
    UniformLearner,
    aggregate_mixture,
    build_expert_pool,
    loss_grid,
    pool_size,
)
from smdim.simulation import run_game
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


class ReferenceAgnosticLearner:
    """The per-expert multiplicative weights that `AgnosticLearner` groups:
    one Fraction weight and one mixture per expert, each reweighted by
    Fraction(exp(-eta * loss / c)) of its own expected loss."""

    def __init__(self, problem, cls, horizon, alpha, engine):
        self.problem, self.engine = problem, engine
        full = to_mask(range(cls.num_hypotheses))
        self.pool = build_expert_pool(horizon, engine.dim_members(full), alpha, problem.bound_c)
        self.eta = math.sqrt(2.0 * math.log(len(self.pool)) / horizon)
        self.weights = [F(1)] * len(self.pool)
        self.spaces = [full] * len(self.pool)
        self.round = 0

    def predict(self, x):
        self.mixtures = [self.engine.mixture(space, x) for space in self.spaces]
        total = sum(self.weights)
        return Mixture(tuple(
            sum(w * m.weights[z] for w, m in zip(self.weights, self.mixtures)) / total
            for z in range(self.problem.num_predictions)
        ))

    def update(self, x, y, eps=None):
        self.round += 1
        for i, mixture in enumerate(self.mixtures):
            loss = expected_loss(self.problem, mixture, y)
            if loss:
                self.weights[i] *= F(math.exp(-self.eta * float(loss / self.problem.bound_c)))
        for i, ident in enumerate(self.pool):
            if self.round in ident.timepoints:
                threshold = ident.thresholds[ident.timepoints.index(self.round)]
                kept = self.engine.restrict(self.spaces[i], x, y, threshold)
                if kept:
                    self.spaces[i] = kept


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
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError):
            Mrsoa(problem, cls, GammaValue.strict_zero())

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

    def test_pool_matches_formula(self):
        pool = build_expert_pool(4, 1, F(1, 2), F(1))
        assert len(pool) == 13
        assert pool[0] == ExpertId((), ())
        assert len({e for e in pool}) == 13

    def test_pool_within_published_bound(self):
        # pool size <= (2cT/alpha)^d for d >= 1 on these parameters
        for horizon, d, alpha, c in ((4, 1, F(1, 2), F(1)), (6, 1, F(1, 6), F(1)), (5, 2, F(1), F(2))):
            grid = loss_grid(alpha, c)
            size = pool_size(horizon, d, len(grid))
            assert size <= (2 * c * horizon / alpha) ** d

    def test_budget_enforced_before_enumeration(self):
        with pytest.raises(BudgetError):
            build_expert_pool(30, 3, F(1, 30), F(1))

    def test_budget_checked_before_the_grid_is_built(self, monkeypatch):
        # alpha = 1/10**9 would make a grid of a billion Fractions.
        built = []
        monkeypatch.setattr(learners, "loss_grid", lambda alpha, c: built.append((alpha, c)))
        with pytest.raises(BudgetError):
            build_expert_pool(3, 1, F(1, 10**9), F(1))
        # Only experts with timepoints read the grid.
        assert build_expert_pool(3, 0, F(1, 10**9), F(1)) == (ExpertId((), ()),)
        assert built == []

    def test_alpha_range_checked(self):
        with pytest.raises(ValidationError):
            build_expert_pool(4, 1, F(0), F(1))
        with pytest.raises(ValidationError):
            build_expert_pool(4, 1, F(2), F(1))
        with pytest.raises(ValidationError):
            build_expert_pool(4, 1, F(-1), F(0))

    def test_zero_loss_bound_takes_any_alpha(self):
        # c = 0: the grid is {0} whatever alpha > 0 is.
        for alpha in (F(1, 3), F(2)):
            pool = build_expert_pool(3, 1, alpha, F(0))
            assert pool == (ExpertId((), ()),) + tuple(ExpertId((t,), (F(0),)) for t in (1, 2, 3))

    def test_learners_with_equal_parameters_share_one_pool(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        first = AgnosticLearner(problem, cls, F(1, 4), horizon=4)
        second = AgnosticLearner(problem, cls, F(1, 4), horizon=4, engine=first.engine)
        other = AgnosticLearner(problem, cls, F(1, 4), horizon=4, alpha=F(1, 2))
        assert second.pool is first.pool
        assert first.pool == build_expert_pool(4, 1, F(1, 4), F(1))
        assert other.pool == build_expert_pool(4, 1, F(1, 2), F(1))

    def test_expert_id_validation(self):
        with pytest.raises(ValidationError):
            ExpertId((2, 1), (F(0), F(0)))
        with pytest.raises(ValidationError):
            ExpertId((1,), (F(0), F(0)))


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
    def test_pool_uses_default_alpha_one_over_horizon(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=4)
        assert learner.alpha == F(1, 4)
        assert learner.dimension == 1
        assert len(learner.pool) == pool_size(4, 1, len(loss_grid(F(1, 4), F(1))))
        assert learner.eta == math.sqrt(2 * math.log(len(learner.pool)) / 4)

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
        assert all(learner._spaces)

    def test_weights_follow_exact_exp_factors(self):
        # Each expert's weight is multiplied by Fraction(exp(-eta * loss / c))
        # of its own mixture's expected loss, and kept exactly at zero loss.
        # Experts are replayed independently with Mrsoa; c = 3/4 here.
        problem, cls = three_quarter_constants()
        engine = DimensionEngine(problem, cls, F(1, 4))
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3, alpha=F(1, 4), engine=engine)
        stream = [(0, 0), (0, 0), (0, 1)]
        experts = [(ident, Mrsoa(problem, cls, engine=engine)) for ident in learner.pool]
        zero_losses = 0
        for t, (x, y) in enumerate(stream, start=1):
            before = list(learner.weights)
            learner.predict(x)
            learner.update(x, y)
            for i, (ident, expert) in enumerate(experts):
                loss = expected_loss(problem, expert.predict(x), y)
                if loss == 0:
                    zero_losses += 1
                    assert learner.weights[i] == before[i]
                else:
                    factor = F(math.exp(-learner.eta * float(loss / problem.bound_c)))
                    assert learner.weights[i] == before[i] * factor
                if t in ident.timepoints:
                    expert.update(x, y, ident.thresholds[ident.timepoints.index(t)])
        assert zero_losses > 0

    def test_zero_eta_keeps_weights(self):
        # A one-hypothesis class has dimension 0, so the pool is the single
        # empty expert and eta = sqrt(2 ln 1 / T) = 0.
        problem, _ = make_builtin("multiclass:binary-constants")
        learner = AgnosticLearner(problem, HypothesisClass(((0,),)), F(1, 4), horizon=2)
        assert learner.eta == 0.0
        learner.predict(0)
        learner.update(0, 1)  # loss 1 against the Dirac on prediction 0
        assert learner.weights == [F(1)]

    def test_grid_threshold_above_c_keeps_the_space(self):
        # alpha = 1/3 does not divide c = 3/4, so the grid ends at 1 > c; an
        # expert thresholding there keeps its whole version space, and plays
        # exactly like the expert with no timepoints.
        problem, cls = three_quarter_constants()
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3)
        assert loss_grid(learner.alpha, problem.bound_c)[-1] == F(1)
        for y in (0, 1, 1):
            assert sum(learner.predict(0).weights) == 1
            learner.update(0, y)
        top = [
            i for i, e in enumerate(learner.pool) if e.thresholds and max(e.thresholds) == F(1)
        ]
        assert top
        for i in top:
            assert learner.weights[i] == learner.weights[0]

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
        assert len(learner.pool) == 3
        report = run_game(problem, cls, learner, [(0, 1)])
        assert report.rounds[0].mixture == Mixture.uniform(2)
        assert report.regret == F(3, 8)

    def test_zero_loss_bound(self):
        # c = 0: nothing is shatterable at gamma > 0, so the pool is the
        # single empty expert, eta is 0 and the regret is 0.
        problem, cls = zero_loss_constants()
        learner = AgnosticLearner(problem, cls, F(1, 4), horizon=3)
        assert (learner.alpha, learner.dimension, learner.eta) == (F(1, 3), 0, 0.0)
        assert learner.pool == (ExpertId((), ()),)
        report = run_game(problem, cls, learner, [(0, 0), (0, 1), (0, 1)])
        assert report.regret == 0
        assert learner.weights == [F(1)]

    def test_matches_per_expert_reference(self):
        # Grouping experts by version space, with integer weight numerators
        # over a shared power of two, plays the same mixtures and keeps the
        # same weights as per-expert Fraction MW, round by round.
        rng = random.Random(31)
        cases = [(make_builtin(n), range(1, 8)) for n in UNIT_GAP]
        cases.append((three_quarter_constants(), (1, 3)))
        cases += [(agnostic_enum_class(rng), (3, 4, 5)) for _ in range(20)]
        for (problem, cls), horizons in cases:
            engine = DimensionEngine(problem, cls, F(1, 4))
            for horizon in horizons:
                learner = AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine)
                reference = ReferenceAgnosticLearner(problem, cls, horizon, learner.alpha, engine)
                assert (learner.pool, learner.eta) == (reference.pool, reference.eta)
                for _ in range(horizon):
                    x = rng.randrange(problem.num_instances)
                    y = rng.randrange(problem.num_labels)
                    assert learner.predict(x) == reference.predict(x)
                    learner.update(x, y)
                    reference.update(x, y)
                    assert learner.weights == reference.weights

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
        # play the first continuation: the mixtures, weights and state are a
        # fresh learner's on prefix + first continuation. Classes of dimension
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
            assert getattr(learner, "weights", None) == getattr(fresh, "weights", None)


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
