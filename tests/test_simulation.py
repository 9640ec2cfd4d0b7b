"""Game harness: exact regret accounting, transcripts, sign-stream averages."""

import json
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from smdim import adversaries, core, dimensions, learners, simulation
from smdim.adversaries import ShatteringAdversary, find_sqrt_witness, rademacher_stream
from smdim.core import (
    HypothesisClass,
    Mixture,
    ProtocolError,
    RealizabilityError,
    ThresholdedExample,
    ValidationError,
    VersionSpace,
    expected_loss,
    make_problem,
)
from smdim.dimensions import DimensionEngine
from smdim.instances import builtin_names, canonical_json, make_builtin
from smdim.learners import (
    AgnosticLearner,
    FollowTheLeader,
    Mrsoa,
    UniformLearner,
    loss_grid,
    pool_size,
)
from smdim.simulation import (
    SIGN_ENUM_CAP,
    TRANSCRIPT_COLUMNS,
    best_in_hindsight,
    exact_expectation_over_signs,
    run_game,
    transcript_rows,
)
from smdim.verify import gen_multiclass

from test_core import problems
from test_learners import UNIT_GAP, agnostic_enum_class

F = Fraction


def reference_expectation(problem, cls, make_stream_for_signs, learner_factory, rounds):
    """Per-stream replay: a fresh learner plays each sign stream through
    `run_game`, and the exact regrets are averaged."""
    total = F(0)
    for signs in product((1, -1), repeat=rounds):
        stream = make_stream_for_signs(signs)
        total += run_game(problem, cls, learner_factory(), list(stream)).regret
    return total / 2**rounds


def learner_factories(problem, cls, horizon):
    engine = DimensionEngine(problem, cls, F(1, 4))
    return (
        lambda: AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine),
        lambda: Mrsoa(problem, cls, engine=engine),
        lambda: FollowTheLeader(problem, cls),
        lambda: UniformLearner(problem, cls),
    )


class TestBestInHindsight:
    def test_majority_constant_wins(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        index, loss = best_in_hindsight(problem, cls, [(0, 0), (0, 1), (0, 0)])
        assert (index, loss) == (0, 1)

    def test_tie_goes_to_lowest_index(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        index, loss = best_in_hindsight(problem, cls, [(0, 0), (0, 1)])
        assert (index, loss) == (0, 1)

    def test_realizable_stream_has_zero_hindsight_loss(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        _, loss = best_in_hindsight(problem, cls, [(0, 1)] * 4)
        assert loss == 0

    @pytest.mark.parametrize(
        "stream, message",
        [
            # (-1, -1) once wrapped round to the last instance and label.
            ([(-1, -1)], "round 1: instance index -1 out of range"),
            ([(0, 0), (5, 0)], "round 2: instance index 5 out of range"),
            ([(0, -1)], "round 1: label index -1 out of range"),
            ([(0, 0), (0, 1), (0, 3, F(1))], "round 3: label index 3 out of range"),
            # A bool is an int in Python, and a float index reads the wrong row.
            ([(True, 0)], "round 1: instance index True is not an int"),
            ([(0, 0), (0, 1.0)], "round 2: label index 1.0 is not an int"),
            # A short element once raised IndexError.
            ([(0,)], r"round 1: stream element \(0,\) is not \(x, y\) or \(x, y, eps\)"),
            ([(0, 0), 5], r"round 2: stream element 5 is not \(x, y\) or \(x, y, eps\)"),
            ([[0, 0, None, 1]], r"round 1: stream element \[0, 0, None, 1\] is not \(x, y\)"),
        ],
    )
    def test_out_of_range_elements_are_refused_with_their_round(self, stream, message):
        problem, cls = make_builtin("multiclass:m=3")
        with pytest.raises(ValidationError, match=message):
            best_in_hindsight(problem, cls, stream)

    @pytest.mark.parametrize(
        "stream, message",
        [
            # c = 1: a threshold of 5 was once ignored, and hypothesis 0 named best.
            ([(0, 0), (0, 1, F(5))], r"^round 2: threshold 5 outside \[0, 1\]$"),
            ([(0, 0, "abc")], r"^round 1: not a rational literal: 'abc'$"),
            ([(0, 0, "1/2"), (0, 1)], r"^round 2: thresholds must be present"),
        ],
        ids=["threshold-above-c", "bad-literal", "mixed"],
    )
    def test_thresholds_are_checked_as_run_game_checks_them(self, stream, message):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match=message):
            best_in_hindsight(problem, cls, stream)
        with pytest.raises(ValidationError, match=message):
            run_game(problem, cls, UniformLearner(problem), stream)


@given(st.data())
def test_best_in_hindsight_equals_a_fraction_sum(data):
    problem = data.draw(problems(max_instances=3))
    rows = data.draw(
        st.sets(
            st.tuples(*[st.integers(0, problem.num_predictions - 1)] * problem.num_instances),
            min_size=1,
            max_size=5,
        )
    )
    cls = HypothesisClass(tuple(sorted(rows)))
    stream = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, problem.num_instances - 1), st.integers(0, problem.num_labels - 1)
            ),
            max_size=8,
        )
    )
    totals = [
        sum((problem.loss[y][cls.table[h][x]] for x, y in stream), F(0))
        for h in range(cls.num_hypotheses)
    ]
    best = min(range(cls.num_hypotheses), key=lambda h: (totals[h], h))
    assert best_in_hindsight(problem, cls, stream) == (best, totals[best])


class TestRunGame:
    def test_empty_stream(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [])
        assert report.num_rounds == 0
        assert report.cumulative == 0
        assert report.regret == 0

    def test_exact_report_matches_hand_fold(self):
        rng = random.Random(5)
        for _ in range(10):
            problem, cls = gen_multiclass(rng)
            stream = [
                (rng.randrange(problem.num_instances), rng.randrange(problem.num_labels))
                for _ in range(6)
            ]
            learner = UniformLearner(problem)
            report = run_game(problem, cls, learner, stream)
            mixture = Mixture.uniform(problem.num_predictions)
            cumulative = sum(
                (expected_loss(problem, mixture, y) for _, y in stream), F(0)
            )
            assert report.cumulative == cumulative
            _, hindsight = best_in_hindsight(problem, cls, stream)
            assert report.regret == cumulative - hindsight
            assert report.per_round_expected() == tuple(
                expected_loss(problem, mixture, y) for _, y in stream
            )

    def test_exact_runs_are_identical(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        stream = [(0, 1), (0, 0), (0, 1)]
        first = run_game(problem, cls, FollowTheLeader(problem, cls), stream)
        second = run_game(problem, cls, FollowTheLeader(problem, cls), stream)
        assert first == second

    def test_rounds_prefix_of_stream(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [(0, 1)] * 5, rounds=2)
        assert report.num_rounds == 2

    def test_validation_errors(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = UniformLearner(problem)
        with pytest.raises(ValidationError, match="mode"):
            run_game(problem, cls, learner, [(0, 0)], mode="sampled")
        with pytest.raises(ValidationError, match="stream has"):
            run_game(problem, cls, learner, [(0, 0)], rounds=3)
        with pytest.raises(ValidationError, match="rounds is required"):
            run_game(problem, cls, learner, object())

    def test_errors_carry_round_numbers(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = Mrsoa(problem, cls, F(1, 4))
        stream = [(0, 0, F(0)), (0, 1, F(0))]
        with pytest.raises(RealizabilityError, match="round 2: stream not eps_t-realizable"):
            run_game(problem, cls, learner, stream)

    def test_protocol_errors_carry_round_numbers(self):
        problem, cls = make_builtin("multiclass:binary-constants")

        class OneShot:
            def __init__(self):
                self.used = False

            def next_instance(self):
                if self.used:
                    raise ProtocolError("certificate depth exhausted")
                self.used = True
                return 0

            def observe_mixture(self, mixture):
                return 0, None

        learner = UniformLearner(problem)
        with pytest.raises(ProtocolError, match="round 2:"):
            run_game(problem, cls, learner, OneShot(), rounds=2)


class TestMonteCarlo:
    def test_dirac_plays_sample_exactly(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        stream = [(0, 1), (0, 0), (0, 1)]
        report = run_game(
            problem, cls, FollowTheLeader(problem, cls), stream,
            mode="monte-carlo", seed=3, trials=50,
        )
        assert report.mode == "monte-carlo"
        assert report.mc_mean == pytest.approx(float(report.cumulative))
        assert report.mc_stderr == 0.0

    def test_sampled_mean_near_exact_value(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        stream = [(0, 1)] * 20
        report = run_game(
            problem, cls, UniformLearner(problem), stream,
            mode="monte-carlo", seed=0, trials=2000,
        )
        assert report.mc_stderr > 0
        assert abs(report.mc_mean - float(report.cumulative)) <= 5 * report.mc_stderr

    def test_same_seed_same_estimate(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        stream = [(0, 1)] * 5
        runs = [
            run_game(problem, cls, UniformLearner(problem), stream,
                     mode="monte-carlo", seed=11, trials=64)
            for _ in range(2)
        ]
        assert runs[0].mc_mean == runs[1].mc_mean
        assert runs[0].mc_stderr == runs[1].mc_stderr

    def test_trials_floor(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match="trials"):
            run_game(problem, cls, UniformLearner(problem), [(0, 0)],
                     mode="monte-carlo", trials=1)

    @pytest.mark.parametrize(
        "trials, message",
        [
            (1, r"^trials must be >= 2, got 1$"),
            # 2.5 once played every round, then raised TypeError from range.
            (2.5, r"^trials must be an int, got 2.5$"),
            (True, r"^trials must be an int, got True$"),
        ],
    )
    def test_trials_are_checked_before_the_first_predict(self, trials, message):
        problem, cls = make_builtin("multiclass:binary-constants")
        learner = UniformLearner(problem)
        predicted = []

        def predict(x):
            predicted.append(x)
            return Mixture.uniform(problem.num_predictions)

        learner.predict = predict
        with pytest.raises(ValidationError, match=message):
            run_game(problem, cls, learner, [(0, 0), (0, 1)], mode="monte-carlo", trials=trials)
        assert predicted == []


class TestReportsAndTranscripts:
    def test_to_doc_is_canonical_json_material(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [(0, 1), (0, 0)])
        doc = report.to_doc(problem)
        text = canonical_json(doc)
        parsed = json.loads(text)
        # both constants suffer loss 1 on this stream, so regret is exactly 0
        assert parsed["cumulative_expected_loss"] == "1"
        assert parsed["hindsight_loss"] == "1"
        assert parsed["regret"] == "0"
        assert parsed["rounds"][0]["mixture"] == ["1/2", "1/2"]
        assert "seed" not in parsed

    def test_monte_carlo_doc_has_sampling_fields(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [(0, 1)],
                          mode="monte-carlo", seed=7, trials=16)
        doc = report.to_doc(problem)
        assert doc["seed"] == 7 and doc["trials"] == 16
        assert isinstance(doc["mc_mean"], float)

    def test_transcript_rows_shape(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [(0, 1, F(1, 3))])
        rows = transcript_rows(problem, report)
        assert rows[0] == list(TRANSCRIPT_COLUMNS)
        assert rows[1] == ["1", "x0", "1", "1/3", "1/2;1/2", "1/2"]

    def test_transcript_empty_eps_cell(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        report = run_game(problem, cls, UniformLearner(problem), [(0, 0)])
        assert transcript_rows(problem, report)[1][3] == ""


class TestSignEnumeration:
    def test_zero_rounds_is_zero(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        value = exact_expectation_over_signs(
            problem, cls, lambda signs: (), lambda: UniformLearner(problem), 0
        )
        assert value == 0

    def test_one_round_uniform_pays_half(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        witness = find_sqrt_witness(problem, cls)
        value = exact_expectation_over_signs(
            problem,
            cls,
            lambda signs: rademacher_stream(witness, signs),
            lambda: UniformLearner(problem),
            1,
        )
        assert value == F(1, 2)

    def test_cap_enforced(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match="cap"):
            exact_expectation_over_signs(
                problem, cls, lambda s: (), lambda: UniformLearner(problem),
                SIGN_ENUM_CAP + 1,
            )

    def test_walk_matches_per_stream_replay_on_unit_gap_builtins(self):
        for name in UNIT_GAP:
            problem, cls = make_builtin(name)
            witness = find_sqrt_witness(problem, cls)
            for horizon in range(1, 8):
                for factory in learner_factories(problem, cls, horizon):
                    args = (problem, cls, lambda s: rademacher_stream(witness, s), factory, horizon)
                    assert exact_expectation_over_signs(*args) == reference_expectation(*args)

    def test_walk_matches_per_stream_replay_on_every_builtin_with_a_witness(self):
        # The walk sums the loss in hindsight apart, as an integer over the
        # loss denominator; the aggregated mixtures are made from integers.
        for name in builtin_names():
            problem, cls = make_builtin(name)
            witness = find_sqrt_witness(problem, cls)
            if witness is None:
                continue
            engine = DimensionEngine(problem, cls, F(1, 4))
            for horizon in range(1, 7):
                args = (
                    problem,
                    cls,
                    lambda s: rademacher_stream(witness, s),
                    lambda: AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine),
                    horizon,
                )
                assert exact_expectation_over_signs(*args) == reference_expectation(*args), (name, horizon)

    def test_walk_matches_per_stream_replay_on_random_classes(self):
        rng = random.Random(43)
        for _ in range(20):
            problem, cls = agnostic_enum_class(rng)
            witness = find_sqrt_witness(problem, cls)
            for horizon in (3, 4, 5):
                engine = DimensionEngine(problem, cls, F(1, 4))
                args = (
                    problem,
                    cls,
                    lambda s: rademacher_stream(witness, s),
                    lambda: AgnosticLearner(problem, cls, F(1, 4), horizon, engine=engine),
                    horizon,
                )
                assert exact_expectation_over_signs(*args) == reference_expectation(*args)

    def test_equal_prefixes_need_not_be_contiguous(self):
        # Reversed signs put streams with equal prefixes apart in sign order,
        # and truncating by the count of +1 signs makes some streams proper
        # prefixes of others.
        problem, cls = make_builtin("multiclass:binary-constants")
        witness = find_sqrt_witness(problem, cls)

        def streams(signs):
            return rademacher_stream(witness, signs[::-1])[: 1 + signs.count(1)]

        for horizon in (3, 4, 5):
            for factory in learner_factories(problem, cls, horizon):
                args = (problem, cls, streams, factory, horizon)
                assert exact_expectation_over_signs(*args) == reference_expectation(*args)

    def test_streams_longer_than_the_recursion_limit(self):
        # The walk keeps its own stack, so a callback may return streams of
        # any length, as with per-stream replay.
        problem, cls = make_builtin("multiclass:binary-constants")

        def streams(signs):
            return [(0, 1 if signs[0] == 1 else 0)] * 1200 + [(0, 0 if signs[1] == 1 else 1)]

        args = (problem, cls, streams, lambda: FollowTheLeader(problem, cls), 2)
        assert exact_expectation_over_signs(*args) == reference_expectation(*args)

    def test_learner_errors_carry_round_numbers(self):
        # Threshold 0 on label 0 and then on label 1 is unrealizable. Streams
        # with signs (+1, -1, ...) switch labels at round 4, after the streams
        # with signs (+1, +1, ...) have been played to their end; those with
        # first sign -1 switch at round 3, but come later in sign order. A
        # horizon-2 agnostic learner runs out of rounds at round 3.
        problem, cls = make_builtin("multiclass:binary-constants")
        engine = DimensionEngine(problem, cls, F(1, 4))

        def streams(signs):
            if signs[0] == -1:
                return [(0, y, F(0)) for y in (0, 0, 1, 0)]
            return [(0, y, F(0)) for y in (0, 0, 0, 0 if signs[1] == 1 else 1)]

        for error, factory, prefix in (
            (RealizabilityError, lambda: Mrsoa(problem, cls, engine=engine), "round 4: "),
            (
                ProtocolError,
                lambda: AgnosticLearner(problem, cls, F(1, 4), 2, engine=engine),
                "round 3: ",
            ),
        ):
            args = (problem, cls, streams, factory, 4)
            with pytest.raises(error) as expected:
                reference_expectation(*args)
            with pytest.raises(error) as got:
                exact_expectation_over_signs(*args)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith(prefix)

    def test_branches_on_one_instance_share_one_predict(self, monkeypatch):
        # The sign streams all play the witness's one instance, so the two
        # children of a prefix share its prediction: 2^T - 1 predictions for
        # 2^(T+1) - 2 updates. An update restricts by one engine mask per
        # threshold of its round; on the two-instance class of all four
        # functions (dimension 2), a round's experts far outnumber its
        # thresholds.
        every_function = (
            make_problem(("x0", "x1"), (0, 1), (0, 1), [["0", "1"], ["1", "0"]]),
            HypothesisClass(((0, 0), (0, 1), (1, 0), (1, 1))),
        )
        calls = Counter()

        class Counting(AgnosticLearner):
            def predict(self, x):
                calls["predict"] += 1
                return super().predict(x)

            def update(self, x, y, eps=None):
                # The experts with a timepoint at this round number
                # pool_size(T, d, k) - pool_size(T - 1, d, k); at d >= 1 they
                # use all k grid thresholds, at d = 0 there are none.
                calls["update"] += 1
                d, k = self.dimension, len(loss_grid(self.alpha, self.problem.bound_c))
                updating = pool_size(self.horizon, d, k) - pool_size(self.horizon - 1, d, k)
                before = calls["restrict"]
                super().update(x, y, eps)
                assert calls["restrict"] - before <= (k if updating else 0)
                calls["experts"] += updating

        for problem, cls in (make_builtin("multiclass:binary-constants"), every_function):
            witness = find_sqrt_witness(problem, cls)
            engine = DimensionEngine(problem, cls, F(1, 4))

            def restrict(*args, engine=engine):
                calls["restrict"] += 1
                return DimensionEngine.restrict(engine, *args)

            monkeypatch.setattr(engine, "restrict", restrict)
            for horizon in (3, 4, 5):
                calls.clear()
                args = (
                    problem,
                    cls,
                    lambda s: rademacher_stream(witness, s),
                    lambda: Counting(problem, cls, F(1, 4), horizon, engine=engine),
                    horizon,
                )
                value = exact_expectation_over_signs(*args)
                assert (calls["predict"], calls["update"]) == (2**horizon - 1, 2 ** (horizon + 1) - 2)
                assert 0 < calls["restrict"] <= calls["experts"]
                if cls is every_function[1]:
                    assert calls["restrict"] < calls["experts"]
                assert value == reference_expectation(*args)

    def test_siblings_on_different_instances_predict_apart(self):
        # Round t plays instance (1 - s_t) / 2 with the label (1 - s_{t+1}) / 2,
        # so a branch point has children on both instances, some sharing one:
        # the walk predicts once per branch point and instance.
        problem = make_problem(("x0", "x1"), (0, 1), (0, 1), [["0", "1"], ["1", "0"]])
        cls = HypothesisClass(((0, 0), (1, 1)))

        def streams(signs):
            bits = [(1 - s) // 2 for s in signs]
            return [(bits[t], bits[(t + 1) % len(bits)]) for t in range(len(bits))]

        for horizon in (1, 2, 3, 4):
            for factory in learner_factories(problem, cls, horizon):
                args = (problem, cls, streams, factory, horizon)
                assert exact_expectation_over_signs(*args) == reference_expectation(*args)

    def test_the_walk_returns_a_fraction_at_every_horizon(self):
        # The sums are integers until the end; at T = 0 there is no loss to
        # sum, and an int total over an int denominator would be a float 0.0.
        problem, cls = make_builtin("multiclass:binary-constants")
        witness = find_sqrt_witness(problem, cls)
        engine = DimensionEngine(problem, cls, F(1, 4))
        for horizon in range(0, 7):
            for factory in (
                lambda: AgnosticLearner(problem, cls, F(1, 4), max(horizon, 1), engine=engine),
                lambda: UniformLearner(problem),
            ):
                args = (problem, cls, lambda s: rademacher_stream(witness, s), factory, horizon)
                value = exact_expectation_over_signs(*args)
                assert type(value) is Fraction
                assert value == reference_expectation(*args)

    def test_the_walk_sums_integers_one_fraction_per_mixture_denominator(self, monkeypatch):
        # Each node's loss, times the streams through it, goes into one
        # integer per mixture denominator: no Fraction per node, and no
        # expected_loss call (the module does not bind it). The truncated
        # streams make some streams proper prefixes of others, so a node's
        # streams through it and its streams ending there differ.
        problem, cls = make_builtin("regression:three-point")
        witness = find_sqrt_witness(problem, cls)
        engine = DimensionEngine(problem, cls, F(1, 4))

        def streams(signs):
            return rademacher_stream(witness, signs)[: 1 + signs.count(1)]

        args = (problem, cls, streams, lambda: AgnosticLearner(problem, cls, F(1, 4), 5, engine=engine), 5)
        expected = reference_expectation(*args)
        dens, made = set(), []
        real_loss = simulation.scaled_round_loss

        def loss_spy(problem, mixture, y):
            value = real_loss(problem, mixture, y)
            dens.add(mixture.den)
            return value

        def fraction_spy(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(simulation, "scaled_round_loss", loss_spy)
        monkeypatch.setattr(simulation, "Fraction", fraction_spy)
        assert not hasattr(simulation, "expected_loss")
        assert exact_expectation_over_signs(*args) == expected
        assert len(dens) > 1
        assert len(made) == len(dens) + 1

    def test_the_walk_makes_each_sign_stream_once(self, monkeypatch):
        # rademacher_stream hands the walk the witness's examples, and the
        # walk's make_stream makes each stream: 2^T calls over the 2^T sign
        # vectors, whichever module a call goes through.
        made = []
        real = core.make_stream

        def spy(items, problem=None):
            made.append(items)
            return real(items, problem)

        for module in (core, simulation, adversaries):
            monkeypatch.setattr(module, "make_stream", spy, raising=False)
        problem, cls = make_builtin("multiclass:binary-constants")
        witness = find_sqrt_witness(problem, cls)
        exact_expectation_over_signs(
            problem, cls, lambda s: rademacher_stream(witness, s), lambda: UniformLearner(problem), 4
        )
        assert len(made) == 2**4

    def test_a_stream_callback_that_returns_no_stream_is_refused(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        made = []
        with pytest.raises(ValidationError, match="^a stream must be iterable, got None$"):
            exact_expectation_over_signs(
                problem, cls, lambda signs: None, lambda: made.append(1), 2
            )
        assert made == []

    @pytest.mark.parametrize("missing", ["snapshot", "restore"])
    def test_a_learner_without_snapshot_and_restore_is_refused(self, missing):
        # The walk once raised a bare AttributeError at the first branch point.
        problem, cls = make_builtin("multiclass:binary-constants")
        witness = find_sqrt_witness(problem, cls)

        class Bad(UniformLearner):
            pass

        setattr(Bad, missing, None)
        message = rf"^the sign walk needs the learner's {missing}\(\), and Bad has none$"
        for rounds in (0, 2):
            with pytest.raises(ValidationError, match=message):
                exact_expectation_over_signs(
                    problem, cls, lambda s: rademacher_stream(witness, s), lambda: Bad(problem), rounds
                )


def test_a_prediction_that_is_not_a_mixture_is_refused():
    # A tuple of weights once raised a bare AttributeError on `.scaled`, in
    # run_game and in the sign walk, which reads the mixture's denominator,
    # and on `.den` against the certificate adversary.
    problem, cls = make_builtin("multiclass:binary-constants")
    witness = find_sqrt_witness(problem, cls)
    cert = DimensionEngine(problem, cls, F(1, 4)).certificate(VersionSpace.full(2))

    class Tuples(UniformLearner):
        def predict(self, x):
            return (F(1, 2), F(1, 2))

    message = r"^prediction \(Fraction\(1, 2\), Fraction\(1, 2\)\) is not a Mixture$"
    with pytest.raises(ValidationError, match=message):
        run_game(problem, cls, Tuples(problem), [(0, 1)])
    with pytest.raises(ValidationError, match=message):
        run_game(problem, cls, Tuples(problem), ShatteringAdversary(problem, cls, cert), rounds=1)
    with pytest.raises(ValidationError, match=message):
        exact_expectation_over_signs(
            problem, cls, lambda s: rademacher_stream(witness, s), lambda: Tuples(problem), 2
        )


def test_threshold_above_the_largest_loss_is_refused_before_the_learner_plays():
    # Declared bound 1, largest loss 1/2: the engine, the learner and the
    # stream check all read the caller's problem, so c = 1/2 for all three.
    problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "1/2"], ["1/2", "0"]], bound_c=1)
    cls = HypothesisClass(((0,), (1,)))
    engine = DimensionEngine(problem, cls, F(1, 8))
    assert engine.problem is problem
    assert engine.problem.bound_c == problem.bound_c == F(1, 2)
    learner = Mrsoa(problem, cls, engine=engine)
    calls = []
    learner.predict = lambda *args: calls.append(("predict", args))
    learner.update = lambda *args: calls.append(("update", args))
    with pytest.raises(ValidationError, match=r"^round 1: threshold 3/4 outside \[0, 1/2\]$"):
        run_game(problem, cls, learner, [(0, 0, "3/4")])
    assert calls == []


def test_a_stream_threshold_that_is_not_a_fraction_is_refused_before_the_learner_plays():
    # A ThresholdedExample was kept as given, so its float threshold once
    # reached the exact report as the round's eps, written out as "0.5". It
    # is parsed like a tuple's, and refused as a float.
    problem, cls = make_builtin("multiclass:binary-constants")
    learner = UniformLearner(problem)
    calls = []
    learner.predict = lambda *args: calls.append(("predict", args))
    with pytest.raises(ValidationError, match=r"^round 1: refusing float 0\.5: "):
        run_game(problem, cls, learner, [ThresholdedExample(0, 0, 0.5)])
    assert calls == []


ONE_ROUND = ["predict", "update"]


@pytest.mark.parametrize(
    "instance, feedback, message, plays",
    [
        (-1, (0, None), r"^round 2: instance index -1 out of range$", ONE_ROUND),
        (2, (0, None), r"^round 2: instance index 2 out of range$", ONE_ROUND),
        (0, (-1, None), r"^round 2: label index -1 out of range$", ONE_ROUND + ["predict"]),
        (0, (0, F(2)), r"^round 2: threshold 2 outside \[0, 1\]$", ONE_ROUND + ["predict"]),
        (0.0, (0, None), r"^round 2: instance index 0.0 is not an int$", ONE_ROUND),
        (False, (0, None), r"^round 2: instance index False is not an int$", ONE_ROUND),
        (0, (1.0, None), r"^round 2: label index 1.0 is not an int$", ONE_ROUND + ["predict"]),
        (0, (True, None), r"^round 2: label index True is not an int$", ONE_ROUND + ["predict"]),
        (0, (0, 0.5), r"^round 2: threshold 0.5 is not a Fraction$", ONE_ROUND + ["predict"]),
        (0, (0, "1/2"), r"^round 2: threshold '1/2' is not a Fraction$", ONE_ROUND + ["predict"]),
    ],
    ids=[
        "negative-instance", "instance-past-the-end", "negative-label", "threshold-above-c",
        "float-instance", "bool-instance", "float-label", "bool-label", "float-threshold",
        "string-threshold",
    ],
)
def test_an_adversary_out_of_range_is_refused_before_it_is_read(instance, feedback, message, plays):
    # Round 1 is valid; round 2's bad instance is refused before the learner
    # predicts on it, and a bad label or threshold before the loss or the
    # learner's update reads it (label -1 would wrap to the last label). An
    # index that is not an int, or a threshold that is not a Fraction, is
    # refused too: a float threshold once reached the exact report as 0.5.
    problem, cls = make_builtin("multiclass:binary-constants")

    class Stub:
        def __init__(self):
            self.round = 0

        def next_instance(self):
            self.round += 1
            return 0 if self.round == 1 else instance

        def observe_mixture(self, mixture):
            return (0, None) if self.round == 1 else feedback

    learner = UniformLearner(problem)
    calls = []
    predict, update = learner.predict, learner.update
    learner.predict = lambda *args: calls.append("predict") or predict(*args)
    learner.update = lambda *args: calls.append("update") or update(*args)
    with pytest.raises(ValidationError, match=message):
        run_game(problem, cls, learner, Stub(), rounds=2)
    assert calls == plays


@pytest.mark.parametrize(
    "call",
    [
        lambda p, c: run_game(p, c, UniformLearner(p), [(0, 1), (0, 1)]),
        lambda p, c: exact_expectation_over_signs(
            p, c, lambda signs: [(0, 1)] * len(signs), lambda: UniformLearner(p), 2
        ),
        find_sqrt_witness,
        FollowTheLeader,
        lambda p, c: best_in_hindsight(p, c, [(0, 1)]),
    ],
    ids=[
        "run_game",
        "exact_expectation_over_signs",
        "find_sqrt_witness",
        "FollowTheLeader",
        "best_in_hindsight",
    ],
)
def test_a_class_that_does_not_fit_the_problem_is_refused(call):
    # A negative index would wrap to the last prediction (run_game would then
    # name hypothesis 1 the best in hindsight, with loss 0), and a wider table
    # would be read past the problem's instances.
    problem, _ = make_builtin("multiclass")
    cases = [
        (((0,), (-1,)), "out-of-range index -1"),
        (((0,), (3,)), "out-of-range index 3"),
        (((0, 0), (1, 1)), "covers 2 instances, problem has 1"),
    ]
    for table, message in cases:
        with pytest.raises(ValidationError, match=message):
            call(problem, HypothesisClass(table))


@pytest.mark.parametrize(
    "stream, message",
    [
        # A bare int once raised TypeError from tuple(5).
        ([5], r"^round 1: stream element 5 is not \(x, y\) or \(x, y, eps\)$"),
        ([(0, 0), (0,)], r"^round 2: stream element \(0,\) is not \(x, y\) or \(x, y, eps\)$"),
        ([(0, 0), (0, 1), "01"], r"^round 3: stream element '01' is not \(x, y\)"),
        ([(0, 0, "1/2"), (0, 1, 0.5)], r"^round 2: refusing float 0.5"),
        ([(0, 0, "half")], r"^round 1: not a rational literal: 'half'$"),
    ],
    ids=["int", "short-tuple", "string", "float-threshold", "bad-literal"],
)
def test_a_malformed_stream_element_is_refused_with_its_round(stream, message):
    problem, cls = make_builtin("multiclass:binary-constants")
    with pytest.raises(ValidationError, match=message):
        run_game(problem, cls, UniformLearner(problem), stream)
    with pytest.raises(ValidationError, match=message):
        exact_expectation_over_signs(
            problem, cls, lambda signs: stream, lambda: UniformLearner(problem), 1
        )


def test_stream_elements_may_be_examples_tuples_or_lists():
    problem, cls = make_builtin("multiclass:binary-constants")
    mixed = [ThresholdedExample(0, 1, F(0)), (0, 1, "0"), [0, 1, 0]]
    report = run_game(problem, cls, UniformLearner(problem), mixed)
    assert [(r.x, r.y, r.eps) for r in report.rounds] == [(0, 1, F(0))] * 3


def test_each_round_is_checked_once(monkeypatch):
    # run_game checks every stream up front, and sums the hindsight totals
    # without checking the rounds again. The sign walk checks each distinct
    # step of its trie once, when a stream first meets it: for T = 3, the
    # 2 + 4 + 8 = 14 nodes, in the order the streams are made.
    checked = []
    real = core.check_round

    def spy(problem, t, x, y, eps):
        checked.append(t)
        real(problem, t, x, y, eps)

    monkeypatch.setattr(core, "check_round", spy)
    monkeypatch.setattr(simulation, "check_round", spy)
    problem, cls = make_builtin("multiclass:m=3")
    stream = [(0, 0), (0, 1), (0, 2), (0, 1)]
    report = run_game(problem, cls, UniformLearner(problem), stream)
    assert checked == [1, 2, 3, 4]
    assert (report.hindsight_index, report.hindsight_loss) == best_in_hindsight(problem, cls, stream)
    checked.clear()
    exact_expectation_over_signs(
        problem,
        cls,
        lambda signs: [(0, 0 if s == 1 else 2) for s in signs],
        lambda: UniformLearner(problem),
        3,
    )
    assert checked == [1, 2, 3, 3, 2, 3, 3] * 2


def test_mrsoa_on_a_stream_checks_each_round_with_two_calls_of_the_round_rule(monkeypatch):
    # make_stream and Mrsoa.update each check a round with one call of the
    # round rule. On valid input its inline path, Mrsoa.predict's index test
    # and run_game's loss read call no check_index, check_threshold or
    # exceeds. A first game warms the engine, so its mixtures are memoized.
    problem = make_problem(("x0", "x1"), (0, 1, 2), (0, 1, 2), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    cls = HypothesisClass(((0, 0), (0, 2), (2, 0), (1, 1)))
    kept = cls.table[1]
    rounds = ((0, 2), (1, 0), (1, 1), (0, 0), (1, 2), (0, 1))
    stream = [(x, y, str(problem.loss[y][kept[x]])) for x, y in rounds]
    engine = DimensionEngine(problem, cls, F(1, 4))
    expected = run_game(problem, cls, Mrsoa(problem, cls, engine=engine), stream)
    calls = Counter()

    def counted(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    for module in (core, dimensions, learners, simulation):
        for name in ("check_round", "check_index", "check_threshold", "exceeds"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    report = run_game(problem, cls, Mrsoa(problem, cls, engine=engine), stream)
    assert report == expected and report.rounds[-1].eps == F(1)
    assert set(calls) == {"check_round"} and calls["check_round"] <= 2 * len(stream)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((7, 0), r"^round 2: instance index 7 out of range$"),
        ((0, 5), r"^round 2: label index 5 out of range$"),
        ((0, 0, "2"), r"^round 2: threshold 2 outside \[0, 1\]$"),
        # Equal to the checked step (1, 0) of the earlier streams, as a key.
        ((True, 0), r"^round 2: instance index True is not an int$"),
        ((1, 0.0), r"^round 2: label index 0.0 is not an int$"),
    ],
    ids=["instance", "label", "threshold", "bool-equal-to-a-checked-step", "float-label"],
)
def test_a_bad_step_first_met_in_a_later_stream_is_refused_before_the_factory(bad, message):
    # Only the last of the four sign streams reaches the bad step: the first
    # three share their first round, and the second round of every earlier
    # stream is (1, 0) (with threshold 0 when the bad step has one). The walk
    # refuses it before the learner is made.
    problem = make_problem(("x0", "x1"), (0, 1), (0, 1), [["0", "1"], ["1", "0"]])
    cls = HypothesisClass(((0, 0), (0, 1), (1, 0), (1, 1)))
    good = (1, 0) if len(bad) == 2 else (1, 0, "0")
    first = (0, 0) if len(bad) == 2 else (0, 0, "0")

    def streams(signs):
        return [first, bad if signs == (-1, -1) else good]

    made = []
    with pytest.raises(ValidationError, match=message):
        exact_expectation_over_signs(problem, cls, streams, lambda: made.append(1), 2)
    assert made == []


@pytest.mark.parametrize("rounds", [True, 1.0, -1])
def test_round_counts_are_ints(rounds):
    problem, cls = make_builtin("multiclass:binary-constants")
    if rounds == -1:
        message = r"^rounds must be >= 0, got -1$"
    else:
        message = rf"^rounds must be an int, got {rounds!r}$"
    witness = find_sqrt_witness(problem, cls)
    with pytest.raises(ValidationError, match=message):
        run_game(problem, cls, UniformLearner(problem), [(0, 0), (0, 1)], rounds=rounds)
    with pytest.raises(ValidationError, match=message):
        exact_expectation_over_signs(
            problem,
            cls,
            lambda signs: rademacher_stream(witness, signs),
            lambda: UniformLearner(problem),
            rounds,
        )


def test_records_equal_their_constructor_built_twins():
    # run_game and make_stream write each record's fields at once; equality,
    # hash and repr are those of the same record built by its constructor.
    problem, cls = make_builtin("multiclass:binary-constants")
    stream = core.make_stream([(0, 0, "1/2"), [0, 0, 0], ThresholdedExample(0, 1, F(1))])
    for example in stream:
        twin = ThresholdedExample(example.x, example.y, example.eps)
        assert (example, hash(example), repr(example)) == (twin, hash(twin), repr(twin))
        assert vars(example) == vars(twin)
    for mode in ("exact", "monte-carlo"):
        report = run_game(problem, cls, Mrsoa(problem, cls, F(1, 4)), stream, mode=mode, trials=5)
        for r in report.rounds:
            twin = simulation.RoundRecord(r.index, r.x, r.y, r.eps, r.mixture, r.expected)
            assert (r, hash(r), repr(r)) == (twin, hash(twin), repr(twin))
            assert vars(r) == vars(twin)
        twin = simulation.RegretReport(**vars(report))
        assert (report, hash(report), repr(report)) == (twin, hash(twin), repr(twin))
        assert vars(report) == vars(twin)
        assert replace(report, mode="x") == replace(twin, mode="x")
        assert pickle.loads(pickle.dumps(report)) == report
        with pytest.raises(FrozenInstanceError):
            report.rounds[0].expected = F(0)


def test_games_with_mrsoa_make_no_fraction_ordering(monkeypatch):
    # Thresholds, best responses and node values are compared as integers:
    # a thresholded stream and an adversary game against Mrsoa make no call
    # to Fraction's <, <=, > or >=.
    problem, cls = make_builtin("regression:three-point")
    engine = DimensionEngine(problem, cls, F(1, 4))
    certificate = engine.certificate(VersionSpace.full(cls.num_hypotheses))
    assert certificate.depth >= 1
    stream = [(0, 0, problem.bound_c), (0, 1, problem.bound_c), (0, 2, F(1, 2))]
    calls = Counter()
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        real = getattr(Fraction, name)

        def spy(a, b, real=real, name=name):
            calls[name] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, spy)
    played = run_game(problem, cls, Mrsoa(problem, cls, engine=engine), stream)
    adversary = ShatteringAdversary(problem, cls, certificate)
    learner = Mrsoa(problem, cls, engine=engine)
    forced = run_game(problem, cls, learner, adversary, rounds=certificate.depth)
    assert calls == Counter()
    assert played.num_rounds == 3
    assert forced.regret >= F(1, 4) * certificate.depth


def test_the_uniform_learner_plays_one_mixture():
    problem, cls = make_builtin("multiclass:m=3")
    learner = UniformLearner(problem, cls)
    plays = {id(learner.predict(x)) for x in range(problem.num_instances) for _ in range(2)}
    assert len(plays) == 1
    assert learner.predict(0) == Mixture.uniform(problem.num_predictions)
