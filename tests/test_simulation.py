"""Game harness: exact regret accounting, transcripts, sign-stream averages."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from smdim.adversaries import find_sqrt_witness, rademacher_stream
from smdim.core import (
    HypothesisClass,
    Mixture,
    ProtocolError,
    RealizabilityError,
    ThresholdedExample,
    ValidationError,
    expected_loss,
    make_problem,
)
from smdim.dimensions import DimensionEngine
from smdim.instances import canonical_json, make_builtin
from smdim.learners import AgnosticLearner, FollowTheLeader, Mrsoa, UniformLearner
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
    # A ThresholdedExample is kept as given, so its float threshold once
    # reached the exact report as the round's eps, written out as "0.5".
    problem, cls = make_builtin("multiclass:binary-constants")
    learner = UniformLearner(problem)
    calls = []
    learner.predict = lambda *args: calls.append(("predict", args))
    with pytest.raises(ValidationError, match=r"^round 1: threshold 0.5 is not a Fraction$"):
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
    ],
    ids=["run_game", "exact_expectation_over_signs", "find_sqrt_witness", "FollowTheLeader"],
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
