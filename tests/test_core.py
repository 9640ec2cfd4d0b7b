"""Domain type construction, validation, and the small exact helpers."""

import math
import pickle
import re
import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from smdim import core
from smdim.core import (
    Candidate,
    HypothesisClass,
    Mixture,
    Problem,
    ValidationError,
    VersionSpace,
    check_threshold,
    expected_loss,
    format_rational,
    format_value,
    largest,
    make_problem,
    make_stream,
    parse_rational,
    scaled_expected_loss,
    scaled_loss,
    validate_problem,
)
from smdim.adversaries import find_sqrt_witness, rademacher_stream
from smdim.dimensions import DimensionEngine, GammaValue, msdim, seqfat
from smdim.game import AffineRow
from smdim.instances import make_builtin, multilabel_instance, regression_instance, vector_instance
from smdim.learners import UniformLearner, aggregate_mixture
from smdim.simulation import run_game

F = Fraction

# Small mixed denominators, and big ones: a dyadic one past 2**60, and a
# large odd one.
DENOMINATORS = (1, 2, 3, 5, 7, 12, 2**61, 3**41)


@st.composite
def mixtures(draw, width):
    """A Mixture of `width` weights: either dyadic over 2**62, cut at random
    points, or random small fractions over mixed denominators, normalized."""
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, 2**62), min_size=width - 1, max_size=width - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [2**62])]
        return Mixture(tuple(F(p, 2**62) for p in parts))
    raw = draw(
        st.lists(
            st.builds(F, st.integers(0, 9), st.sampled_from(DENOMINATORS)),
            min_size=width,
            max_size=width,
        )
    )
    if not any(raw):
        raw[0] = F(1)
    total = sum(raw)
    return Mixture(tuple(w / total for w in raw))


@st.composite
def problems(draw, max_instances=1):
    """A Problem of 1-3 labels and 1-4 predictions whose losses have mixed
    denominators, some past 2**60."""
    num_labels = draw(st.integers(1, 3))
    num_predictions = draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(0, 2**62), st.sampled_from(DENOMINATORS))
    loss = [[draw(entry) for _ in range(num_predictions)] for _ in range(num_labels)]
    num_instances = draw(st.integers(1, max_instances))
    return make_problem(
        tuple(range(num_instances)), tuple(range(num_labels)), tuple(range(num_predictions)), loss
    )


def binary_problem():
    problem = make_problem(
        ("x0",), (0, 1), (0, 1), [[0, 1], [1, 0]], bound_c=1
    )
    cls = HypothesisClass(((0,), (1,)))
    return validate_problem(problem, cls)


class TestParseRational:
    def test_fraction_strings(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-1/2") == F(-1, 2)

    def test_decimal_strings_convert_exactly(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("0.1") == F(1, 10)

    def test_integers_and_fractions_pass_through(self):
        assert parse_rational(3) == F(3)
        assert parse_rational(F(2, 7)) == F(2, 7)

    def test_floats_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational(0.1)

    def test_bools_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational("three quarters")
        with pytest.raises(ValidationError):
            parse_rational("1/0")

    def test_format_beyond_the_int_digit_limit(self):
        # More digits than sys.get_int_max_str_digits() allows str() to write.
        num, den = 10**5200 + 7, 3**10900
        assert len(format_rational(F(10**5001))) == 5002

        def value(digits):
            # int() of the text would hit the same limit: read it in chunks.
            total = 0
            for i in range(0, len(digits), 500):
                chunk = digits[i:i + 500]
                total = total * 10 ** len(chunk) + int(chunk)
            return total

        text = format_rational(F(-num, den))
        top, bottom = text.split("/")
        assert top[0] == "-" and (value(top[1:]), value(bottom)) == (num, den)
        assert len(top) > 5000 and len(bottom) > 5000

    def test_format_round_trip(self):
        for value in (F(0), F(1, 3), F(-5, 2), F(7)):
            assert parse_rational(format_rational(value)) == value

    def test_format_value_names_what_repr_cannot_print(self):
        for value in (True, "0", None, [0], F(1, 2), 10**100):
            assert format_value(value) == repr(value)
        huge = 10**5000
        for value, shown in (
            (huge, "<int>"), (F(huge), "<Fraction>"), ([F(1), F(-huge)], "<list>"), ({"a": huge}, "<dict>"),
        ):
            assert format_value(value) == shown
        with pytest.raises(ValidationError, match=r"^cannot interpret <list> as a rational$"):
            parse_rational([F(huge)])


class TestProblem:
    def test_ragged_loss_rejected(self):
        with pytest.raises(ValidationError):
            make_problem(("x0",), (0, 1), (0, 1), [[0, 1], [1]])

    def test_negative_loss_rejected(self):
        with pytest.raises(ValidationError, match="negative loss"):
            make_problem(("x0",), (0, 1), (0, 1), [[0, "-1"], [1, 0]])

    def test_loss_above_declared_bound_rejected(self):
        with pytest.raises(ValidationError, match="exceeds declared bound"):
            make_problem(("x0",), (0, 1), (0, 1), [[0, 2], [1, 0]], bound_c=1)

    def test_bound_tightened_to_max_entry(self):
        problem = make_problem(("x0",), (0, 1), (0, 1), [[0, 1], [1, 0]], bound_c=5)
        assert problem.bound_c == 1
        assert problem.declared_bound == 5
        cls = HypothesisClass(((0,), (1,)))
        checked, checked_cls = validate_problem(problem, cls)
        assert checked is problem and checked_cls is cls
        assert make_problem(("x0",), (0,), (0,), [[0]]).bound_c == 0
        # bound_c is worked out, never passed.
        with pytest.raises(TypeError):
            Problem(("x0",), (0,), (0,), ((F(0),),), F(1), bound_c=F(1))

    @pytest.mark.parametrize(
        "instances, labels, predictions, loss, message",
        [
            ((), (0,), (0,), ((F(0),),), "no instances"),
            (("x0",), (), (0,), (), "no labels"),
            (("x0",), (0,), (), ((),), "no predictions"),
            (("x0",), (0,), (0,), ((1,),), "is not a Fraction"),
        ],
    )
    def test_problem_checks_itself_when_built(
        self, instances, labels, predictions, loss, message
    ):
        with pytest.raises(ValidationError, match=message):
            Problem(instances, labels, predictions, loss, declared_bound=F(1))

    def test_the_declared_bound_is_a_fraction(self):
        loss = ((F(0), F(1)),)
        with pytest.raises(ValidationError, match=r"^declared bound 1.0 is not a Fraction$"):
            Problem(("x0",), (0,), (0, 1), loss, declared_bound=1.0)

    def test_per_item_checks_make_no_fraction_ordering(self, monkeypatch):
        # Signs come from numerators and bounds are cross-multiplied ints,
        # with the messages a Fraction comparison gave.
        calls = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, name, lambda a, b, name=name: calls.append(name))
        problem = make_problem(("x0",), (0, 1), (0, 1), [["0", "3/4"], ["1/3", "0"]])
        assert problem.bound_c == F(3, 4) == problem.declared_bound
        declared = make_problem(("x0",), (0,), (0, 1), [["2/3", "1/2"]], bound_c="2/3")
        assert declared.bound_c == F(2, 3)
        assert Candidate(0, F(0)).threshold == 0
        gamma = GammaValue.of(F(1, 4))
        passes = [gamma.passes(v) for v in (F(1, 4), F(1, 5), F(2, 7), F(-1))]
        strict = [GammaValue(F(0)).passes(v) for v in (F(0), F(1, 9), F(-1, 9))]
        for call, message in (
            (
                lambda: make_problem(("x0",), (0,), (0,), [["-1/2"]]),
                r"^negative loss at \[0\]\[0\]: -1/2$",
            ),
            (
                lambda: make_problem(("x0",), (0,), (0, 1), [["0", "3/2"]], bound_c="4/3"),
                r"^loss 3/2 at \[0\]\[1\] exceeds declared bound 4/3$",
            ),
            (lambda: Candidate(0, F(-1, 3)), r"^negative candidate threshold -1/3$"),
            (lambda: GammaValue(F(-1, 3)), r"^negative gamma -1/3$"),
        ):
            with pytest.raises(ValidationError, match=message):
                call()
        assert calls == []
        assert passes == [True, False, True, False]
        assert strict == [False, True, False]

    def test_bound_c_is_found_by_the_checking_pass(self, monkeypatch):
        # One exceeds call per entry, plus one against the bound for each
        # entry that raises the largest so far; bound_c is that largest.
        calls = []
        real = core.exceeds
        monkeypatch.setattr(core, "exceeds", lambda a, b: calls.append((a, b)) or real(a, b))
        loss = tuple(tuple(F(abs(y - z), 4) for z in range(5)) for y in range(5))
        problem = Problem(("x0",), tuple(range(5)), tuple(range(5)), loss, declared_bound=F(1))
        assert len(calls) == 25 + 4
        assert problem.bound_c == F(1) == largest(v for row in loss for v in row)
        # A negative bound is exceeded by the first entry, and an entry over
        # the bound fails before a later negative one.
        for bound, rows, message in (
            (F(-1), ((F(0), F(1)),), r"^loss 0 at \[0\]\[0\] exceeds declared bound -1$"),
            (F(1, 2), ((F(0), F(1)), (F(-1), F(0))), r"^loss 1 at \[0\]\[1\] exceeds declared bound 1/2$"),
        ):
            with pytest.raises(ValidationError, match=message):
                Problem(("x0",), tuple(range(len(rows))), (0, 1), rows, declared_bound=bound)

    def test_table_index_out_of_range(self):
        problem = make_problem(("x0",), (0, 1), (0, 1), [[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            validate_problem(problem, HypothesisClass(((0,), (2,))))
        # A misfit names the first hypothesis at fault, and its instance.
        wide = make_problem((0, 1), (0, 1), (0, 1), [[0, 1], [1, 0]])
        cls = HypothesisClass(((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ValidationError, match=r"^hypothesis 1 predicts out-of-range index 2 at x=1$"):
            validate_problem(wide, cls)
        with pytest.raises(ValidationError, match=r"^hypothesis 0 covers 2 instances, problem has 1$"):
            validate_problem(problem, cls)

    def test_duplicate_hypothesis_rows_rejected(self):
        with pytest.raises(ValidationError):
            HypothesisClass(((0,), (0,)))

    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "non-int index True"),
            (1.0, "non-int index 1.0"),
            (-1, "out-of-range index -1"),
        ],
    )
    def test_a_table_entry_is_a_nonnegative_int(self, entry, message):
        # True once passed as prediction 1 and 1.0 reached a TypeError. Row 1
        # equals row 0 when the entry is True or 1.0, so the entry is refused
        # before the duplicate check could name the rows.
        with pytest.raises(ValidationError, match=f"^hypothesis 1 predicts {message} at x=1$"):
            HypothesisClass(((0, 1), (0, entry)))

    def test_the_pair_check_reads_no_table_entry(self):
        class Unreadable:
            def __getattribute__(self, name):
                raise AssertionError(f"table read: {name}")

        cls = HypothesisClass(((0, 1), (1, 0), (1, 1)))
        object.__setattr__(cls, "table", Unreadable())
        fits = make_problem((0, 1), (0, 1), (0, 1), [[0, 1], [1, 0]])
        assert validate_problem(fits, cls) == (fits, cls)
        wider = make_problem((0, 1, 2), (0, 1), (0, 1), [[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match=r"^hypothesis 0 covers 2 instances, problem has 3$"):
            validate_problem(wider, cls)

    def test_the_recorded_shape_is_not_compared_shown_or_pickled_apart(self):
        cls = HypothesisClass(((0, 2), (1, 0)))
        assert (cls._width, cls._top) == (2, 2)
        flags = {f.name: (f.init, f.repr, f.compare) for f in fields(HypothesisClass)}
        assert flags == {
            "table": (True, True, True),
            "_width": (False, False, False),
            "_top": (False, False, False),
        }
        assert repr(cls) == "HypothesisClass(table=((0, 2), (1, 0)))"
        twin = HypothesisClass(((0, 2), (1, 0)))
        assert twin == cls and hash(twin) == hash(cls)
        copied = pickle.loads(pickle.dumps(cls))
        assert copied == cls and (copied._width, copied._top) == (2, 2)

    def test_loss_at_and_predict(self):
        problem, cls = binary_problem()
        assert cls.predict(1, 0) == 1
        assert problem.loss[0][cls.predict(1, 0)] == 1
        assert problem.loss[1][cls.predict(1, 0)] == 0


class TestVersionSpace:
    def test_of_sorts_and_dedups(self):
        assert VersionSpace.of([2, 0, 2, 1]).members == (0, 1, 2)

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(ValidationError):
            VersionSpace((1, 0))
        with pytest.raises(ValidationError):
            VersionSpace((0, 0))
        # A bool is an int in Python; (0, True) was once the space {0, 1}.
        for members in ((0, True), (False, 1)):
            with pytest.raises(ValidationError, match=r"^hypothesis index (True|False) is not an int$"):
                VersionSpace(members)

    def test_full_and_contains(self):
        space = VersionSpace.full(3)
        assert len(space) == 3
        assert 2 in space
        assert 3 not in space


class TestMixture:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Mixture.of((F(1, 2), F(1, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            Mixture.of((F(3, 2), F(-1, 2)))

    def test_dirac_and_uniform(self):
        assert Mixture.dirac(3, 1).weights == (0, 1, 0)
        assert Mixture.uniform(4).weights == (F(1, 4),) * 4
        for size, message in (
            (2.0, "must be an int, got 2.0"),
            (True, "must be an int, got True"),
            (0, "must be >= 1, got 0"),
        ):
            with pytest.raises(ValidationError, match=f"^uniform mixture size {message}$"):
                Mixture.uniform(size)

    def test_dirac_refuses_a_size_that_is_not_a_count(self):
        # True was the one-wide mixture (1,), and 2.0 a bare TypeError from range.
        for size, message in ((True, "must be an int, got True"), (2.0, "must be an int, got 2.0")):
            with pytest.raises(ValidationError, match=f"^dirac mixture size {message}$"):
                Mixture.dirac(size, 0)

    @pytest.mark.parametrize(
        "index, message",
        [(0.0, "is not an int"), (True, "is not an int"), (2, "out of range"), (-1, "out of range")],
    )
    def test_dirac_refuses_an_index_that_is_not_a_prediction(self, index, message):
        with pytest.raises(ValidationError, match=f"prediction index {index!r} {message}"):
            Mixture.dirac(2, index)

    def test_support(self):
        assert Mixture.of((F(1, 2), 0, F(1, 2))).support() == (0, 2)

    def test_integer_form_is_not_compared_shown_or_pickled_apart(self):
        mixture = Mixture((F(1, 3), F(0), F(2, 3)))
        assert (mixture.den, mixture.scaled) == (3, (1, 0, 2))
        flags = {f.name: (f.init, f.repr, f.compare) for f in fields(Mixture)}
        assert flags == {
            "weights": (True, True, True),
            "den": (False, False, False),
            "scaled": (False, False, False),
        }
        assert repr(mixture) == "Mixture(weights=(Fraction(1, 3), Fraction(0, 1), Fraction(2, 3)))"
        twin = Mixture.of(("1/3", 0, "2/3"))
        assert twin == mixture and hash(twin) == hash(mixture)
        copied = pickle.loads(pickle.dumps(mixture))
        assert copied == mixture and (copied.den, copied.scaled) == (3, (1, 0, 2))

    def test_a_list_of_weights_is_stored_as_a_tuple(self):
        # A list was kept as given: unequal to its tuple twin, unhashable, and
        # open to an append that `len` saw and `scaled` did not.
        mixture = Mixture([F(1, 2), F(1, 2)])
        assert mixture == Mixture.uniform(2) and hash(mixture) == hash(Mixture.uniform(2))
        with pytest.raises(AttributeError):
            mixture.weights.append(F(1))
        assert len(mixture) == 2 and mixture.scaled == (1, 1)

    @pytest.mark.parametrize(
        "numerators, den, message",
        [
            ((), 1, "mixture over an empty prediction space"),
            ((True, 0), 1, "mixture weight True is not a Fraction"),
            ((1.0, 0), 1, "mixture weight 1.0 is not a Fraction"),
            ((2, -1), 1, "negative mixture weight -1"),
            ((1, 0, -1), 3, "negative mixture weight -1/3"),
            ((1, 1), 3, "mixture weights sum to 2/3, expected 1"),
        ],
    )
    def test_from_scaled_refuses_what_the_weights_constructor_refuses(self, numerators, den, message):
        weights = tuple(F(s, den) if type(s) is int else s for s in numerators)
        for build in (lambda: Mixture.from_scaled(numerators, den), lambda: Mixture(weights)):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                build()

    def test_from_scaled_refuses_a_denominator_that_is_not_a_positive_int(self):
        # (0,) over 0 would sum to its denominator.
        for den, message in ((0, "must be >= 1, got 0"), (True, "must be an int, got True")):
            with pytest.raises(ValidationError, match=f"^mixture denominator {message}$"):
                Mixture.from_scaled((0,) if den == 0 else (1,), den)

    @pytest.mark.parametrize(
        "numerators, den", [((1,), 1), ((0, 3), 3), ((2, 4), 6), ((3, 0, 9), 12), ([1, 1, 2], 4)]
    )
    def test_a_mixture_from_integers_equals_its_fraction_twin(self, numerators, den):
        mixture = Mixture.from_scaled(numerators, den)
        twin = Mixture(tuple(F(s, den) for s in numerators))
        # Reduced by the gcd, as the twin puts its weights over their lcm.
        assert (mixture.den, mixture.scaled) == (twin.den, twin.scaled)
        copied = pickle.loads(pickle.dumps(mixture))
        assert "weights" not in vars(copied)
        assert mixture == twin == copied and twin == mixture
        assert hash(mixture) == hash(twin) == hash(copied)
        assert repr(mixture) == repr(twin) == repr(copied)

    @given(st.lists(st.integers(0, 2**70), min_size=1, max_size=5).filter(any))
    def test_from_scaled_equals_the_fraction_twin_on_any_numerators(self, numerators):
        den = sum(numerators)
        mixture = Mixture.from_scaled(numerators, den)
        twin = Mixture(tuple(F(s, den) for s in numerators))
        assert (mixture.den, mixture.scaled) == (twin.den, twin.scaled)
        assert mixture == twin and hash(mixture) == hash(twin)

    def test_dirac_and_uniform_are_made_from_integers(self):
        for mixture in (Mixture.dirac(3, 1), Mixture.uniform(3)):
            assert "weights" not in vars(mixture)
        assert (Mixture.uniform(3).den, Mixture.uniform(3).scaled) == (3, (1, 1, 1))
        assert (Mixture.dirac(3, 1).den, Mixture.dirac(3, 1).scaled) == (1, (0, 1, 0))

    def test_weights_are_built_once_on_first_read(self, monkeypatch):
        built = []
        real_build = Mixture.__getattr__
        monkeypatch.setattr(Mixture, "__getattr__", lambda mu, name: built.append(name) or real_build(mu, name))
        mixture = Mixture.from_scaled((1, 0, 2), 3)
        assert len(mixture) == 3 and mixture.support() == (0, 2) and built == []
        assert mixture.weights is mixture.weights == (F(1, 3), F(0), F(2, 3))
        assert built == ["weights"]
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            mixture.missing


class TestStreams:
    def test_all_or_none_thresholds(self):
        make_stream([(0, 1), (0, 0)])
        make_stream([(0, 1, F(1, 2)), (0, 0, 0)])
        with pytest.raises(ValidationError):
            make_stream([(0, 1, F(1, 2)), (0, 0)])

    @pytest.mark.parametrize(
        "items, t",
        [
            ([(0, 0, "1/2"), (0, 1)], 2),
            ([(0, 0), (0, 1), (0, 1, "1/2"), (0, 0, "1/2")], 3),
            ([(0, 0, F(0)), (0, 1, F(1)), (0, 1)], 3),
        ],
    )
    def test_a_mixed_stream_names_the_first_round_of_the_other_kind(self, items, t):
        # The kind is the first element's: with or without a threshold.
        message = f"^round {t}: thresholds must be present on every stream element or on none$"
        with pytest.raises(ValidationError, match=message):
            make_stream(items)

    def test_a_stream_checked_against_a_problem_reports_one_based_round(self):
        problem, _ = binary_problem()
        with pytest.raises(ValidationError, match="round 2"):
            make_stream([(0, 0), (0, 5)], problem)

    def test_threshold_above_bound_rejected(self):
        problem, _ = binary_problem()
        with pytest.raises(ValidationError):
            make_stream([(0, 0, 2)], problem)

    @pytest.mark.parametrize(
        "items, message",
        [
            # Round 1's bad instance is met before round 2's malformed element.
            ([(5, 0), (0,)], r"^round 1: instance index 5 out of range$"),
            ([(0, 0), (0,), (5, 0)], r"^round 2: stream element \(0,\) is not \(x, y\)"),
            # A bad literal in round 2 comes after round 1's bad label.
            ([(0, 7, "1/2"), (0, 0, "abc")], r"^round 1: label index 7 out of range$"),
            ([(0, 0, "1/2"), (0, 0, "abc")], r"^round 2: not a rational literal: 'abc'$"),
            # Within a round, the problem's checks come before the mixed-stream rule.
            ([(0, 0), (0, 1), (0, 3, F(1))], r"^round 3: label index 3 out of range$"),
            ([(0, 0), (0, 1), (0, 1, F(2))], r"^round 3: threshold 2 outside \[0, 1\]$"),
            ([(0, 0), (0, 1), (0, 1, F(1))], r"^round 3: thresholds must be present"),
        ],
    )
    def test_one_pass_reports_errors_in_round_order(self, items, message):
        problem, _ = binary_problem()
        with pytest.raises(ValidationError, match=message):
            make_stream(items, problem)

    def test_without_a_problem_only_the_elements_are_checked(self):
        problem, _ = binary_problem()
        items = [(5, 0, "1/2"), [0, 9, 2]]
        stream = make_stream(items)
        assert [(ex.x, ex.y, ex.eps) for ex in stream] == [(5, 0, F(1, 2)), (0, 9, F(2))]
        with pytest.raises(ValidationError, match="^round 1: instance index 5 out of range$"):
            make_stream(items, problem)

    @pytest.mark.parametrize(
        "eps, message",
        [
            (F(-1, 2), r"threshold -1/2 outside \[0, 1\]$"),
            (F(3, 2), r"threshold 3/2 outside \[0, 1\]$"),
            (F(1000001, 1000000), r"threshold 1000001/1000000 outside \[0, 1\]$"),
            (0.5, r"threshold 0.5 is not a Fraction$"),
            (1, r"threshold 1 is not a Fraction$"),
        ],
    )
    def test_one_threshold_rule_with_an_optional_round(self, eps, message):
        with pytest.raises(ValidationError, match="^" + message):
            check_threshold(eps, F(1))
        with pytest.raises(ValidationError, match="^round 3: " + message):
            check_threshold(eps, F(1), 3)

    def test_thresholds_at_the_ends_of_the_range_pass(self):
        for eps in (F(0), F(1, 3), F(2, 3)):
            check_threshold(eps, F(2, 3))
            check_threshold(eps, F(2, 3), 1)

    @pytest.mark.parametrize("items", [None, 5])
    def test_a_stream_that_is_not_iterable_is_refused(self, items):
        # Both once raised a bare TypeError from the loop over the items.
        problem, _ = binary_problem()
        message = f"^a stream must be iterable, got {items!r}$"
        for args in ((items,), (items, problem)):
            with pytest.raises(ValidationError, match=message):
                make_stream(*args)


class TestExpectedLossAndRestrict:
    def test_uniform_expected_loss(self):
        problem, _ = binary_problem()
        assert expected_loss(problem, Mixture.uniform(2), 0) == F(1, 2)

    def test_width_mismatch(self):
        problem, _ = binary_problem()
        with pytest.raises(ValidationError):
            expected_loss(problem, Mixture.uniform(3), 0)
        with pytest.raises(ValidationError):
            expected_loss(problem, Mixture.uniform(1), 0)

    @pytest.mark.parametrize("y", [-1, 3])
    def test_label_out_of_range(self, y):
        # -1 once read the last loss row; 3 raised a bare IndexError.
        problem, _ = make_builtin("multiclass:m=3")
        with pytest.raises(ValidationError, match=f"label index {y} out of range"):
            expected_loss(problem, Mixture.uniform(3), y)

    @pytest.mark.parametrize("y", [0.0, 1.0, True, False])
    def test_label_that_is_not_an_int(self, y):
        # A float once raised a bare TypeError from the loss table, and a bool
        # read a loss row; both are refused, as in a stream or a JSON document.
        problem, _ = make_builtin("multiclass:m=3")
        with pytest.raises(ValidationError, match=f"^label index {y!r} is not an int$"):
            expected_loss(problem, Mixture.uniform(3), y)

    @pytest.mark.parametrize("prediction", [(F(1, 2), F(1, 2)), [F(1, 2), F(1, 2)], None])
    def test_a_prediction_that_is_not_a_mixture_is_refused(self, prediction):
        # A tuple of weights once raised a bare AttributeError on `.scaled`.
        problem, _ = binary_problem()
        message = f"^prediction {re.escape(repr(prediction))} is not a Mixture$"
        for loss in (expected_loss, scaled_expected_loss):
            with pytest.raises(ValidationError, match=message):
                loss(problem, prediction, 0)


class TestScaledLoss:
    def test_common_denominator(self):
        assert scaled_loss(((F(1, 2), F(0)), (F(1, 3), F(1)))) == (6, ((3, 0), (2, 6)))

    def test_problem_caches_it_lazily_and_out_of_sight(self):
        problem, _ = binary_problem()
        twin, _ = binary_problem()
        before = (repr(problem), hash(problem), pickle.dumps(problem))
        assert "scaled_loss" not in problem.__dict__
        assert problem.scaled_loss == (1, ((0, 1), (1, 0)))
        assert problem.scaled_loss is problem.scaled_loss
        assert (repr(problem), hash(problem), pickle.dumps(problem)) == before
        assert problem == twin and hash(problem) == hash(twin)
        copied = pickle.loads(before[2])
        assert copied == problem and "scaled_loss" not in copied.__dict__
        assert copied.scaled_loss == problem.scaled_loss


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8))
def test_version_space_of_is_canonical(members):
    space = VersionSpace.of(members)
    assert space.members == tuple(sorted(set(members)))
    assert all(m in space for m in members)


@given(
    st.lists(
        st.integers(min_value=0, max_value=6).map(lambda n: F(n, 6)),
        min_size=1,
        max_size=4,
    )
)
def test_mixture_normalization_contract(raw):
    total = sum(raw)
    if total == 0:
        return
    mixture = Mixture.of(tuple(w / total for w in raw))
    assert sum(mixture.weights) == 1


@given(st.data())
def test_expected_loss_equals_a_fraction_sum(data):
    problem = data.draw(problems())
    mixture = data.draw(mixtures(problem.num_predictions))
    for y, row in enumerate(problem.loss):
        reference = sum((w * v for w, v in zip(mixture.weights, row)), F(0))
        assert expected_loss(problem, mixture, y) == reference


@given(st.data())
def test_mixture_sum_check_equals_a_fraction_sum(data):
    weights = list(data.draw(mixtures(data.draw(st.integers(1, 4)))).weights)
    weights[0] += data.draw(st.sampled_from((F(0), F(1, 2**61), F(-1, 3 * 2**61), F(1, 7))))
    weights = tuple(weights)
    if weights[0] < 0:
        with pytest.raises(ValidationError, match="negative mixture weight"):
            Mixture(weights)
    elif sum(weights) != 1:
        with pytest.raises(ValidationError, match=f"sum to {sum(weights)}, expected 1"):
            Mixture(weights)
    else:
        mixture = Mixture(weights)
        assert tuple(F(s, mixture.den) for s in mixture.scaled) == weights
        assert mixture.den == math.lcm(*(w.denominator for w in weights))


def _one_point():
    """A problem with one instance, label and prediction, its one hypothesis
    and its full version space."""
    return make_problem(("x0",), (0,), (0,), [[0]]), HypothesisClass(((0,),)), VersionSpace((0,))


def _binary():
    problem, cls = make_builtin("multiclass:binary-constants")
    return problem, cls, VersionSpace.full(cls.num_hypotheses)


def _binary_certificate():
    problem, cls, full = _binary()
    return DimensionEngine(problem, cls, F(1, 4)).certificate(full)


# Every error message that names a value a library caller passed, each fed a
# value whose str() raises past `sys.get_int_max_str_digits()`: an int of one
# more digit, or a Fraction or tuple holding one.
PAST_DIGIT_LIMIT = {
    "Problem declared bound": lambda big: Problem(("x0",), (0,), (0,), ((F(0),),), declared_bound=big),
    "Problem loss entry": lambda big: Problem(("x0",), (0,), (0,), ((big,),), declared_bound=F(1)),
    "VersionSpace member type": lambda big: VersionSpace((F(big),)),
    "VersionSpace negative member": lambda big: VersionSpace((-big,)),
    "Mixture weight type": lambda big: Mixture((big,)),
    "Mixture.from_scaled numerator type": lambda big: Mixture.from_scaled((F(big),), 1),
    "Mixture.from_scaled negative numerator": lambda big: Mixture.from_scaled((-big, big + 1), 1),
    "Mixture.from_scaled sum": lambda big: Mixture.from_scaled((big,), 1),
    "Candidate threshold type": lambda big: Candidate(0, big),
    "Candidate negative threshold": lambda big: Candidate(0, F(-big)),
    "make_stream not iterable": lambda big: make_stream(big),
    "make_stream element": lambda big: make_stream([big]),
    "check_threshold type": lambda big: check_threshold(big, F(1)),
    "check_count type": lambda big: core.check_count("rounds", F(big)),
    "check_count low": lambda big: core.check_count("rounds", -big),
    "validate_problem prediction": lambda big: validate_problem(_one_point()[0], HypothesisClass(((big,),))),
    "scaled_expected_loss mixture": lambda big: core.scaled_expected_loss(_one_point()[0], big, 0),
    "GammaValue type": lambda big: GammaValue(big),
    "certificate node space": lambda big: _binary_certificate().node(VersionSpace((big,)), 1),
    "certificate node depth": lambda big: _binary_certificate().node(VersionSpace((0, 1)), big),
    "seqfat gamma": lambda big: seqfat(*make_builtin("regression:three-point"), VersionSpace((0,)), -big),
    "space type": lambda big: DimensionEngine(*_binary()[:2], F(1, 4)).smdim(big),
    "space member range": lambda big: DimensionEngine(*_binary()[:2], F(1, 4)).smdim(VersionSpace((big,))),
    "binary loss": lambda big: msdim(
        make_problem(("x0",), (0,), (0,), [[big]]), HypothesisClass(((0,),)), VersionSpace((0,)), F(1, 4)
    ),
    "AffineRow coefficient": lambda big: AffineRow((big,), F(0)),
    "AffineRow offset": lambda big: AffineRow((F(0),), big),
    "aggregate_mixture weight type": lambda big: aggregate_mixture(((big,),), (Mixture.uniform(2),)),
    "aggregate_mixture weight sign": lambda big: aggregate_mixture((-big,), (Mixture.uniform(2),)),
    "aggregate_mixture entry": lambda big: aggregate_mixture((1,), (big,)),
    "run_game mode": lambda big: run_game(*_binary()[:2], UniformLearner(_binary()[0]), [(0, 0)], mode=big),
    "run_game rounds": lambda big: run_game(*_binary()[:2], UniformLearner(_binary()[0]), [(0, 0)], rounds=big),
    "rademacher_stream sign": lambda big: rademacher_stream(find_sqrt_witness(*_binary()[:2]), [big]),
    "regression_instance value": lambda big: regression_instance(hypothesis_values=(F(1, big),)),
    "multilabel_instance constant": lambda big: multilabel_instance(2, constants=((big, 0),)),
    "vector_instance norm": lambda big: vector_instance(p=big),
}


@pytest.mark.parametrize("call", PAST_DIGIT_LIMIT.values(), ids=PAST_DIGIT_LIMIT.keys())
def test_messages_name_values_past_the_int_digit_limit(call):
    # With no limit set (0), a 4301-digit int stands in for one past it.
    digits = sys.get_int_max_str_digits() or 4300
    with pytest.raises(ValidationError):
        call(10**digits)
