"""Domain type construction, validation, and the small exact helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from smdim.core import (
    HypothesisClass,
    Mixture,
    Problem,
    ValidationError,
    VersionSpace,
    expected_loss,
    format_rational,
    make_problem,
    make_stream,
    parse_rational,
    validate_problem,
    validate_stream,
)

F = Fraction


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

    def test_table_index_out_of_range(self):
        problem = make_problem(("x0",), (0, 1), (0, 1), [[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            validate_problem(problem, HypothesisClass(((0,), (2,))))

    def test_duplicate_hypothesis_rows_rejected(self):
        with pytest.raises(ValidationError):
            HypothesisClass(((0,), (0,)))

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

    def test_support(self):
        assert Mixture.of((F(1, 2), 0, F(1, 2))).support() == (0, 2)


class TestStreams:
    def test_all_or_none_thresholds(self):
        make_stream([(0, 1), (0, 0)])
        make_stream([(0, 1, F(1, 2)), (0, 0, 0)])
        with pytest.raises(ValidationError):
            make_stream([(0, 1, F(1, 2)), (0, 0)])

    def test_validate_stream_reports_one_based_round(self):
        problem, _ = binary_problem()
        stream = make_stream([(0, 0), (0, 5)])
        with pytest.raises(ValidationError, match="round 2"):
            validate_stream(problem, stream)

    def test_threshold_above_bound_rejected(self):
        problem, _ = binary_problem()
        stream = make_stream([(0, 0, 2)])
        with pytest.raises(ValidationError):
            validate_stream(problem, stream)


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
