"""Exact minimax solver tests, cross-checked against support enumeration.

The oracle solves min over the simplex of max of affine rows by a completely
different route: enumerate simplex vertices and every equalized subset of rows
on every support, solve the small linear systems with Fraction Gaussian
elimination, and take the best feasible point. The optimum of a convex
piecewise-linear function on a simplex is always among these points.
"""

import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from smdim.core import Mixture, ValidationError
from smdim.game import (
    AffineRow,
    GameSolution,
    best_response,
    kernel_value,
    solve_min_max,
    solve_scaled,
)

F = Fraction


def row(coeffs, offset=0):
    return AffineRow(tuple(F(c) for c in coeffs), F(offset))


def _gauss_solve(matrix, rhs):
    n = len(matrix)
    a = [list(r) + [v] for r, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def oracle_min_max(rows):
    n = len(rows[0].coefficients)

    def evaluate(mu):
        return max(
            sum(a * m for a, m in zip(r.coefficients, mu)) + r.offset for r in rows
        )

    best = None
    for j in range(n):
        value = evaluate(tuple(F(int(i == j)) for i in range(n)))
        if best is None or value < best:
            best = value
    for size in range(2, n + 1):
        for support in combinations(range(n), size):
            for subset in combinations(range(len(rows)), size):
                matrix = [
                    [rows[i].coefficients[j] for j in support] + [F(-1)]
                    for i in subset
                ]
                matrix.append([F(1)] * size + [F(0)])
                rhs = [-rows[i].offset for i in subset] + [F(1)]
                solution = _gauss_solve(matrix, rhs)
                if solution is None:
                    continue
                mu = [F(0)] * n
                for idx, j in enumerate(support):
                    mu[j] = solution[idx]
                if any(w < 0 for w in mu):
                    continue
                value = evaluate(tuple(mu))
                if value < best:
                    best = value
    return best


def test_two_row_equalization():
    # Equalize mu2 - 1/4 = mu1 under mu1 + mu2 = 1.
    rows = (row((0, 1), F(-1, 4)), row((1, 0)))
    sol = solve_min_max(rows)
    assert sol.value == F(3, 8)
    assert sol.mixture.weights == (F(3, 8), F(5, 8))
    assert oracle_min_max(rows) == F(3, 8)


def test_symmetric_binary_game():
    rows = (row((0, 1)), row((1, 0)))
    sol = solve_min_max(rows)
    assert sol.value == F(1, 2)
    assert sol.mixture.weights == (F(1, 2), F(1, 2))
    assert sol.tight_rows == (0, 1)


def test_single_row_picks_smallest_coefficient():
    sol = solve_min_max((row((3, 1, 2), 5),))
    assert sol.value == F(6)
    assert sol.mixture.weights[1] == 1


def test_a_solution_builds_its_mixture_once_when_read(monkeypatch):
    built = []
    real_settle = Mixture._settle
    monkeypatch.setattr(Mixture, "_settle", lambda mu, *args: built.append(mu) or real_settle(mu, *args))
    sol = solve_min_max((row((0, 1), F(-1, 4)), row((1, 0))))
    copied = pickle.loads(pickle.dumps(sol))
    assert sol.value == F(3, 8) and sol.tight_rows == (0, 1) and built == []
    assert sol.mixture is sol.mixture
    assert built == [sol.mixture]
    expected = GameSolution(F(3, 8), Mixture((F(3, 8), F(5, 8))), (0, 1))
    assert sol == expected == copied and hash(sol) == hash(expected)
    assert repr(sol) == repr(expected)


def test_a_solution_mixture_holds_integers_until_its_weights_are_read():
    mixture = solve_min_max((row((0, 1), F(-1, 4)), row((1, 0)))).mixture
    assert vars(mixture) == {"den": 8, "scaled": (3, 5)}
    assert len(mixture) == 2 and mixture.support() == (0, 1) and "weights" not in vars(mixture)
    assert mixture.weights == (F(3, 8), F(5, 8)) and vars(mixture)["weights"] is mixture.weights


def test_a_solution_is_immutable():
    sol = solve_min_max((row((0, 1)), row((1, 0))))
    given_mixture = GameSolution(F(1, 2), Mixture.uniform(2), (0, 1))
    for target in (sol, given_mixture):
        for name in ("value", "mixture", "tight_rows"):
            with pytest.raises(FrozenInstanceError):
                setattr(target, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(target, name)
    assert sol == given_mixture
    with pytest.raises(AttributeError, match="no attribute 'weights'"):
        sol.weights


def test_a_mixture_that_is_read_is_validated(monkeypatch):
    # A broken simplex that returns a negative numerator is caught when the
    # mixture is built from it.
    monkeypatch.setattr("smdim.game._simplex_max_sum", lambda matrix, rhs: ([2, -1], 1))
    sol = solve_scaled([[1, 1], [1, 1]], 1)
    with pytest.raises(ValidationError, match="negative mixture weight"):
        sol.mixture


def test_dominated_row_changes_nothing():
    base = (row((0, 1), F(-1, 4)), row((1, 0)))
    # Same coefficients as the first row with a smaller offset: dominated.
    extended = base + (row((0, 1), F(-1, 2)),)
    assert solve_min_max(extended).value == solve_min_max(base).value
    assert solve_min_max(extended).mixture == solve_min_max(base).mixture


@pytest.mark.parametrize(
    "rows, value, weights, tight",
    [
        # Optimal mixtures (0, 1/2 - a, 1/2, a) for a in [0, 1/2].
        (
            (
                row((1, 1, 0, 0)),
                row((1, 1, 0, 1)),
                row((1, 0, 1, 0)),
                row((1, 0, 0, 1)),
                row((0, 0, 0, 0)),
            ),
            F(1, 2),
            (F(0), F(1, 2), F(1, 2), F(0)),
            (0, 1, 2),
        ),
        # Optimal mixtures (0, 3/4, 1/4 - a, a) for a in [0, 1/4].
        (
            (row((0, 0, 1, 0)), row((1, 1, 0, 0), F(-1, 2)), row((1, 0, 1, 1)), row((1, 0, 0, 1))),
            F(1, 4),
            (F(0), F(3, 4), F(1, 4), F(0)),
            (0, 1, 2),
        ),
    ],
)
def test_degenerate_game_keeps_blands_pivots(rows, value, weights, tight):
    # Every optimal vertex gives the value; Bland's pivot sequence (lowest
    # entering column, lowest basic index on ratio ties) picks this mixture
    # and these tight rows.
    sol = solve_min_max(rows)
    assert sol.value == value == oracle_min_max(rows)
    assert sol.mixture.weights == weights
    assert sol.tight_rows == tight


def test_grid_search_brackets_the_value():
    grid_best = None
    for k in range(65):
        mu = (F(64 - k, 64), F(k, 64))
        value = max(mu[1] - F(1, 4), mu[0])
        if grid_best is None or value < grid_best:
            grid_best = value
    assert F(3, 8) <= grid_best <= F(3, 8) + F(1, 64)


def test_validation_errors():
    with pytest.raises(ValidationError):
        solve_min_max(())
    with pytest.raises(ValidationError):
        solve_min_max((row((1, 2)), row((1, 2, 3))))


def test_best_response_lowest_index_tie():
    mixture = Mixture.of((F(1, 2), F(1, 2)))
    rows = (row((0, 1)), row((1, 0)))
    index, value = best_response(mixture, rows)
    assert (index, value) == (0, F(1, 2))


def test_best_response_prefers_strictly_larger():
    mixture = Mixture.of((1, 0))
    rows = (row((0, 1)), row((1, 0)))
    index, value = best_response(mixture, rows)
    assert (index, value) == (1, F(1))


def test_mixture_width_must_match_rows():
    # Zipping the 2 weights against 3 coefficients would silently give 0.
    mixture = Mixture.of((1, 0))
    rows = (row((0, 1, 1)), row((0, 1, 0)))
    with pytest.raises(ValidationError):
        rows[0].value_at(mixture)
    with pytest.raises(ValidationError):
        best_response(mixture, rows)


_entry = st.integers(min_value=-8, max_value=8).flatmap(
    lambda num: st.sampled_from([1, 2, 4, 8]).map(lambda den: F(num, den))
)


@st.composite
def _row_sets(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=5))
    return tuple(
        AffineRow(
            tuple(draw(_entry) for _ in range(width)),
            draw(_entry),
        )
        for _ in range(count)
    )


@given(_row_sets())
def test_matches_support_enumeration_oracle(rows):
    assert solve_min_max(rows).value == oracle_min_max(rows)


@given(_row_sets())
def test_value_is_achieved_exactly(rows):
    sol = solve_min_max(rows)
    assert max(r.value_at(sol.mixture) for r in rows) == sol.value
    for i in sol.tight_rows:
        assert rows[i].value_at(sol.mixture) == sol.value


@given(_row_sets())
def test_weak_duality_against_vertices(rows):
    sol = solve_min_max(rows)
    width = len(rows[0].coefficients)
    for j in range(width):
        vertex = Mixture.dirac(width, j)
        assert max(r.value_at(vertex) for r in rows) >= sol.value


@given(_row_sets(), st.sampled_from([F(1, 2), F(2), F(3, 4)]))
def test_positive_scaling(rows, scale):
    scaled = tuple(
        AffineRow(tuple(scale * c for c in r.coefficients), scale * r.offset)
        for r in rows
    )
    assert solve_min_max(scaled).value == scale * solve_min_max(rows).value


@given(_row_sets(), st.sampled_from([F(-2), F(1, 8), F(5)]))
def test_offset_shift(rows, shift):
    shifted = tuple(AffineRow(r.coefficients, r.offset + shift) for r in rows)
    assert solve_min_max(shifted).value == solve_min_max(rows).value + shift


@given(_row_sets())
def test_deterministic(rows):
    first = solve_min_max(rows)
    second = solve_min_max(tuple(rows))
    assert first.value == second.value
    assert first.mixture == second.mixture
    assert first.tight_rows == second.tight_rows


@given(_row_sets(), st.sampled_from([1, 3, 8, 105]))
def test_any_common_denominator_gives_the_same_solution(rows, k):
    # The integer core over k times the least common denominator takes the
    # same pivots: the same value, mixture and tight rows.
    scale = 8 * k  # every entry's denominator divides 8
    entries = [[(c + r.offset) * scale for c in r.coefficients] for r in rows]
    assert all(v.denominator == 1 for row in entries for v in row)
    assert solve_scaled([[v.numerator for v in row] for row in entries], scale) == solve_min_max(rows)


@settings(max_examples=500)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-4, 4), min_size=width, max_size=width), min_size=1, max_size=6
        )
    ),
    st.integers(1, 12),
)
def test_a_kernel_value_is_the_solved_value(entries, scale):
    # Entries in -4..4, so rows and columns often tie.
    value = kernel_value(entries, scale)
    assert value is None or value == solve_scaled(entries, scale).value


def test_a_game_whose_learner_needs_three_predictions_has_no_kernel_value():
    # Rock-paper-scissors: value 0 only at the uniform mixture over all three
    # columns, while every two-column restriction is worth 1/3.
    rps = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert solve_scaled(rps, 1).value == 0
    assert kernel_value(rps, 1) is None


def test_a_crossing_of_rows_tied_at_the_kernel_column_proves_the_value():
    # The three-point game: column 1 has the least maximum, rows 0 and 2 tie
    # there, and only their uniform pair pays the value 1 at every column.
    entries = [[0, 1, 2], [0, -1, 0], [2, 1, 0]]
    assert kernel_value(entries, 1) == 1 == solve_scaled(entries, 1).value
    assert kernel_value(entries, 4) == F(1, 4)


def test_a_saddle_point_and_a_single_column_are_kernels():
    assert kernel_value([[3, 5], [1, 4]], 2) == F(3, 2)
    assert kernel_value([[3], [-1], [2]], 1) == 3


def unpruned_kernel_value(entries, scale):
    """`kernel_value` forming every column's row pairs, and the number of
    columns whose pairs `kernel_value` skips: those whose best pure row
    already pays the least value found so far. Returns (value, skipped)."""
    columns = list(zip(*entries))
    a = min(columns, key=max)
    num, den = max(a), 1
    skipped = 0
    for b in columns:
        v, w = max(map(min, a, b)), 1
        skipped += v * den >= num
        diffs = [y - x for x, y in zip(a, b)]
        for i, si in enumerate(diffs):
            if si < 0:
                for j, sj in enumerate(diffs):
                    if sj > 0 and (sj * a[i] - si * a[j]) * w > v * (sj - si):
                        v, w = sj * a[i] - si * a[j], sj - si
        if v * den < num * w:
            num, den = v, w
    for b in columns:
        diffs = [y - x for x, y in zip(a, b)]
        for i, si in enumerate(diffs):
            row = entries[i]
            if min(a[i], b[i]) * den == num and min(row) * den >= num:
                return Fraction(num, den * scale), skipped
            if si < 0:
                for j, sj in enumerate(diffs):
                    if sj > 0 and (sj * a[i] - si * a[j]) * den == num * (sj - si):
                        paid = min(sj * x - si * y for x, y in zip(row, entries[j]))
                        if paid * den >= num * (sj - si):
                            return Fraction(num, den * scale), skipped
    return None, skipped


def check_kernel_against_unpruned(games):
    """Assert `kernel_value` equals the unpruned kernel on every (entries,
    scale) in `games`; returns (number of None results, columns skipped)."""
    nones = skipped = 0
    for entries, scale in games:
        value, skips = unpruned_kernel_value(entries, scale)
        assert kernel_value(entries, scale) == value
        nones += value is None
        skipped += skips
    return nones, skipped


def test_the_kernel_skips_columns_but_not_its_value_on_dense_games():
    # Dense integer games of several shapes, wide entries so few rows or
    # columns tie, and -2..2 so many do.
    rng = random.Random(61)
    games = [
        ([[rng.randint(-spread, spread) for _ in range(width)] for _ in range(height)], scale)
        for height, width in ((1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (5, 5), (4, 7), (7, 4))
        for spread in (2, 40)
        for scale in (1, 8)
        for _ in range(40)
    ]
    nones, skipped = check_kernel_against_unpruned(games)
    assert nones > 0 and skipped > 0
