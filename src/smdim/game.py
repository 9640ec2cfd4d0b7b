"""Exact minimax over the prediction simplex against finitely many affine rows.

`solve_min_max` computes

    min over mixtures mu   of   max_i ( <coefficients_i, mu> + offset_i )

exactly. The minimax of a finite matrix game with constant row offsets reduces,
after shifting every entry positive, to the classic reciprocal linear program

    maximize 1.u   subject to   M u <= 1,  u >= 0      (M > 0 entrywise)

whose optimum S satisfies value = 1/S and mu* = u*/S. That LP has the origin
as a basic feasible point, so a single-phase dense tableau simplex suffices.
Pivoting follows Bland's rule (lowest-index entering column, lowest-index
basic variable on ratio ties), which cannot cycle and makes the output a
deterministic function of the input. All arithmetic is `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import Mixture, ValidationError, weighted_sum


@dataclass(frozen=True)
class AffineRow:
    """One adversary option: value at mixture mu is <coefficients, mu> + offset."""

    coefficients: tuple
    offset: Fraction

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("affine row with no coefficients")
        for v in self.coefficients:
            if not isinstance(v, Fraction):
                raise ValidationError(f"row coefficient {v!r} is not a Fraction")
        if not isinstance(self.offset, Fraction):
            raise ValidationError(f"row offset {self.offset!r} is not a Fraction")

    def value_at(self, mixture: Mixture) -> Fraction:
        return weighted_sum(self.offset, mixture.weights, self.coefficients)


@dataclass(frozen=True)
class GameSolution:
    """Minimax value, an optimal mixture, and the indices of rows tight at it."""

    value: Fraction
    mixture: Mixture
    tight_rows: tuple


def solve_min_max(rows: Sequence[AffineRow]) -> GameSolution:
    """Exact minimax mixture against a finite set of affine rows.

    Raises ValidationError on an empty row set or mismatched widths. The
    result is deterministic: identical input rows give an identical solution.
    """
    rows = tuple(rows)
    if not rows:
        raise ValidationError("solve_min_max needs at least one row")
    width = len(rows[0].coefficients)
    for r in rows:
        if len(r.coefficients) != width:
            raise ValidationError("rows have mismatched coefficient widths")
    return _solve_cached(tuple((r.coefficients, r.offset) for r in rows))


def best_response(mixture: Mixture, rows: Sequence[AffineRow]):
    """Index and value of the row maximizing <row, mu> + offset; lowest index on ties."""
    rows = tuple(rows)
    if not rows:
        raise ValidationError("best_response needs at least one row")
    best_i = 0
    best_v = rows[0].value_at(mixture)
    for i in range(1, len(rows)):
        v = rows[i].value_at(mixture)
        if v > best_v:
            best_i, best_v = i, v
    return best_i, best_v


@lru_cache(maxsize=None)
def _solve_cached(key) -> GameSolution:
    coeffs = [k[0] for k in key]
    offsets = [k[1] for k in key]
    m = len(coeffs)
    n = len(coeffs[0])
    # Shift every effective entry to exactly >= 1 so the game value is positive
    # and the reciprocal LP applies; the shift is undone at the end.
    low = min(coeffs[i][j] + offsets[i] for i in range(m) for j in range(n))
    shift = Fraction(1) - low
    matrix = [[coeffs[i][j] + offsets[i] + shift for j in range(n)] for i in range(m)]
    u = _simplex_max_sum(matrix)
    total = sum(u)
    # total > 0: any single coordinate can be raised above zero while staying feasible.
    mu = tuple(x / total for x in u)
    mixture = Mixture(mu)
    values = [weighted_sum(offsets[i], mu, coeffs[i]) for i in range(m)]
    value = max(values)
    if value != Fraction(1, 1) / total - shift:
        raise AssertionError("simplex optimum disagrees with recovered game value")
    tight = tuple(i for i, v in enumerate(values) if v == value)
    return GameSolution(value=value, mixture=mixture, tight_rows=tight)


def _simplex_max_sum(matrix):
    """Maximize sum(u) subject to matrix @ u <= 1, u >= 0, entries all positive.

    Dense tableau with Bland's rule. Returns the optimal u as Fractions.
    """
    m = len(matrix)
    n = len(matrix[0])
    zero = Fraction(0)
    one = Fraction(1)
    # Columns: n structural, m slacks, then the right-hand side.
    tableau = []
    for i in range(m):
        row = list(matrix[i]) + [zero] * m + [one]
        row[n + i] = one
        tableau.append(row)
    # Reduced-cost row for the maximization objective sum(u).
    cost = [one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = -1
        for j in range(n + m):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            # Impossible for positive matrices: sum(u) is bounded by 1/min-entry.
            raise AssertionError("unbounded reciprocal game LP")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        if p != 1:
            inv = one / p
            for j in range(n + m + 1):
                if pivot_row[j]:
                    pivot_row[j] *= inv
        for i in range(m):
            if i == leave:
                continue
            row = tableau[i]
            f = row[enter]
            if f:
                for j in range(n + m + 1):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
        f = cost[enter]
        if f:
            for j in range(n + m + 1):
                if pivot_row[j]:
                    cost[j] -= f * pivot_row[j]
        basis[leave] = enter
    u = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            u[b] = tableau[i][-1]
    return u
