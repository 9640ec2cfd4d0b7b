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
deterministic function of the input.

The tableau is integer-preserving (Edmonds' fraction-free elimination, as in
Bareiss). The LP is first scaled by the least common multiple of its
denominators, which multiplies every ratio and reduced cost the pivot rule
looks at by a positive constant. Every entry is then kept as an integer
numerator over one common denominator, the determinant `det` of the current
basis in the scaled matrix. A pivot on entry p at (r, c) keeps row r and
replaces each other entry a at (i, j) by (p*a - a_ic*a_rj) / det, then det
becomes p. That quotient is always exact: by Sylvester's determinant identity
it is a minor of the initial integer tableau, so it is an integer. Entering
and leaving variables are chosen by the same Bland's rule, with ratios
compared by integer cross-multiplication, so the pivot sequence is the one
rational arithmetic takes. The game value and tight rows are recovered from
the final integers and checked exactly; only they, and the mixture when it is
read, become Fractions.

The integer core has its own entry, `solve_scaled(entries, scale)` (not
exported): the rows' entries, coefficient plus offset, as integers over a
common multiple `scale` of their denominators. `solve_min_max` converts its
`AffineRow`s over their least common denominator and calls it. Engines keep
each row once, as its integer values over the problem's loss denominator,
but still enter through `solve_min_max`, whose calls and rows the
benchmark's tracer counts per layer: `DimensionEngine.game` builds the
`AffineRow`s of a game it solves from those integers, with the row's
payoffs as coefficients and offset 0. Any common multiple of the rows'
denominators gives the same solution, so those rows, the engine's integers
over the loss denominator (a multiple of the rows' least one) and the rows
loss[y] with offset -eps all give one solution. Replacing `scale` by
k * scale multiplies every entry, the shift and the right-hand side by k,
that is each constraint row of the LP by k. That leaves
the feasible set, every ratio Bland's rule compares and every reduced cost of
the rational tableau unchanged, so the pivots are the same and so are the
value, the mixture and the tight rows.

There is no LP cache here: every call solves its LP, recovers the value and
the tight rows and checks that the simplex optimum equals the recovered game
value. Only the mixture waits: the engine's recursion, certificates and
`msdim_direct` read a game's value alone, so a solution keeps the simplex's
integer numerators and builds its `Mixture` from them, checked in integers
(`Mixture.from_scaled`), on the first read of `mixture` (`GameSolution`).
Callers that meet the same game again memoize it themselves. Engines look their games up in a table keyed by LP row ids
(`DimensionEngine.game`), shared by the engines built on one (problem, class)
pair. Their recursion solves only the games that exact bounds leave
undecided: mixtures of support one or two for the learner, and of support
two or all rows for the adversary. A value the engine reads (a certificate's
node value, or an undecided game's verdict) that its tables do not hold yet
comes from `kernel_value(entries, scale)` (not exported), which proves it on
the same integer rows by a kernel of at most two rows and two columns,
checked exactly at every column (Shapley and Snow: a game's value is the
value of a square kernel), and from the simplex only when no such kernel
proves it. A two-column game is worth at least its best pure row, and
crossing rows only raise it, so the kernel's search forms no row pairs on a
column whose best pure row already pays the least value found so far: they
could not lower it. On the dim-cold benchmark's seeds 1 and 3 the bounds and
the kernels leave no game to solve, so an engine there solves a game only to
play Mrsoa's mixture. `msdim_direct` keeps one table per call and always
solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Mixture, ValidationError, format_value, make_record


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
                raise ValidationError(f"row coefficient {format_value(v)} is not a Fraction")
        if not isinstance(self.offset, Fraction):
            raise ValidationError(f"row offset {format_value(self.offset)} is not a Fraction")

    def value_at(self, mixture: Mixture) -> Fraction:
        """offset + sum of w * v over paired weights and coefficients, exactly,
        skipping zero weights; raises ValidationError on a width mismatch."""
        weights, values = mixture.weights, self.coefficients
        if len(weights) != len(values):
            raise ValidationError(f"{len(weights)} mixture weights for {len(values)} values")
        total = self.offset
        for w, v in zip(weights, values):
            if w:
                total += w * v
        return total


@dataclass(frozen=True)
class GameSolution:
    """Minimax value, an optimal mixture, and the indices of rows tight at it.

    A solution from `solve_scaled` is made without its `mixture` field and
    holds the simplex's integer numerators u instead. The first read of
    `mixture` builds `Mixture.from_scaled(u, sum(u))`, checked in integers
    like any other mixture, and stores it, so every later read returns that
    same object; that mixture builds its weight Fractions only when they are
    read. Equality, hash and repr read the field, so they compare and show
    the built mixture.
    """

    value: Fraction
    mixture: Mixture
    tight_rows: tuple

    @classmethod
    def _deferred(cls, value: Fraction, numerators: list, tight_rows: tuple) -> "GameSolution":
        return make_record(cls, value=value, tight_rows=tight_rows, _numerators=numerators)

    def __getattr__(self, name):
        # Python calls this only for a name missing from the instance dict:
        # among the fields, only a deferred solution's unread mixture.
        u = self.__dict__.get("_numerators")
        if name != "mixture" or u is None:
            raise AttributeError(f"'GameSolution' object has no attribute {name!r}")
        mu = vars(self)["mixture"] = Mixture.from_scaled(u, sum(u))
        return mu


def solve_min_max(rows: Sequence[AffineRow]) -> GameSolution:
    """Exact minimax mixture against a finite set of affine rows.

    Raises ValidationError on an empty row set or mismatched widths. The
    result is deterministic: identical input rows give an identical solution.
    """
    rows = tuple(rows)
    if not rows:
        raise ValidationError("solve_min_max needs at least one row")
    width = len(rows[0].coefficients)
    if any(len(r.coefficients) != width for r in rows):
        raise ValidationError("rows have mismatched coefficient widths")
    # Every effective entry coefficient + offset, as an integer numerator over
    # the common denominator `scale`.
    scale = math.lcm(*(v.denominator for r in rows for v in (*r.coefficients, r.offset)))
    entries = []
    for r in rows:
        base = r.offset.numerator * (scale // r.offset.denominator)
        entries.append([c.numerator * (scale // c.denominator) + base for c in r.coefficients])
    return solve_scaled(entries, scale)


def solve_scaled(entries, scale: int) -> GameSolution:
    """`solve_min_max` over rows given as integers: `entries[i][z]` is row i's
    coefficient z plus its offset, times the positive integer `scale`.

    Any common multiple of the rows' denominators gives the same solution
    (module docstring). No input is checked: callers pass at least one row,
    all of one width.
    """
    # Shift every entry to exactly >= 1 (numerator >= scale) so the game value
    # is positive and the reciprocal LP applies; the shift is undone at the end.
    low = min(min(row) for row in entries)
    u, det = _simplex_max_sum([[v - low + scale for v in row] for row in entries], scale)
    # total > 0: any single coordinate can be raised above zero while staying
    # feasible. The mixture u/total is built only when read (GameSolution).
    total = sum(u)
    # Row i's value at the mixture, times scale * total (the weights sum to 1).
    values = [sum(v * x for v, x in zip(row, u)) for row in entries]
    top = max(values)
    # The LP optimum is total/det and the shift (scale - low)/scale, so the
    # game value det/total - (scale - low)/scale must equal top/(scale*total).
    if top != det * scale - (scale - low) * total:
        raise AssertionError("simplex optimum disagrees with recovered game value")
    tight = tuple(i for i, v in enumerate(values) if v == top)
    return GameSolution._deferred(Fraction(top, scale * total), u, tight)


def kernel_value(entries, scale: int) -> Optional[Fraction]:
    """The value of the game `solve_scaled(entries, scale)` solves, when a
    kernel of at most two rows and two columns proves it, else None.

    Let z0 be the first column with the least maximum, a that column and, for
    each column z1 (z0 included, for a game of one column), b column z1 and
    s = b - a. The learner's game on {z0, z1} has the value of its best
    adversary mixture over at most two rows: a pure row i pays min(a_i, b_i),
    and a pair of rows with s_i < 0 < s_j, weighted (s_j, -s_i), pays the
    crossing (s_j a_i - s_i a_j) / (s_j - s_i) at both columns. The least of
    those values over z1, U, bounds the game's value from above (LP duality:
    it is a learner mixture's payoff). A pair's value is at least its best
    pure row's, max over i of min(a_i, b_i), and crossings only raise it, so
    a column whose best pure row already pays the least value found so far
    cannot lower it, and its row pairs are skipped; U is the same as with
    every pair formed. Every one of those row mixtures that pays exactly U
    at its two columns is then checked at every column; the first that pays
    at least U everywhere bounds the value from below, and the value is
    U / scale. Rows that tie at z0 or z1 form pairs like any others. No
    input is checked: callers pass at least one row, all of one width.
    """
    columns = list(zip(*entries))
    a = min(columns, key=max)
    # U = num / den (den > 0): at most max(a), the pure z0's payoff.
    num, den = max(a), 1
    for b in columns:
        # The two-column game's value, v / w: at least its best pure row's, so
        # a pure row that reaches U leaves U as it is (docstring).
        v, w = max(map(min, a, b)), 1
        if v * den >= num:
            continue
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
                return Fraction(num, den * scale)
            if si < 0:
                for j, sj in enumerate(diffs):
                    if sj > 0 and (sj * a[i] - si * a[j]) * den == num * (sj - si):
                        paid = min(sj * x - si * y for x, y in zip(row, entries[j]))
                        if paid * den >= num * (sj - si):
                            return Fraction(num, den * scale)
    return None


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


def _simplex_max_sum(matrix, rhs):
    """Maximize sum(u) subject to matrix @ u <= rhs, u >= 0.

    `matrix` holds positive integers and `rhs` is a positive integer. Dense
    integer-preserving tableau with Bland's rule. Returns (numerators, det):
    the optimal u is numerators / det.
    """
    m = len(matrix)
    n = len(matrix[0])
    # Columns: n structural, m slacks, then the right-hand side; the last row
    # is the reduced-cost row of sum(u).
    tableau = []
    for i in range(m):
        row = list(matrix[i]) + [0] * m + [rhs]
        row[n + i] = 1
        tableau.append(row)
    tableau.append([1] * n + [0] * (m + 1))
    basis = list(range(n, n + m))
    det = 1
    while True:
        cost = tableau[m]
        enter = -1
        for j in range(n + m):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # Ratios rhs/a compare by cross-multiplication: every a taking part is
        # positive, and the common denominator det cancels.
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                here = tableau[i][-1] * tableau[leave][enter]
                best = tableau[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # Impossible for positive matrices: sum(u) is bounded by rhs/min-entry.
            raise AssertionError("unbounded reciprocal game LP")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        # Fraction-free pivot: the pivot row keeps its integers and becomes
        # exact over the new denominator p; every other row takes the 2x2
        # determinant with it, which det divides exactly (module docstring).
        for i, row in enumerate(tableau):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tableau[i] = [(p * a - f * b) // det for a, b in zip(row, pivot_row)]
            elif p != det:
                tableau[i] = [p * a // det for a in row]
        det = p
        basis[leave] = enter
    u = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            u[b] = tableau[i][-1]
    return u, det
