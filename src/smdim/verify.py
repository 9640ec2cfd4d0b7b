"""Randomized cross-checks between the minimax dimension and the classical ones.

Four named equivalences, each checked on seeded random instances small enough
(|X| <= 4, |Y| <= 3, |H| <= 8) that both sides compute in milliseconds:

  ldim    on {0,1}-loss multiclass instances, smdim_gamma equals Ldim for
          gamma in {0 strict, 1/8, 1/4, 1/2};
  list    on size-<=k list-loss instances, smdim_gamma equals the (k+1)-label
          branching dimension for gamma in (0, 1/(k+1)];
  msdim   on set-valued-label instances, the minimax delegation equals an
          independent direct recursion;
  seqfat  on regression grids containing -1 and 1, seqfat_gamma <= smdim_gamma
          (asserted); the reverse inequality at gamma minus one grid step is
          reported alongside but is informational only.

Instances are drawn from `random.Random(seed)` so every run is reproducible;
results come back ordered by case index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .core import HypothesisClass, ValidationError, VersionSpace, check_count, make_problem
from .dimensions import GammaValue, ldim_k, msdim, msdim_direct, seqfat, smdim

PROP_NAMES = ("ldim", "seqfat", "list", "msdim")

MAX_INSTANCES = 4
MAX_LABELS = 3
MAX_HYPOTHESES = 8


@dataclass(frozen=True)
class CaseResult:
    index: int
    prop: str
    ok: bool
    detail: str


def _sample_rows(rng: random.Random, num_predictions: int, num_instances: int, max_rows: int):
    universe = list(product(range(num_predictions), repeat=num_instances))
    count = rng.randint(2, min(max_rows, len(universe)))
    return tuple(sorted(rng.sample(universe, count)))


def gen_multiclass(rng: random.Random):
    nx = rng.randint(1, MAX_INSTANCES)
    ny = rng.randint(2, MAX_LABELS)
    loss = [[int(y != z) for z in range(ny)] for y in range(ny)]
    problem = make_problem(tuple(range(nx)), tuple(range(ny)), tuple(range(ny)), loss)
    cls = HypothesisClass(_sample_rows(rng, ny, nx, MAX_HYPOTHESES))
    return problem, cls


def gen_list(rng: random.Random, k: int):
    nx = rng.randint(1, MAX_INSTANCES)
    ny = rng.randint(2, MAX_LABELS)
    subsets = [
        s for size in range(1, k + 1) for s in combinations(range(ny), size)
    ]
    loss = [[int(y not in s) for s in subsets] for y in range(ny)]
    problem = make_problem(
        tuple(range(nx)), tuple(range(ny)), tuple(subsets), loss
    )
    cls = HypothesisClass(_sample_rows(rng, len(subsets), nx, MAX_HYPOTHESES))
    return problem, cls


def gen_setvalued(rng: random.Random):
    nx = rng.randint(1, MAX_INSTANCES)
    nz = rng.randint(2, MAX_LABELS)
    all_sets = [s for size in range(1, nz + 1) for s in combinations(range(nz), size)]
    ny = rng.randint(2, min(MAX_LABELS, len(all_sets)))
    labels = tuple(sorted(rng.sample(all_sets, ny)))
    loss = [[int(z not in y) for z in range(nz)] for y in labels]
    problem = make_problem(tuple(range(nx)), labels, tuple(range(nz)), loss)
    cls = HypothesisClass(_sample_rows(rng, nz, nx, MAX_HYPOTHESES))
    return problem, cls


def gen_regression(rng: random.Random):
    extras = rng.sample([Fraction(-1, 2), Fraction(0), Fraction(1, 2)], rng.randint(0, 1))
    grid = tuple(sorted([Fraction(-1), Fraction(1)] + extras))
    loss = [[abs(y - z) for z in grid] for y in grid]
    nx = rng.randint(1, MAX_INSTANCES)
    problem = make_problem(tuple(range(nx)), grid, grid, loss)
    cls = HypothesisClass(_sample_rows(rng, len(grid), nx, MAX_HYPOTHESES))
    return problem, cls


_LDIM_GAMMAS = (
    GammaValue.strict_zero(),
    GammaValue.of(Fraction(1, 8)),
    GammaValue.of(Fraction(1, 4)),
    GammaValue.of(Fraction(1, 2)),
)


def check_ldim(problem, cls, index: int) -> CaseResult:
    space = VersionSpace.full(cls.num_hypotheses)
    expected = ldim_k(problem, cls, space, 1)
    for gv in _LDIM_GAMMAS:
        got = smdim(problem, cls, space, gv)
        if got != expected:
            return CaseResult(
                index,
                "ldim",
                False,
                f"smdim at {gv.describe()} gives {got}, branching dimension is {expected}",
            )
    return CaseResult(index, "ldim", True, f"dimension {expected} at all four margins")


def check_list(problem, cls, k: int, index: int) -> CaseResult:
    space = VersionSpace.full(cls.num_hypotheses)
    expected = ldim_k(problem, cls, space, k)
    gammas = (
        Fraction(1, k + 1),
        Fraction(1, 2 * (k + 1)),
        Fraction(1, 4 * (k + 1)),
    )
    for g in gammas:
        got = smdim(problem, cls, space, g)
        if got != expected:
            return CaseResult(
                index,
                "list",
                False,
                f"k={k}: smdim at gamma={g} gives {got}, {k + 1}-label branching dimension is {expected}",
            )
    return CaseResult(index, "list", True, f"k={k}: dimension {expected} at all three margins")


def check_msdim(problem, cls, index: int) -> CaseResult:
    space = VersionSpace.full(cls.num_hypotheses)
    for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        via_minimax = msdim(problem, cls, space, g)
        direct = msdim_direct(problem, cls, space, g)
        if via_minimax != direct:
            return CaseResult(
                index,
                "msdim",
                False,
                f"delegated value {via_minimax} != direct recursion {direct} at gamma={g}",
            )
    return CaseResult(index, "msdim", True, "delegation matches the direct recursion")


def check_seqfat(problem, cls, index: int) -> CaseResult:
    space = VersionSpace.full(cls.num_hypotheses)
    values = tuple(problem.predictions)
    spacing = min(b - a for a, b in zip(values, values[1:]))
    notes = []
    for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        fat = seqfat(problem, cls, space, g)
        mm = smdim(problem, cls, space, g)
        if fat > mm:
            return CaseResult(
                index, "seqfat", False, f"seqfat={fat} exceeds smdim={mm} at gamma={g}"
            )
        relaxed = g - spacing
        if relaxed > 0:
            upper = seqfat(problem, cls, space, relaxed)
            verdict = "holds" if mm <= upper else "off-grid"
            notes.append(f"gamma={g}: upper at {relaxed} {verdict} ({mm} vs {upper})")
        else:
            notes.append(f"gamma={g}: upper slack not positive")
    return CaseResult(index, "seqfat", True, "lower bound holds; " + "; ".join(notes))


_ALIASES = {
    "6.1": "ldim",
    "6.2": "seqfat",
    "6.3": "list",
    "6.4": "msdim",
}


def normalize_prop(token: str) -> str:
    name = _ALIASES.get(token, token)
    if name not in PROP_NAMES:
        raise ValidationError(
            f"unknown property {token!r}; expected one of {', '.join(PROP_NAMES)} "
            f"or {', '.join(sorted(_ALIASES))}"
        )
    return name


def run_verification(prop: str, seed: int = 0, cases: int = 20) -> list:
    """Run `cases` seeded checks of one named equivalence; results by case index."""
    name = normalize_prop(prop)
    check_count("cases", cases, low=1)
    rng = random.Random(seed)
    results = []
    for index in range(cases):
        if name == "ldim":
            problem, cls = gen_multiclass(rng)
            results.append(check_ldim(problem, cls, index))
        elif name == "list":
            k = 1 + index % 2
            problem, cls = gen_list(rng, k)
            results.append(check_list(problem, cls, k, index))
        elif name == "msdim":
            problem, cls = gen_setvalued(rng)
            results.append(check_msdim(problem, cls, index))
        else:
            problem, cls = gen_regression(rng)
            results.append(check_seqfat(problem, cls, index))
    return results
