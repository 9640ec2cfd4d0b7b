"""Acceptance gate: eleven end-to-end checks of the package's guarantees.

One test per numbered criterion; each prints a single
"criterion N: PASS/FAIL - summary" line (run with `pytest -s` to see the
lines inline; pytest's own status mirrors them). Comparisons are exact
rational arithmetic except where a float bound is part of the statement.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from smdim.adversaries import (
    ShatteringAdversary,
    expected_abs_sign_sum,
    find_sqrt_witness,
    rademacher_stream,
)
from smdim.core import VersionSpace, expected_loss
from smdim.dimensions import DimensionEngine
from smdim.game import AffineRow, solve_min_max
from smdim.instances import builtin_names, make_builtin
from smdim.learners import AgnosticLearner, FollowTheLeader, Mrsoa, UniformLearner
from smdim.simulation import exact_expectation_over_signs, run_game
from smdim.verify import run_verification

F = Fraction

PRESETS = tuple(builtin_names())
AUDIT_GAMMAS = (F(1, 4), F(1, 2))


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}", flush=True)
        raise
    print(f"criterion {number}: PASS - {summary}", flush=True)


# -- randomized equivalences (criteria 1-4) ---------------------------------


def test_criterion_01_multiclass_dimension_equality():
    results = run_verification("ldim", seed=1, cases=200)
    with criterion(1, "smdim equals the 0/1 mistake-tree dimension on 200 "
                      "multiclass instances at margins 0(strict), 1/8, 1/4, 1/2"):
        assert len(results) == 200
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_criterion_02_list_dimension_equality():
    results = run_verification("list", seed=2, cases=100)
    with criterion(2, "smdim equals the (k+1)-label branching dimension on 100 "
                      "list instances, k in {1,2}, three margins per case"):
        assert len(results) == 100
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_criterion_03_setvalued_delegation_equality():
    results = run_verification("msdim", seed=3, cases=100)
    with criterion(3, "set-valued dimension delegation equals the direct "
                      "indicator recursion on 100 instances"):
        assert len(results) == 100
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_criterion_04_scale_shattering_lower_bound():
    results = run_verification("seqfat", seed=4, cases=100)
    holds = sum(r.detail.count("holds (") for r in results)
    off_grid = sum(r.detail.count("off-grid") for r in results)
    no_slack = sum(r.detail.count("slack not positive") for r in results)
    with criterion(4, "scale shattering lower-bounds smdim on 100 grid "
                      f"regressions (upper direction informational: {holds} hold, "
                      f"{off_grid} off-grid, {no_slack} without positive slack)"):
        assert len(results) == 100
        assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


# -- realizable streams (criteria 5-6) ---------------------------------------


def realizable_edges(problem, cls, members, x):
    """(y, eps, child) for every label and realized loss threshold."""
    out = []
    for y in range(problem.num_labels):
        row = problem.loss[y]
        values = sorted({row[cls.table[h][x]] for h in members})
        for eps in values:
            child = tuple(h for h in members if row[cls.table[h][x]] <= eps)
            out.append((y, eps, child))
    return out


def exhaustive_streams(problem, cls, horizon):
    full = tuple(range(cls.num_hypotheses))

    def rec(members, prefix):
        if len(prefix) == horizon:
            yield prefix
            return
        for x in range(problem.num_instances):
            for y, eps, child in realizable_edges(problem, cls, members, x):
                yield from rec(child, prefix + ((x, y, eps),))

    yield from rec(full, ())


def sampled_streams(problem, cls, horizon, count, rng):
    full = tuple(range(cls.num_hypotheses))
    for _ in range(count):
        members = full
        stream = []
        for _ in range(horizon):
            x = rng.randrange(problem.num_instances)
            y, eps, child = rng.choice(realizable_edges(problem, cls, members, x))
            stream.append((x, y, eps))
            members = child
        yield tuple(stream)


def replay_stream(problem, cls, engine, gamma, dim, stream):
    """(over-margin rounds, prefixes violating the cumulative bound)."""
    learner = Mrsoa(problem, cls, engine=engine)
    bound_c = problem.bound_c
    mistakes = 0
    violations = 0
    cumulative = F(0)
    eps_sum = F(0)
    for t, (x, y, eps) in enumerate(stream, start=1):
        mixture = learner.predict(x)
        value = expected_loss(problem, mixture, y)
        learner.update(x, y, eps)
        cumulative += value
        eps_sum += eps
        if value >= gamma + eps:
            mistakes += 1
        if cumulative > eps_sum + gamma * t + bound_c * dim:
            violations += 1
    return mistakes, violations


@lru_cache(maxsize=1)
def stream_audit():
    """Replay every exhaustive T<=5 stream and 100 sampled T=10 streams per
    (builtin, gamma); collected once, asserted by criteria 5 and 6."""
    rows = []
    for name in PRESETS:
        problem, cls = make_builtin(name)
        for index, gamma in enumerate(AUDIT_GAMMAS):
            engine = DimensionEngine(problem, cls, gamma)
            dim = engine.smdim(VersionSpace.full(cls.num_hypotheses))
            worst = 0
            violations = 0
            streams = 0
            for stream in exhaustive_streams(problem, cls, 5):
                mistakes, bad = replay_stream(problem, cls, engine, gamma, dim, stream)
                worst = max(worst, mistakes)
                violations += bad
                streams += 1
            rng = random.Random(1000 * index + len(name))
            for stream in sampled_streams(problem, cls, 10, 100, rng):
                mistakes, bad = replay_stream(problem, cls, engine, gamma, dim, stream)
                worst = max(worst, mistakes)
                violations += bad
                streams += 1
            rows.append((name, gamma, dim, streams, worst, violations))
    return tuple(rows)


def test_criterion_05_over_margin_rounds_never_exceed_dimension():
    rows = stream_audit()
    total = sum(r[3] for r in rows)
    with criterion(5, "version-space learner makes at most dim over-margin "
                      f"rounds on every realizable stream ({total} streams, "
                      "exhaustive T<=5 plus sampled T=10, margins 1/4 and 1/2)"):
        assert len(rows) == len(PRESETS) * len(AUDIT_GAMMAS)
        for name, gamma, dim, streams, worst, _ in rows:
            assert streams > 0
            assert worst <= dim, (name, str(gamma), worst, dim)


def test_criterion_06_cumulative_loss_bound_on_every_prefix():
    rows = stream_audit()
    with criterion(6, "cumulative expected loss stays within sum(eps) + "
                      "gamma*T + c*dim on every prefix of the same streams"):
        for name, gamma, dim, _, _, violations in rows:
            assert violations == 0, (name, str(gamma), violations)


# -- adversary lower bound (criterion 7) --------------------------------------


def test_criterion_07_certificate_adversary_forces_gamma_dim_regret():
    played = 0
    with criterion(7, "certificate adversary forces exact regret >= gamma*dim "
                      "against the version-space, aggregated, and uniform "
                      "learners on every builtin with positive dimension"):
        for name in PRESETS:
            problem, cls = make_builtin(name)
            for gamma in AUDIT_GAMMAS:
                engine = DimensionEngine(problem, cls, gamma)
                space = VersionSpace.full(cls.num_hypotheses)
                depth = engine.smdim(space)
                if depth < 1:
                    continue
                cert = engine.certificate(space)
                learners = (
                    Mrsoa(problem, cls, engine=engine),
                    AgnosticLearner(problem, cls, gamma, depth, engine=engine),
                    UniformLearner(problem, cls),
                )
                for learner in learners:
                    adversary = ShatteringAdversary(problem, cls, cert)
                    report = run_game(problem, cls, learner, adversary, rounds=depth)
                    assert report.regret >= gamma * depth, (name, str(gamma), type(learner).__name__)
                played += 1
        # every builtin qualifies at 1/4; at 1/2 all but the list instance
        assert played == 13, played


# -- aggregated learner upper bound (criterion 8) ------------------------------


def test_criterion_08_aggregated_regret_within_closed_form_bound():
    gamma = F(1, 4)
    summaries = []
    with criterion(8, "aggregated learner regret on every label stream stays "
                      "within c*dim + gamma*T + 1 + 2c*sqrt(dim*T*ln(2cT))"):
        for name in ("multiclass:binary-constants", "multilabel:pair-constants"):
            problem, cls = make_builtin(name)
            engine = DimensionEngine(problem, cls, gamma)
            dim = engine.smdim(VersionSpace.full(cls.num_hypotheses))
            c = problem.bound_c
            for horizon in (4, 6):
                bound = (
                    float(c) * dim
                    + float(gamma) * horizon
                    + 1.0
                    + 2.0 * float(c) * math.sqrt(dim * horizon * math.log(2.0 * float(c) * horizon))
                    + 2.0**-40
                )
                worst = F(0)
                for labels in product(range(problem.num_labels), repeat=horizon):
                    learner = AgnosticLearner(problem, cls, gamma, horizon, engine=engine)
                    report = run_game(problem, cls, learner, [(0, y) for y in labels])
                    worst = max(worst, report.regret)
                assert float(worst) <= bound, (name, horizon, float(worst), bound)
                summaries.append((name.split(":")[0], horizon, float(worst), bound))
    for name, horizon, worst, bound in summaries:
        print(f"  {name} T={horizon}: worst exact regret {worst:.4f} <= bound {bound:.4f}")


# -- sign-stream lower bound (criterion 9) -------------------------------------


def test_criterion_09_sign_enumeration_beats_sqrt_t_over_8():
    gamma = F(1, 4)
    with criterion(9, "exact sign-stream enumeration gives expected regret "
                      ">= eta*sqrt(T/8) at T in {3,5,7} on both unit-gap witnesses"):
        assert expected_abs_sign_sum(3) / 2 == F(3, 4)
        for name in ("multiclass:binary-constants", "multilabel:pair-constants"):
            problem, cls = make_builtin(name)
            witness = find_sqrt_witness(problem, cls)
            assert witness is not None and witness.eta == 1
            engine = DimensionEngine(problem, cls, gamma)
            for horizon in (3, 5, 7):
                expected = exact_expectation_over_signs(
                    problem,
                    cls,
                    lambda signs: rademacher_stream(witness, signs),
                    lambda: AgnosticLearner(problem, cls, gamma, horizon, engine=engine),
                    horizon,
                )
                assert expected > 0
                # eta = 1, so squaring gives an exact rational comparison
                assert expected * expected >= F(horizon, 8), (name, horizon, str(expected))
                if name == "multiclass:binary-constants" and horizon == 3:
                    assert expected == F(3, 4)


# -- squared-distance example (criterion 10) ------------------------------------


def test_criterion_10_orthonormal_example_dimension_and_leader_regret():
    problem, cls = make_builtin("hilbert:orthonormal")
    engine = DimensionEngine(problem, cls, F(1, 2))
    num_labels = problem.num_labels

    def leader_regrets(labels):
        learner = FollowTheLeader(problem, cls)
        cumulative = F(0)
        totals = [F(0)] * cls.num_hypotheses
        for t, y in enumerate(labels, start=1):
            mixture = learner.predict(0)
            cumulative += expected_loss(problem, mixture, y)
            learner.update(0, y)
            for h in range(cls.num_hypotheses):
                totals[h] += problem.loss[y][cls.table[h][0]]
            yield t, cumulative - min(totals)

    with criterion(10, "orthonormal example has dimension >= 1 at margin 1/2 "
                       "and leader regret <= 8(1+ln T) on all T<=6 streams "
                       "plus 1000 sampled T=64 streams"):
        assert engine.smdim(VersionSpace.full(cls.num_hypotheses)) >= 1
        for labels in product(range(num_labels), repeat=6):
            for t, regret in leader_regrets(labels):
                assert float(regret) <= 8.0 * (1.0 + math.log(t)), (labels[:t], float(regret))
        rng = random.Random(64)
        for _ in range(1000):
            labels = [rng.randrange(num_labels) for _ in range(64)]
            final = None
            for t, regret in leader_regrets(labels):
                final = (t, regret)
            assert final[0] == 64
            assert float(final[1]) <= 8.0 * (1.0 + math.log(64))


# -- solver vs grid search (criterion 11) ----------------------------------------


def simplex_grid(n: int) -> np.ndarray:
    """All integer points with n nonnegative coordinates summing to 256."""
    if n == 1:
        return np.array([[256]], dtype=np.int64)
    steps = np.arange(257, dtype=np.int64)
    if n == 2:
        return np.stack([steps, 256 - steps])
    first, second = np.meshgrid(steps, steps, indexing="ij")
    keep = first + second <= 256
    return np.stack([first[keep], second[keep], 256 - first[keep] - second[keep]])


def grid_minimum(rows, n: int) -> Fraction:
    denom = 1
    for row in rows:
        for value in row.coefficients:
            denom = math.lcm(denom, value.denominator)
        denom = math.lcm(denom, row.offset.denominator)
    coeffs = np.array(
        [[int(value * denom) for value in row.coefficients] for row in rows],
        dtype=np.int64,
    )
    offsets = np.array([int(row.offset * denom) for row in rows], dtype=np.int64)
    grid = simplex_grid(n)
    values = coeffs @ grid + (256 * offsets)[:, None]
    return F(int(values.max(axis=0).min()), 256 * denom)


def test_criterion_11_solver_matches_grid_search():
    rng = random.Random(1107)
    with criterion(11, "exact solver value brackets the 1/256 grid-search "
                       "minimum within coefficient-spread/256 on 500 row systems"):
        for _ in range(500):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            rows = tuple(
                AffineRow(
                    tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4, 8))) for _ in range(n)),
                    F(rng.randint(-8, 8), rng.choice((1, 2, 4, 8))),
                )
                for _ in range(m)
            )
            solution = solve_min_max(rows)
            grid_min = grid_minimum(rows, n)
            coefficients = [value for row in rows for value in row.coefficients]
            spread = max(coefficients) - min(coefficients)
            assert solution.value <= grid_min
            assert grid_min - solution.value <= spread / 256, (rows, str(solution.value), str(grid_min))
