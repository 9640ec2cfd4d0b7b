"""Dimension computations cross-checked against a brute-force tree oracle.

The oracle replays the shattering definition with none of the engine's
shortcuts: no per-label dominance (every qualifying threshold becomes a game
row), no depth cap (it keeps probing past |V| - 1 and asserts the cap held),
and the inner game solved by the support-enumeration oracle from test_game
instead of the simplex solver.
"""

import gc
import inspect
import json
import operator
import random
import re
import sys
import weakref
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from smdim import dimensions
from smdim.adversaries import ShatteringAdversary
from smdim.core import (
    BudgetError,
    Candidate,
    HypothesisClass,
    Mixture,
    ValidationError,
    VersionSpace,
    make_problem,
    validate_problem,
)
from smdim.dimensions import (
    CertificateNode,
    DimensionEngine,
    GammaValue,
    ldim_k,
    msdim,
    msdim_direct,
    seqfat,
    smdim,
    to_mask,
    to_members,
)
from smdim.game import AffineRow, best_response, solve_min_max
from smdim.instances import builtin_names, make_builtin, parse_instance_document, serialize_instance
from smdim.learners import Mrsoa, UniformLearner
from smdim.simulation import run_game
from smdim.verify import gen_list, gen_multiclass, gen_regression, gen_setvalued

from test_game import check_kernel_against_unpruned, oracle_min_max

F = Fraction


def oracle_shatter(problem, cls, gv):
    """The definition's shatter(members, depth) on member tuples, memoized."""
    memo = {}

    def passes(value):
        return value > 0 if gv.strict else value >= gv.gamma

    def shatter(members, depth):
        if depth == 0:
            return bool(members)
        if not members:
            return False
        key = (members, depth)
        if key in memo:
            return memo[key]
        memo[key] = False  # self-referential children recurse at lower depth only
        result = False
        for x in range(problem.num_instances):
            rows = [
                AffineRow(problem.loss[y], -eps)
                for y, eps, _ in oracle_qualifying(problem, cls, shatter, members, x, depth)
            ]
            if rows and passes(oracle_min_max(rows)):
                result = True
                break
        memo[key] = result
        return result

    return shatter


def oracle_qualifying(problem, cls, shatter, members, x, depth):
    """Every (y, eps, child) at a realized threshold whose child has depth - 1."""
    table = cls.table
    loss = problem.loss
    out = []
    for y in range(problem.num_labels):
        realized = sorted({loss[y][table[h][x]] for h in members})
        for eps in realized:
            child = tuple(h for h in members if loss[y][table[h][x]] <= eps)
            if shatter(child, depth - 1):
                out.append((y, eps, child))
    return out


def oracle_smdim(problem, cls, members, gv):
    shatter = oracle_shatter(problem, cls, gv)
    depth = 0
    while shatter(members, depth + 1):
        depth += 1
        assert depth <= len(members) - 1, "shatter depth exceeded |V| - 1"
        if depth > len(members) + 2:
            break
    return depth


def small_random_instance(rng):
    from itertools import product as iproduct

    nx = rng.randint(1, 2)
    ny = rng.randint(2, 3)
    universe = list(iproduct(range(ny), repeat=nx))
    rows = tuple(sorted(rng.sample(universe, rng.randint(2, min(4, len(universe))))))
    denominator = rng.choice([1, 2, 4])
    loss = [
        [F(rng.randint(0, denominator), denominator) for _ in range(ny)]
        for _ in range(ny)
    ]
    problem = make_problem(tuple(range(nx)), tuple(range(ny)), tuple(range(ny)), loss)
    return validate_problem(problem, HypothesisClass(rows))


def dim_cold_grids(seed=53):
    """Ten regression grids shaped like the dim-cold benchmark's items: absolute
    loss on five grid points (-1, 1 and three multiples of 1/8), three
    instances, and |H| from 8 to 17."""
    rng = random.Random(seed)
    interior = [F(k, 8) for k in range(-7, 8)]
    rows = list(product(range(5), repeat=3))
    cases = []
    for num_hypotheses in range(8, 18):
        grid = tuple(sorted([F(-1), F(1)] + rng.sample(interior, 3)))
        loss = [[abs(y - z) for z in grid] for y in grid]
        problem = make_problem(tuple(range(3)), grid, grid, loss)
        cls = HypothesisClass(tuple(sorted(rng.sample(rows, num_hypotheses))))
        cases.append(validate_problem(problem, cls))
    return cases


# The margins of the dim-cold-shaped grids' certificates.
GRID_GAMMAS = (GammaValue.strict_zero(), GammaValue.of(F(1, 8)), GammaValue.of(F(1, 4)))


ORACLE_GAMMAS = (
    GammaValue.strict_zero(),
    GammaValue.of(F(1, 8)),
    GammaValue.of(F(1, 4)),
    GammaValue.of(F(1, 2)),
    GammaValue.of(F(1)),
)


def test_engine_matches_tree_oracle_on_random_instances():
    rng = random.Random(7)
    for _ in range(20):
        problem, cls = small_random_instance(rng)
        space = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            if gv.gamma > problem.bound_c and not gv.strict:
                continue
            expected = oracle_smdim(problem, cls, space.members, gv)
            assert smdim(problem, cls, space, gv) == expected, (
                f"mismatch at gamma {gv.describe()} on {problem} / {cls}"
            )


def test_engine_matches_oracle_on_builtins():
    for name in ("multiclass:binary-constants", "regression:three-point", "hilbert:orthonormal"):
        problem, cls = make_builtin(name)
        space = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            expected = oracle_smdim(problem, cls, space.members, gv)
            assert smdim(problem, cls, space, gv) == expected


BUILTIN_DIMENSIONS = {
    # (smdim at 1/4, smdim at 1/2)
    "multiclass:binary-constants": (1, 1),
    "list:singleton-constants": (1, 0),
    "setvalued:pair": (1, 1),
    "regression:three-point": (1, 1),
    "multilabel:pair-constants": (1, 1),
    "hilbert:orthonormal": (1, 1),
    "vector:taxicab-triangle": (1, 1),
}


def test_builtin_dimension_table():
    for name, (at_quarter, at_half) in BUILTIN_DIMENSIONS.items():
        problem, cls = make_builtin(name)
        space = VersionSpace.full(cls.num_hypotheses)
        assert smdim(problem, cls, space, F(1, 4)) == at_quarter, name
        assert smdim(problem, cls, space, F(1, 2)) == at_half, name


def test_singleton_space_has_dimension_zero():
    problem, cls = make_builtin("multiclass:binary-constants")
    assert smdim(problem, cls, VersionSpace.of([0]), F(1, 4)) == 0


def test_empty_space_rejected():
    problem, cls = make_builtin("multiclass:binary-constants")
    engine = DimensionEngine(problem, cls, F(1, 4))
    with pytest.raises(ValidationError):
        engine.dim_members(0)


def _outcome(call):
    """A route's value, or the message of the ValidationError it raised."""
    try:
        return call()
    except ValidationError as exc:
        return str(exc)


class TestGammaValue:
    def test_zero_is_the_strict_margin(self):
        # gamma = 0 is the strict margin, however it is written; gamma is the
        # one field, and `strict` is worked out from it.
        assert GammaValue.of(0) == GammaValue(F(0)) == GammaValue.of("0") == GammaValue.strict_zero()
        assert [f.name for f in fields(GammaValue)] == ["gamma"]
        assert [GammaValue.of(g).strict for g in (0, F(1, 1000), F(1, 4), 2)] == [True, False, False, False]
        with pytest.raises(TypeError):
            GammaValue(F(0), strict=True)

    def test_zero_and_strict_zero_give_the_same_bytes_on_every_builtin(self):
        # Each margin gets engines of its own, so neither reads the other's
        # memo or verdicts (the pair's margin-free tables are shared).
        for name in builtin_names():
            problem, cls = make_builtin(name)
            full = VersionSpace.full(cls.num_hypotheses)
            got = {}
            for gamma in (0, GammaValue.strict_zero()):
                got[gamma] = (
                    smdim(problem, cls, full, gamma),
                    _outcome(lambda: msdim(problem, cls, full, gamma)),
                    DimensionEngine(problem, cls, gamma).certificate(full).to_json(),
                )
            assert got[0] == got[GammaValue.strict_zero()], name

    @pytest.mark.parametrize("gamma", [0, "0", F(0), GammaValue.strict_zero(), -1, F(-1, 4)])
    def test_seqfat_refuses_zero_and_negative_margins(self, gamma):
        problem, cls = make_builtin("regression:three-point")
        with pytest.raises(ValidationError, match=r"^(seqfat needs gamma > 0|negative gamma)"):
            seqfat(problem, cls, VersionSpace.full(cls.num_hypotheses), gamma)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            GammaValue.of(F(-1, 4))

    def test_describe(self):
        assert GammaValue.strict_zero().describe() == "0 (strict)"
        assert GammaValue.of(F(1, 4)).describe() == "1/4"

    def test_passes_at_the_boundary(self):
        # gamma itself passes; the strict margin 0 needs a value above 0.
        gv = GammaValue.of(F(1, 4))
        assert gv.passes(F(1, 4)) and gv.passes(F(1, 2))
        assert not gv.passes(F(1, 4) - F(1, 1000))
        strict = GammaValue.strict_zero()
        assert strict.passes(F(1, 1000))
        assert not strict.passes(F(0))


class TestCertificate:
    def test_binary_constants_certificate_shape(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        engine = DimensionEngine(problem, cls, F(1, 4))
        cert = engine.certificate(VersionSpace.full(2))
        assert cert.depth == 1
        root = cert.node(VersionSpace.full(2), 1)
        assert root.instance == 0
        assert root.value == F(1, 2)
        # Every realized threshold qualifies at depth 1 (children only need to
        # be nonempty): both labels at eps 0 with singleton children, both at
        # eps 1 with the full space. The node lists each label's first one,
        # and the candidates accessor every one.
        listed = [(cand.label, cand.threshold, child.members) for cand, child in root.candidates]
        assert listed == [(0, F(0), (0,)), (1, F(0), (1,))]
        every = [
            (cand.label, cand.threshold, child.members)
            for cand, child in engine.candidates(VersionSpace.full(2), root.instance)
        ]
        assert every == [(0, F(0), (0,)), (0, F(1), (0, 1)), (1, F(0), (1,)), (1, F(1), (0, 1))]

    def test_to_json_is_deterministic_and_loadable(self):
        problem, cls = make_builtin("hilbert:orthonormal")
        engine = DimensionEngine(problem, cls, F(1, 2))
        cert = engine.certificate(VersionSpace.full(3))
        text = cert.to_json()
        assert text == engine.certificate(VersionSpace.full(3)).to_json()
        doc = json.loads(text)
        assert doc["depth"] == cert.depth
        assert doc["root"] == [0, 1, 2]
        assert text.endswith("\n")

    def test_certificate_replay_inequality(self):
        # Walking any mixture sequence down the certificate, the chosen
        # candidate always costs gamma over its threshold, and some hypothesis
        # in the child has loss within the threshold.
        rng = random.Random(3)
        for _ in range(10):
            problem, cls = gen_multiclass(rng)
            gv = GammaValue.of(F(1, 4))
            engine = DimensionEngine(problem, cls, gv)
            space = VersionSpace.full(cls.num_hypotheses)
            cert = engine.certificate(space)
            members = space.members
            for depth in range(cert.depth, 0, -1):
                node = cert.node(VersionSpace(members), depth)
                weights = [F(rng.randint(0, 4), 1) for _ in range(problem.num_predictions)]
                if sum(weights) == 0:
                    weights[0] = F(1)
                total = sum(weights)
                mixture = Mixture(tuple(w / total for w in weights))
                rows = tuple(
                    AffineRow(problem.loss[cand.label], -cand.threshold)
                    for cand, _ in node.candidates
                )
                index, value = best_response(mixture, rows)
                assert value >= gv.gamma
                cand, child = node.candidates[index]
                assert child.members
                for h in child.members:
                    assert problem.loss[cand.label][cls.table[h][node.instance]] <= cand.threshold
                members = child.members

    def test_candidate_lists_match_unpruned_oracle(self):
        # The engine recurses on each label only up to its first qualifying
        # threshold. A node lists that one, and by monotonicity each later
        # threshold of the label, from the candidates accessor, qualifies too.
        # Regression grids add nodes of depth >= 2, where pruning takes effect.
        cases = [make_builtin(name) for name in BUILTIN_DIMENSIONS]
        rng = random.Random(29)
        cases += [small_random_instance(rng) for _ in range(30)]
        cases += [gen_regression(rng) for _ in range(20)]
        deep = 0
        for problem, cls in cases:
            for gv in ORACLE_GAMMAS:
                engine = DimensionEngine(problem, cls, gv)
                cert = engine.certificate(VersionSpace.full(cls.num_hypotheses))
                shatter = oracle_shatter(problem, cls, gv)
                for (members, depth), node in cert.nodes.items():
                    expected = oracle_qualifying(
                        problem, cls, shatter, members, node.instance, depth
                    )
                    firsts = {}
                    for y, eps, child in expected:
                        firsts.setdefault(y, (y, eps, child))
                    listed = [
                        (cand.label, cand.threshold, child.members)
                        for cand, child in node.candidates
                    ]
                    assert listed == list(firsts.values())
                    every = [
                        (cand.label, cand.threshold, child.members)
                        for cand, child in engine.candidates(VersionSpace(members), node.instance)
                    ]
                    later = [c for c in every if c[0] in firsts and c[1] >= firsts[c[0]][1]]
                    assert later == expected
                    deep += depth >= 2
        assert deep >= 40

    def test_zero_depth_certificate_has_no_nodes(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        engine = DimensionEngine(problem, cls, F(1, 4))
        cert = engine.certificate(VersionSpace.of([0]))
        assert cert.depth == 0
        assert cert.nodes == {}


def reference_certificate_nodes(engine, space, full=False):
    """The nodes of `engine.certificate(space)`, walked from the memo with a new
    VersionSpace and Candidate for every node and candidate.

    Only each node's instance comes from the memo entry (x, row ids). The
    candidate list is derived from the public `candidates` and `shatterable`:
    each label's first candidate whose child is shatterable to d - 1. With
    `full`, each label lists every candidate from that one onward, the full
    qualifying list, and the walk enters every listed child. A node's value is
    the simplex's value of the game over its listed rows.
    """
    problem = engine.problem
    root = to_mask(space.members)
    nodes = {}
    stack = [(root, engine.dim_members(root))]
    while stack:
        mask, d = stack.pop()
        if d < 1:
            continue
        members = to_members(mask)
        if (members, d) in nodes:
            continue
        assert engine._shatter(mask, d)
        x, _ = engine._memo[(mask, d)]
        qualified = set()
        candidates = []
        for cand, child in engine.candidates(VersionSpace(members), x):
            if cand.label in qualified:
                if full:
                    candidates.append((cand, child))
            elif engine.shatterable(child, d - 1):
                qualified.add(cand.label)
                candidates.append((cand, child))
        rows = [AffineRow(problem.loss[cand.label], -cand.threshold) for cand, _ in candidates]
        nodes[(members, d)] = CertificateNode(
            space=VersionSpace(members),
            depth=d,
            instance=x,
            value=solve_min_max(rows).value,
            candidates=tuple(candidates),
        )
        for _, child in candidates:
            stack.append((to_mask(child.members), d - 1))
    return nodes


def test_certificate_nodes_equal_a_walk_that_builds_every_candidate():
    cases = [(make_builtin(name), ORACLE_GAMMAS) for name in builtin_names()]
    cases += [(case, GRID_GAMMAS) for case in dim_cold_grids()]
    deep = 0
    for (problem, cls), gammas in cases:
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in gammas:
            # Separate engines, so the walks do not read memo entries that
            # certificate() or the other walk filled in.
            expected = reference_certificate_nodes(DimensionEngine(problem, cls, gv), full)
            cert = DimensionEngine(problem, cls, gv).certificate(full)
            assert cert.nodes == expected
            # Each label's first entry of the full qualifying list is the
            # node's candidate, and the rows it dominates leave the value as
            # it is.
            wide = reference_certificate_nodes(DimensionEngine(problem, cls, gv), full, full=True)
            for key, node in cert.nodes.items():
                firsts = {}
                for cand, child in wide[key].candidates:
                    firsts.setdefault(cand.label, (cand, child))
                assert node.candidates == tuple(firsts.values())
                assert node.value == wide[key].value
            # Equal version spaces are one object.
            spaces = [node.space for node in cert.nodes.values()]
            spaces += [child for node in cert.nodes.values() for _, child in node.candidates]
            assert len({id(s) for s in spaces}) == len(set(spaces))
            deep += cert.depth >= 3
    assert deep >= 5


def test_certificates_read_every_node_from_the_memo():
    # After smdim() the memo holds every node: certificate() adds no memo
    # entry and visits no version space, and each node lists the candidates
    # of its memo entry's row ids, one per qualifying label.
    cases = [(make_builtin(name), ORACLE_GAMMAS[:4]) for name in builtin_names()]
    cases += [(case, GRID_GAMMAS) for case in dim_cold_grids()]
    nodes = 0
    for (problem, cls), gammas in cases:
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in gammas:
            engine = DimensionEngine(problem, cls, gv)
            engine.smdim(full)
            memo, spaces = dict(engine._memo), set(engine._spaces)
            cert = engine.certificate(full)
            assert engine._memo == memo and engine._spaces == spaces
            for (members, depth), node in cert.nodes.items():
                x, ids = memo[(to_mask(members), depth)]
                assert node.instance == x
                row_of = {
                    (y, F(key, engine._den)): row_id
                    for y, key, _, row_id in engine.candidate_rows(to_mask(members), x)
                }
                assert tuple(row_of[(c.label, c.threshold)] for c, _ in node.candidates) == ids
                assert node.value == engine.value(ids)
                nodes += 1
    assert nodes >= 300


def test_the_adversary_plays_the_same_transcripts_on_minimal_and_full_certificates():
    # A label's later candidates pay less than its first against every
    # mixture, so the adversary's first best response is a first candidate
    # whether or not the others are listed.
    cases = [(make_builtin(name), ORACLE_GAMMAS[1:]) for name in builtin_names()]
    cases += [(case, GRID_GAMMAS[1:]) for case in dim_cold_grids()]
    played = 0
    for (problem, cls), gammas in cases:
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in gammas:
            engine = DimensionEngine(problem, cls, gv)
            cert = engine.certificate(full)
            if not cert.depth:
                continue
            wide = replace(
                cert, nodes=reference_certificate_nodes(DimensionEngine(problem, cls, gv), full, full=True)
            )
            for learner in (partial(Mrsoa, engine=engine), UniformLearner):
                minimal, listed = [
                    run_game(
                        problem, cls, learner(problem, cls), ShatteringAdversary(problem, cls, c), rounds=cert.depth
                    )
                    for c in (cert, wide)
                ]
                assert minimal == listed
                played += 1
    assert played >= 60


class TestMonotonicity:
    def test_gamma_monotonicity(self):
        rng = random.Random(11)
        grid = [F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for _ in range(10):
            problem, cls = small_random_instance(rng)
            space = VersionSpace.full(cls.num_hypotheses)
            values = [
                smdim(problem, cls, space, g) for g in grid if g <= problem.bound_c
            ]
            assert values == sorted(values, reverse=True)

    # The engine's threshold pruning rests on this property, so it is checked
    # with the oracle, which neither prunes nor caps depth.
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from((GammaValue.strict_zero(), GammaValue.of(F(1, 4)))),
        st.data(),
    )
    def test_subset_monotonicity(self, rng, gv, data):
        problem, cls = small_random_instance(rng)
        everyone = range(cls.num_hypotheses)
        outer = data.draw(st.sets(st.sampled_from(everyone), min_size=1))
        inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
        bigger = oracle_smdim(problem, cls, tuple(sorted(outer)), gv)
        assert oracle_smdim(problem, cls, tuple(sorted(inner)), gv) <= bigger

    def test_depth_cap(self):
        rng = random.Random(17)
        for _ in range(10):
            problem, cls = small_random_instance(rng)
            space = VersionSpace.full(cls.num_hypotheses)
            for gv in (GammaValue.strict_zero(), GammaValue.of(F(1, 4))):
                assert smdim(problem, cls, space, gv) <= cls.num_hypotheses - 1


class TestLdim:
    def test_binary_constants(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        assert ldim_k(problem, cls, VersionSpace.full(2), 1) == 1

    def test_list_builtin_branching(self):
        problem, cls = make_builtin("list:singleton-constants")
        assert ldim_k(problem, cls, VersionSpace.full(3), 2) == 1

    def test_k_too_small_for_loss_matrix_rejected(self):
        problem, cls = make_builtin("list:singleton-constants")
        with pytest.raises(ValidationError, match="zero loss against"):
            ldim_k(problem, cls, VersionSpace.full(3), 1)

    def test_non_binary_loss_rejected(self):
        problem, cls = make_builtin("regression:three-point")
        with pytest.raises(ValidationError):
            ldim_k(problem, cls, VersionSpace.full(2), 1)

    def test_k_must_be_positive(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError):
            ldim_k(problem, cls, VersionSpace.full(2), 0)


class TestSeqfat:
    def test_three_point_grid(self):
        problem, cls = make_builtin("regression:three-point")
        space = VersionSpace.full(2)
        assert seqfat(problem, cls, space, F(1, 2)) == 1
        assert seqfat(problem, cls, space, F(1)) == 1
        assert seqfat(problem, cls, space, F(2)) == 0

    def test_gamma_must_be_positive(self):
        problem, cls = make_builtin("regression:three-point")
        with pytest.raises(ValidationError):
            seqfat(problem, cls, VersionSpace.full(2), 0)

    def test_needs_numeric_grid(self):
        problem, cls = make_builtin("multiclass:binary-constants")
        # labels equal predictions here and are numeric, so this passes shape
        # checks; use the set-valued builtin for the non-numeric rejection.
        problem2, cls2 = make_builtin("setvalued:pair")
        with pytest.raises(ValidationError):
            seqfat(problem2, cls2, VersionSpace.full(2), F(1, 2))

    def test_lower_bound_vs_smdim_on_random_grids(self):
        rng = random.Random(5)
        for _ in range(10):
            problem, cls = gen_regression(rng)
            space = VersionSpace.full(cls.num_hypotheses)
            for g in (F(1, 4), F(1, 2), F(1)):
                assert seqfat(problem, cls, space, g) <= smdim(problem, cls, space, g)


class TestMsdim:
    def test_pair_builtin(self):
        problem, cls = make_builtin("setvalued:pair")
        space = VersionSpace.full(2)
        assert msdim(problem, cls, space, F(1, 4)) == 1
        assert msdim_direct(problem, cls, space, F(1, 4)) == 1

    def test_full_set_label_gives_zero(self):
        # A label covering every prediction gives all-zero loss: no candidate
        # can force a gamma gap.
        preds = ("a", "b")
        labels = (("a", "b"),)
        loss = [[0, 0]]
        problem = make_problem(("x0",), labels, preds, loss)
        problem, cls = validate_problem(problem, HypothesisClass(((0,), (1,))))
        assert msdim(problem, cls, VersionSpace.full(2), F(1, 4)) == 0

    def test_delegation_matches_direct_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(15):
            problem, cls = gen_setvalued(rng)
            space = VersionSpace.full(cls.num_hypotheses)
            for g in (F(1, 4), F(1, 2), F(1)):
                assert msdim(problem, cls, space, g) == msdim_direct(problem, cls, space, g)

    def test_non_binary_loss_rejected(self):
        problem, cls = make_builtin("regression:three-point")
        with pytest.raises(ValidationError):
            msdim(problem, cls, VersionSpace.full(2), F(1, 4))


class TestEngineBudget:
    # smdim of the binary cube over two instances visits three version spaces
    # at margin 1/2; each built-in visits one, the instance prune skipping the
    # others.
    def test_memo_cap_raises_budget_error(self):
        problem, cls = binary_cube(2)
        engine = DimensionEngine(problem, cls, F(1, 2), memo_cap=1)
        with pytest.raises(BudgetError):
            engine.smdim(VersionSpace.full(4))

    @pytest.mark.parametrize(
        "cap, message",
        [
            (True, "memo cap must be an int, got True"),
            (2.5, "memo cap must be an int, got 2.5"),
            (0, "memo cap must be >= 1, got 0"),
        ],
    )
    def test_the_memo_cap_is_a_positive_int(self, cap, message):
        # True and 2.5 were once taken as caps.
        problem, cls = make_builtin("hilbert:orthonormal")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            DimensionEngine(problem, cls, F(1, 2), memo_cap=cap)

    def test_non_integer_env_cap_is_a_validation_error(self, monkeypatch):
        monkeypatch.setenv("SMDIM_MEMO_CAP", "1.5")
        problem, cls = make_builtin("hilbert:orthonormal")
        with pytest.raises(ValidationError, match="SMDIM_MEMO_CAP"):
            DimensionEngine(problem, cls, F(1, 2))

    def test_env_var_cap(self, monkeypatch):
        monkeypatch.setenv("SMDIM_MEMO_CAP", "1")
        problem, cls = binary_cube(2)
        engine = DimensionEngine(problem, cls, F(1, 2))
        assert engine.memo_cap == 1
        with pytest.raises(BudgetError):
            engine.smdim(VersionSpace.full(4))

    def test_memo_shared_across_queries(self):
        problem, cls = make_builtin("hilbert:orthonormal")
        engine = DimensionEngine(problem, cls, F(1, 2))
        engine.smdim(VersionSpace.full(3))
        before = len(engine._memo)
        engine.smdim(VersionSpace.full(3))
        assert len(engine._memo) == before

    def test_engine_freed_by_refcount(self):
        # An engine must not sit in a reference cycle: a large memo would
        # otherwise stay alive until the cyclic collector happens to run.
        problem, cls = make_builtin("regression:three-point")
        gc.disable()
        try:
            engine = DimensionEngine(problem, cls, F(1, 2))
            engine.smdim(VersionSpace.full(2))
            engine.certificate(VersionSpace.full(2))
            # The shared tables stay in the module's slot; the engine goes.
            assert dimensions._last_tables[0] is problem
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()


def lp_cases():
    """The seven built-ins and six regression grids, as freshly built objects."""
    rng = random.Random(41)
    cases = [make_builtin(name) for name in builtin_names()]
    return cases + [gen_regression(rng) for _ in range(6)]


def row_table(engine):
    """Each LP row id of `engine`, mapped to its row built from its (label,
    threshold) as AffineRow(loss[y], -eps), not read from the engine's
    integer rows. Every row is realized on the full class at some instance,
    where `candidate_rows` gives its label and integer threshold."""
    full = to_mask(range(engine.cls.num_hypotheses))
    return {
        row_id: AffineRow(engine.problem.loss[y], -F(key, engine._den))
        for x in range(engine.problem.num_instances)
        for y, key, _, row_id in engine.candidate_rows(full, x)
    }


def engine_rows(engine, ids):
    """The rows `ids` of `row_table(engine)`, in order."""
    table = row_table(engine)
    return [table[i] for i in ids]


def payoffs(rows):
    """Each row's payoff at every pure prediction: coefficient plus offset."""
    return [[c + r.offset for c in r.coefficients] for r in rows]


def test_each_lp_is_solved_once_per_problem_and_class(monkeypatch):
    # Engines at every margin on one (problem, class) pair share one game
    # table, which solves each distinct row-id tuple once, for the recursion,
    # certificates and Mrsoa's mixtures alike; the results equal those of the
    # unpatched solver on separately built copies. The rows handed to the
    # solver pay what each row id's (label, threshold) pays.
    def run(problem, cls):
        engines, out = [], []
        for gv in ORACLE_GAMMAS:
            engine = DimensionEngine(problem, cls, gv)
            full = VersionSpace.full(cls.num_hypotheses)
            out += [engine.smdim(full), engine.certificate(full).to_json()]
            if not gv.strict:
                learner = Mrsoa(problem, cls, engine=engine)
                out += [learner.predict(x) for x in range(problem.num_instances)]
            engines.append(engine)
        return engines, out

    expected = [run(problem, cls)[1] for problem, cls in lp_cases()]
    solved = []
    real = dimensions.solve_min_max
    monkeypatch.setattr(dimensions, "solve_min_max", lambda rows: solved.append(rows) or real(rows))
    results = []
    for problem, cls in lp_cases():
        solved.clear()
        engines, out = run(problem, cls)
        results.append(out)
        games = engines[0].games
        assert all(engine.games is games for engine in engines)
        table = row_table(engines[0])
        expected_rows = [payoffs([table[i] for i in ids]) for ids in games]
        assert [payoffs(rows) for rows in solved] == expected_rows
    assert results == expected


def test_engines_on_an_unvalidated_pair_share_tables():
    # A declared bound above the largest loss: engines keep the caller's
    # problem, whose bound_c is already the largest loss, and share tables.
    problem = make_problem(("x0",), ("a", "b"), ("a", "b"), [[0, 1], [1, 0]], bound_c=2)
    cls = HypothesisClass(((0,), (1,)))
    first = DimensionEngine(problem, cls, F(1, 4))
    second = DimensionEngine(problem, cls, F(1, 2))
    assert first.problem is problem and first.cls is cls and problem.bound_c == 1
    assert second.games is first.games and second.problem is first.problem


def test_equal_documents_parsed_separately_do_not_share_tables():
    doc = serialize_instance(*make_builtin("regression:three-point"))
    full = VersionSpace.full(2)
    pair = parse_instance_document(doc)
    first = DimensionEngine(*pair, F(1, 2))
    # The recursion decides this pair's games by bounds and a certificate
    # values them by their kernels; Mrsoa's mixture solves the game it plays.
    first.certificate(full)
    first.mixture(to_mask(full.members), 0)
    assert first.games and first.values
    again = parse_instance_document(doc)
    second = DimensionEngine(*again, F(1, 2))
    assert second.games is not first.games and not second.games
    assert second.values is not first.values and not second.values
    third = DimensionEngine(*again, F(1, 4))
    assert third.games is second.games and third.values is second.values
    # One slot: the first pair's tables are built afresh once another took it.
    fourth = DimensionEngine(*pair, F(1, 2))
    assert fourth.games is not first.games and fourth.values is not first.values


@pytest.mark.parametrize("name", builtin_names())
def test_the_recursion_leaves_the_integer_loss_table_uncached(name):
    # Engines scale the losses for their own tables and do not fill the
    # problem's cache: a workload that parses thousands of problems and only
    # computes their dimensions would otherwise keep a second loss table on
    # each of them.
    problem, cls = parse_instance_document(serialize_instance(*make_builtin(name)))
    smdim(problem, cls, VersionSpace.full(cls.num_hypotheses), F(1, 4))
    assert "scaled_loss" not in problem.__dict__


def test_the_tables_hold_each_threshold_and_row_once_as_integers():
    # steps[x][y] is (keys, steps): keys[i] is threshold i times den, and
    # steps[i] is (within, row_id). Each realized (label, threshold) has one
    # row id, and its row is (loss[y][z] - eps) * den at each pure prediction
    # z. Solved games, kernel-proved values and the rows' Candidates are
    # keyed by row ids; the steps and rows hold ints only, no Fraction and no
    # AffineRow. Engines build no part for the 0/1 routes.
    def leaves(obj):
        if isinstance(obj, (tuple, list)):
            for item in obj:
                yield from leaves(item)
        else:
            yield obj

    read = 0
    for problem, cls in bound_cases():
        engine = DimensionEngine(problem, cls, F(1, 4))
        full = VersionSpace.full(cls.num_hypotheses)
        engine.certificate(full)
        engine.mixture(to_mask(full.members), 0)
        den, steps, pure, rows, games, values, candidates = dimensions._tables(problem, cls)
        assert dimensions._last_tables[2].keys() == {"engine"}
        assert engine._den == den and engine._steps is steps and engine._pure is pure
        assert engine._rows is rows and len(rows) == len(pure)
        assert engine.games is games and engine.values is values and games
        assert engine._candidates is candidates
        assert all(type(v) is int for v in leaves((den, steps, pure, rows)))
        row_of = {}  # (label, key) -> row id
        for x, per_label in enumerate(steps):
            for y, (keys, label_steps) in enumerate(per_label):
                losses = [problem.loss[y][row[x]] for row in cls.table]
                assert [F(key, den) for key in keys] == sorted(set(losses))
                assert len(label_steps) == len(keys)
                for key, (within, row_id) in zip(keys, label_steps):
                    eps = F(key, den)
                    assert within == to_mask(h for h, v in enumerate(losses) if v <= eps)
                    assert pure[row_id] == tuple((v - eps) * den for v in problem.loss[y])
                    assert row_of.setdefault((y, key), row_id) == row_id
                    assert rows[row_id] == (y, key)
        assert sorted(row_of.values()) == list(range(len(pure)))
        assert all(max(ids) < len(pure) for ids in [*games, *values])
        for (y, key), row_id in row_of.items():
            if row_id in candidates:
                assert candidates[row_id] == Candidate(y, F(key, den))
        assert set(candidates) <= set(row_of.values())
        read += len(candidates)
    assert read


def counting_solver(monkeypatch):
    """Patch `dimensions.solve_min_max` to count its calls; returns the list
    of the rows each call was given."""
    solved = []
    real = dimensions.solve_min_max
    monkeypatch.setattr(dimensions, "solve_min_max", lambda rows: solved.append(rows) or real(rows))
    return solved


def test_msdim_direct_solves_each_label_tuple_once_per_pair(monkeypatch):
    # A label tuple's game value does not depend on the margin, so the calls
    # on one (problem, class) pair at all four margins solve each tuple once,
    # and give what they gave unpatched.
    rng = random.Random(29)
    cases = [gen_setvalued(rng) for _ in range(15)] + [make_builtin("setvalued:pair")]
    margins = (GammaValue.strict_zero(), F(1, 4), F(1, 2), F(1))

    def run():
        return [
            msdim_direct(problem, cls, VersionSpace.full(cls.num_hypotheses), g)
            for problem, cls in cases
            for g in margins
        ]

    expected = run()
    solved = counting_solver(monkeypatch)
    # The slot holds the last case's tables; the first case takes it.
    results, total = [], 0
    for problem, cls in cases:
        solved.clear()
        for g in margins:
            results.append(msdim_direct(problem, cls, VersionSpace.full(cls.num_hypotheses), g))
        keys = [tuple(rows) for rows in solved]
        assert len(keys) == len(set(keys))
        total += len(keys)
    assert results == expected and total


def test_equal_pairs_parsed_separately_share_no_route_memo(monkeypatch):
    # The slot is keyed by identity: calls on one pair reuse its label-tuple
    # values, and the same document parsed again solves them afresh.
    doc = serialize_instance(*make_builtin("setvalued:pair"))
    full = VersionSpace.full(2)
    solved = counting_solver(monkeypatch)
    pair = parse_instance_document(doc)
    first = msdim_direct(*pair, full, F(1, 4))
    routes = dimensions._zero_one_routes(*pair)
    assert routes["values"] and solved
    count = len(solved)
    assert msdim_direct(*pair, full, F(1, 4)) == first and len(solved) == count
    again = parse_instance_document(doc)
    assert msdim_direct(*again, full, F(1, 4)) == first
    assert len(solved) == 2 * count
    assert dimensions._zero_one_routes(*again) is not routes


def test_another_pairs_engine_or_route_evicts_the_route_memo(monkeypatch):
    # One slot: an engine, `ldim_k` or `msdim_direct` on another pair takes
    # it, so the first pair's label tuples are solved again afterwards.
    problem, cls = make_builtin("setvalued:pair")
    other, other_cls = make_builtin("multiclass:binary-constants")
    full = VersionSpace.full(2)
    solved = counting_solver(monkeypatch)
    evictions = (
        lambda: DimensionEngine(other, other_cls, F(1, 2)),
        lambda: ldim_k(other, other_cls, full, 1),
        lambda: msdim_direct(other, other_cls, full, F(1, 2)),
    )
    dim = msdim_direct(problem, cls, full, F(1, 4))
    count = len(solved)
    assert count
    for evict in evictions:
        routes = dimensions._zero_one_routes(problem, cls)
        assert routes["values"]
        evict()
        solved.clear()
        assert msdim_direct(problem, cls, full, F(1, 4)) == dim and len(solved) == count
        assert dimensions._zero_one_routes(problem, cls) is not routes


def test_a_loss_outside_zero_and_one_is_refused_on_every_call():
    # Nothing is stored for a loss that is not 0/1, so the check runs, and
    # raises, on every call, also once an engine holds the pair's tables.
    problem = make_problem((0,), (0, 1), (0, 1), [[0, 1], [1, "1/2"]])
    cls = HypothesisClass(((0,), (1,)))
    full = VersionSpace.full(2)
    routes = (
        ldim_k,
        lambda p, c, space: msdim(p, c, space, F(1, 4)),
        lambda p, c, space: msdim_direct(p, c, space, F(1, 4)),
    )
    message = re.escape("loss[1][1] = 1/2 is not in {0, 1}")
    for _ in range(2):
        for route in routes:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                route(problem, cls, full)
    assert dimensions._last_tables[0] is problem and "routes" not in dimensions._last_tables[2]
    assert smdim(problem, cls, full, F(1, 4)) == 1
    for route in routes:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            route(problem, cls, full)


def test_the_zero_one_routes_and_engines_build_only_their_own_part(monkeypatch):
    # On a fresh pair, `ldim_k` and `msdim_direct` build no threshold steps
    # or LP rows (their only call of `scaled_loss`), and an engine builds no
    # zero-loss masks; `msdim` and `ldim_k` on one pair build both, once.
    scaled = []
    real = dimensions.scaled_loss
    monkeypatch.setattr(dimensions, "scaled_loss", lambda loss: scaled.append(loss) or real(loss))
    doc = serialize_instance(*make_builtin("setvalued:pair"))
    full = VersionSpace.full(2)
    routes = (
        lambda pair: ldim_k(*pair, full, 1),
        lambda pair: msdim_direct(*pair, full, F(1, 4)),
    )
    for route in routes:
        pair = parse_instance_document(doc)
        route(pair)
        assert not scaled and dimensions._last_tables[2].keys() == {"routes"}
    pair = parse_instance_document(doc)
    DimensionEngine(*pair, F(1, 4)).smdim(full)
    assert len(scaled) == 1 and dimensions._last_tables[2].keys() == {"engine"}
    pair = parse_instance_document(doc)
    for _ in range(2):
        msdim(*pair, full, F(1, 4))
        ldim_k(*pair, full, 1)
    assert len(scaled) == 2 and dimensions._last_tables[2].keys() == {"engine", "routes"}


def test_msdim_checks_the_loss_without_building_the_zero_one_routes():
    # msdim reads the engine's part alone: its 0/1 check builds no zero-loss
    # masks or rows, and a loss outside {0, 1} is refused on every call.
    doc = serialize_instance(*make_builtin("setvalued:pair"))
    full = VersionSpace.full(2)
    problem, cls = parse_instance_document(doc)
    dim = msdim(problem, cls, full, F(1, 4))
    assert dimensions._last_tables[0] is problem and dimensions._last_tables[2].keys() == {"engine"}
    assert dim == msdim_direct(*parse_instance_document(doc), full, F(1, 4))
    problem = make_problem((0,), (0, 1), (0, 1), [[0, 1], [1, "1/2"]])
    cls = HypothesisClass(((0,), (1,)))
    message = re.escape("loss[1][1] = 1/2 is not in {0, 1}")
    for _ in range(2):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            msdim(problem, cls, full, F(1, 4))


def test_msdim_equals_msdim_direct_with_margins_in_descending_order():
    # The shared label-tuple values are read at margins in either order; each
    # call equals msdim and msdim_direct on a copy parsed for it alone.
    rng = random.Random(31)
    margins = (F(1), F(1, 2), F(1, 4), GammaValue.strict_zero())
    for problem, cls in [gen_setvalued(rng) for _ in range(15)] + [make_builtin("setvalued:pair")]:
        full = VersionSpace.full(cls.num_hypotheses)
        direct = [msdim_direct(problem, cls, full, g) for g in margins]
        assert direct == [msdim(problem, cls, full, g) for g in margins]
        doc = serialize_instance(problem, cls)
        assert direct == [msdim_direct(*parse_instance_document(doc), full, g) for g in margins]


def test_value_readers_build_no_mixture(monkeypatch):
    # The recursion, certificates and msdim_direct read only game values, so
    # they build no Mixture; Mrsoa's mixture, read afterwards, is the one the
    # solver gives for the rows of the game it plays.
    built = []
    real_settle = Mixture._settle
    monkeypatch.setattr(Mixture, "_settle", lambda mu, *args: built.append(mu) or real_settle(mu, *args))
    solved = []
    real_solve = dimensions.solve_min_max
    monkeypatch.setattr(dimensions, "solve_min_max", lambda rows: solved.append(rows) or real_solve(rows))
    engines = []
    for gv in ORACLE_GAMMAS:
        # Fresh objects at each margin, so every game is solved here. Most
        # certified games are valued by their kernels, so 80 more dense losses
        # bring the games the simplex solves to over 1000.
        rng = random.Random(83)
        for problem, cls in bound_cases() + [dense_losses(rng) for _ in range(80)]:
            engine = DimensionEngine(problem, cls, gv)
            full = VersionSpace.full(cls.num_hypotheses)
            engine.smdim(full)
            engine.certificate(full)
            engines.append(engine)
    rng = random.Random(29)
    for problem, cls in [gen_setvalued(rng) for _ in range(6)] + [make_builtin("setvalued:pair")]:
        for g in (GammaValue.strict_zero(), F(1, 4), F(1, 2)):
            msdim_direct(problem, cls, VersionSpace.full(cls.num_hypotheses), g)
    assert len(solved) >= 1000 and built == []
    for engine in engines:
        full = to_mask(range(engine.cls.num_hypotheses))
        for x in range(engine.problem.num_instances):
            mu = engine.mixture(full, x)
            (ids,) = [ids for ids, sol in engine.games.items() if sol.mixture is mu]
            assert mu == real_solve(engine_rows(engine, ids)).mixture
    assert built


def dense_losses(rng):
    """A random dense loss on 4 to 6 labels, each also a prediction, with
    entries in quarters, on two instances and 5 to 8 hypotheses. Unlike the
    other families its games often need a learner or adversary mixture of
    support three or more, which the engine's bounds leave undecided."""
    n = rng.randint(4, 6)
    loss = [[F(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(n)]
    problem = make_problem(tuple(range(2)), tuple(range(n)), tuple(range(n)), loss)
    rows = list(product(range(n), repeat=2))
    cls = HypothesisClass(tuple(sorted(rng.sample(rows, rng.randint(5, 8)))))
    return validate_problem(problem, cls)


def bound_cases():
    """The built-ins, the dim-cold-shaped grids, instances of every `verify`
    generator and dense random losses, as freshly built objects."""
    rng = random.Random(67)
    cases = [make_builtin(name) for name in builtin_names()] + dim_cold_grids()
    for gen in (gen_multiclass, lambda r: gen_list(r, 2), gen_setvalued, gen_regression):
        cases += [gen(rng) for _ in range(8)]
    return cases + [dense_losses(rng) for _ in range(16)]


def pure_bound(rows, gv):
    """The exact bounds on the game over `rows`, from the rows' Fractions:
    False when the best row's payoff misses the margin against a pure
    prediction or a uniform pair of predictions, True when the payoff of the
    uniform mixture over all the rows, or over two of them, reaches it at
    every pure prediction, else None."""
    width = len(rows[0].coefficients)
    at = [[r.coefficients[z] + r.offset for r in rows] for z in range(width)]
    pairs = [[(p + q) / 2 for p, q in zip(a, b)] for a, b in combinations(at, 2)]
    if any(not gv.passes(max(payoffs)) for payoffs in at + pairs):
        return False
    for support in [range(len(rows))] + list(combinations(range(len(rows)), 2)):
        if all(gv.passes(sum(payoffs[i] for i in support) / len(support)) for payoffs in at):
            return True
    return None


def test_pure_bounds_agree_with_the_simplex(monkeypatch):
    # Every game the recursion and certificates meet: the engine's integer
    # bounds decide it exactly when the Fraction ones do, and a decided game
    # passes exactly when its solved value does.
    met = []
    tables = {}  # engine -> its row_table
    real = DimensionEngine._pure_verdict

    def spy(engine, ids):
        verdict = real(engine, ids)
        if engine not in tables:
            tables[engine] = row_table(engine)
        met.append((engine.gamma, tuple(tables[engine][i] for i in ids), verdict))
        return verdict

    monkeypatch.setattr(DimensionEngine, "_pure_verdict", spy)
    for problem, cls in bound_cases():
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            DimensionEngine(problem, cls, gv).certificate(full)
    values = {}
    for gv, rows, verdict in met:
        assert verdict == pure_bound(rows, gv)
        if verdict is not None:
            if rows not in values:
                values[rows] = solve_min_max(rows).value
            assert gv.passes(values[rows]) == verdict
    verdicts = [verdict for _, _, verdict in met]
    assert min(verdicts.count(v) for v in (False, True, None)) >= 100
    assert any(gv.strict and verdict for gv, _, verdict in met)


def test_the_recursion_solves_no_game_a_pure_bound_decides():
    # Then Mrsoa's sweep, over every (space, x): of the games a pure bound
    # decides, it solves only those whose mixtures it plays.
    solved = played = 0
    for gv in ORACLE_GAMMAS:
        # Fresh objects at each margin, so the game table holds only this
        # engine's games.
        for problem, cls in bound_cases():
            engine = DimensionEngine(problem, cls, gv)
            engine.smdim(VersionSpace.full(cls.num_hypotheses))
            table = row_table(engine)
            for ids in engine.games:
                assert pure_bound([table[i] for i in ids], gv) is None
            solved += len(engine.games)
            full = to_mask(range(cls.num_hypotheses))
            spaces = range(1, full + 1) if cls.num_hypotheses <= 8 else (full,)
            mixtures = {
                id(engine.mixture(members, x))
                for members in spaces
                for x in range(problem.num_instances)
            }
            for ids, sol in engine.games.items():
                if engine._pure_verdict(ids) is not None:
                    assert id(sol.mixture) in mixtures
                    played += 1
    assert solved >= 100 and played >= 100


def test_a_pure_payoff_exactly_at_the_margin_does_not_refute():
    # At prediction "h" both rows pay exactly 1/2, the game's value.
    problem = make_problem(("x",), (0, 1), (0, 1, "h"), [[0, 1, "1/2"], [1, 0, "1/2"]])
    cls = HypothesisClass(((0,), (1,)))
    engine = DimensionEngine(problem, cls, F(1, 2))
    ids = engine.qualifying_rows(0b11, 0, 0)
    assert solve_min_max(engine_rows(engine, ids)).value == F(1, 2)
    assert engine._pure_verdict(ids) is True
    assert engine.smdim(VersionSpace.full(2)) == 1


def test_a_strict_game_with_an_all_zero_row_is_not_certified():
    # Label "a" costs 1 everywhere, so its row at threshold 1 is all zero;
    # the uniform adversary mixture pays 0 at z0 and z1 and no pure
    # prediction refutes the game, whose value is 0, so the strict game fails.
    # The uniform pair of predictions (z0, z1) pays 0 on every row, which
    # refutes it.
    problem = make_problem(
        ("x",), ("a", "b", "c"), ("z0", "z1", "z2", "z3"),
        [[1, 1, 1, 1], [2, 0, 1, 2], [0, 2, 2, 1]],
    )
    cls = HypothesisClass(((2,), (3,)))
    engine = DimensionEngine(problem, cls, GammaValue.strict_zero())
    ids = engine.qualifying_rows(0b11, 0, 0)
    rows = engine_rows(engine, ids)
    assert [c + rows[0].offset for c in rows[0].coefficients] == [0] * 4
    assert solve_min_max(rows).value == 0
    assert engine._pure_verdict(ids) is False
    assert engine.smdim(VersionSpace.full(2)) == 0


def test_pair_means_exactly_at_the_margin_certify_and_do_not_refute():
    # Rows a = (0, 1, 1), b = (1, 0, 1) and c = (0, 0, 2); the game's value is
    # 1/2. No pure prediction refutes it and the uniform mixture over all
    # three rows pays 1/3 at z0. The uniform pair (z0, z1) pays at most 1/2
    # on every row, exactly the margin, so it does not refute; the uniform
    # pair of rows (a, b) pays at least 1/2 at every z, so it certifies.
    problem = make_problem(
        ("x",), ("a", "b", "c"), ("z0", "z1", "z2"), [[0, 1, 1], [1, 0, 1], [0, 0, 2]]
    )
    cls = HypothesisClass(((0,), (1,)))
    engine = DimensionEngine(problem, cls, F(1, 2))
    ids = engine.qualifying_rows(0b11, 0, 0)
    rows = engine_rows(engine, ids)
    assert payoffs(rows) == [[0, 1, 1], [1, 0, 1], [0, 0, 2]]
    assert solve_min_max(rows).value == F(1, 2)
    assert engine._pure_verdict(ids) is True
    assert engine.smdim(VersionSpace.full(2)) == 1


def test_a_strict_row_pair_paying_exactly_zero_does_not_certify():
    # Rows r = (1, -1, 0, 0), s = (-1, 1, 0, 0), c = (1, 1, 0, -2) and
    # d = (-2, 0, 1, 1): every pure prediction and every uniform pair of
    # predictions leaves some row above 0, and the uniform mixture over all
    # four pays -1/4 at z0. The uniform pair (r, s) pays exactly 0 everywhere,
    # as does the uniform learner against every row, so the value is 0 and
    # the strict game fails, undecided by the bounds.
    problem = make_problem(
        ("x",), ("a", "b", "c", "d"), ("z0", "z1", "z2", "z3"),
        [[2, 0, 1, 1], [0, 2, 1, 1], [3, 3, 2, 0], [0, 2, 3, 3]],
    )
    cls = HypothesisClass(((0,), (1,), (2,), (3,)))
    engine = DimensionEngine(problem, cls, GammaValue.strict_zero())
    thresholds = {0: 1, 1: 1, 2: 2, 3: 2}
    ids = tuple(
        row_id
        for y, key, _, row_id in engine.candidate_rows(0b1111, 0)
        if thresholds[y] == F(key, engine._den)
    )
    rows = engine_rows(engine, ids)
    assert payoffs(rows) == [
        [1, -1, 0, 0], [-1, 1, 0, 0], [1, 1, 0, -2], [-2, 0, 1, 1]
    ]
    assert solve_min_max(rows).value == 0
    assert engine._pure_verdict(ids) is None
    assert engine._passes(ids) is False


@settings(max_examples=200)
@given(st.data())
def test_every_decided_verdict_is_the_simplex_verdict(data):
    # A random loss with entries in units of 1/q, a class predicting every z
    # at one instance, so each (label, realized loss) is a row, and a game
    # over some of those rows at a random margin.
    q = data.draw(st.sampled_from((1, 2, 3, 4)))
    num_labels = data.draw(st.integers(2, 4))
    num_predictions = data.draw(st.integers(2, 5))
    loss = data.draw(
        st.lists(
            st.lists(st.integers(0, 2 * q), min_size=num_predictions, max_size=num_predictions),
            min_size=num_labels,
            max_size=num_labels,
        )
    )
    problem = make_problem(
        ("x",), tuple(range(num_labels)), tuple(range(num_predictions)),
        [[F(v, q) for v in row] for row in loss],
    )
    cls = HypothesisClass(tuple((z,) for z in range(num_predictions)))
    gv = data.draw(
        st.one_of(
            st.just(GammaValue.strict_zero()),
            st.builds(lambda a: GammaValue.of(F(a, 4)), st.integers(1, 6)),
        )
    )
    engine = DimensionEngine(problem, cls, gv)
    # One row per drawn label, at one of its realized thresholds, as in the
    # recursion's games.
    labels = data.draw(st.sets(st.integers(0, num_labels - 1), min_size=2))
    steps = [label_steps for _, label_steps in engine._steps[0]]
    ids = tuple(steps[y][data.draw(st.integers(0, len(steps[y]) - 1))][1] for y in sorted(labels))
    rows = engine_rows(engine, ids)
    verdict = engine._pure_verdict(ids)
    assert verdict == pure_bound(rows, gv)
    passes = gv.passes(solve_min_max(rows).value)
    assert verdict is None or verdict == passes
    assert engine._passes(ids) == passes


def test_the_recursion_solves_no_game_on_the_dim_cold_grids():
    # At the dim-cold benchmark's margins every game the recursion meets on
    # grids of its shape is decided by an exact bound, and every node value
    # of their certificates is proved by a two-point kernel.
    for gamma in (F(1, 8), F(1, 4)):
        # Fresh objects at each margin, so the game table is this engine's.
        for problem, cls in dim_cold_grids():
            engine = DimensionEngine(problem, cls, gamma)
            full = VersionSpace.full(cls.num_hypotheses)
            assert engine.smdim(full) >= 1
            assert not engine.games
            assert engine.certificate(full).nodes
            assert not engine.games and engine.values


def test_the_kernel_skips_columns_but_not_its_value_on_the_dim_cold_grids():
    # Every game the recursion and the certificates meet on grids of the
    # dim-cold benchmark's shape at its two margins: the kernel gives the
    # unpruned kernel's value, and the pure-row skip leaves out some
    # columns' row pairs.
    games = {}
    for gamma in (F(1, 8), F(1, 4)):
        for problem, cls in dim_cold_grids():
            engine = DimensionEngine(problem, cls, gamma)
            full = VersionSpace.full(cls.num_hypotheses)
            engine.smdim(full)
            engine.certificate(full)
            node_ids = [entry[1] for entry in engine._memo.values() if entry]
            for ids in (*engine._verdicts, *node_ids):
                games[tuple(engine._pure[i] for i in ids), engine._den] = None
    _, skipped = check_kernel_against_unpruned(games)
    assert len(games) >= 400 and skipped > 0


def test_certificates_and_candidates_build_one_candidate_per_lp_row(monkeypatch):
    # Engines on one pair share a Candidate per LP row, at every margin:
    # certificates and the candidates accessor read the same objects.
    built = []
    real = dimensions.Candidate
    monkeypatch.setattr(dimensions, "Candidate", lambda y, eps: built.append((y, eps)) or real(y, eps))
    problem, cls = dim_cold_grids()[9]
    full = VersionSpace.full(cls.num_hypotheses)
    listed = {}
    for gamma in GRID_GAMMAS:
        engine = DimensionEngine(problem, cls, gamma)
        nodes = engine.certificate(full).nodes.values()
        assert nodes
        for node in nodes:
            for x in range(problem.num_instances):
                for cand, _ in engine.candidates(node.space, x):
                    assert listed.setdefault((cand.label, cand.threshold), cand) is cand
            for cand, _ in node.candidates:
                assert listed[cand.label, cand.threshold] is cand
    assert len(built) == len(set(built)) == len(listed) <= len(engine._pure)


def test_certificate_node_values_are_the_solved_values():
    # Whether a node's value comes from the game table, a kernel or the
    # simplex, it is the solved value of the node's candidate rows.
    kernel_valued = solved = 0
    for problem, cls in bound_cases():
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            engine = DimensionEngine(problem, cls, gv)
            for node in engine.certificate(full).nodes.values():
                rows = [AffineRow(problem.loss[c.label], -c.threshold) for c, _ in node.candidates]
                assert node.value == solve_min_max(rows).value
        # The engines at every margin share these two tables.
        kernel_valued += len(engine.values)
        solved += len(engine.games)
    assert kernel_valued >= 100 and solved >= 100


def test_each_game_is_bounded_once_per_engine(monkeypatch):
    # The recursion, certificates and Mrsoa's sweeps read each game's verdict
    # from the engine's verdict memo after the first time.
    met = []
    real = DimensionEngine._pure_verdict
    monkeypatch.setattr(
        DimensionEngine, "_pure_verdict", lambda engine, ids: met.append((engine, ids)) or real(engine, ids)
    )
    engines = []
    for gv in ORACLE_GAMMAS:
        for problem, cls in bound_cases():
            engine = DimensionEngine(problem, cls, gv)
            full = VersionSpace.full(cls.num_hypotheses)
            engine.smdim(full)
            engine.certificate(full)
            for x in range(problem.num_instances):
                engine.mixture(to_mask(full.members), x)
            engines.append(engine)
    keys = [(id(engine), ids) for engine, ids in met]
    assert len(keys) == len(set(keys)) >= 1000
    assert sum(len(engine._verdicts) for engine in engines) == len(keys)


def test_the_qualifying_scan_is_the_candidate_list_definition(monkeypatch):
    # `qualifying_rows` walks the threshold steps itself; at every (members,
    # x, depth) the recursion and Mrsoa's mixtures meet, it gives each label's
    # first candidate in `candidate_rows` whose child is shatterable to the
    # child depth. Besides the spaces of the recursion and of certificate(),
    # the engine is asked about every node of a walk over the full candidate
    # lists (`reference_certificate_nodes`), whose later children pruning
    # skipped. A scan at child depth 0 is `_first_rows` at k = 0, which
    # `_branch` calls at depth 1 without `qualifying_rows`. Ten more grids of
    # the dim-cold shape, where most deep scans are, keep the counts over
    # their bars although the instance prune skips many scans.
    met = []
    real, real_first = DimensionEngine.qualifying_rows, DimensionEngine._first_rows

    def spy(engine, members, x, child_depth):
        ids = real(engine, members, x, child_depth)
        if child_depth:
            met.append((engine, members, x, child_depth, ids))
        return ids

    def spy_first(engine, members, x, k):
        ids = real_first(engine, members, x, k)
        if not k:
            met.append((engine, members, x, 0, ids))
        return ids

    monkeypatch.setattr(DimensionEngine, "qualifying_rows", spy)
    monkeypatch.setattr(DimensionEngine, "_first_rows", spy_first)
    for problem, cls in bound_cases() + dim_cold_grids(59):
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            engine = DimensionEngine(problem, cls, gv)
            engine.certificate(full)
            nodes = reference_certificate_nodes(engine, full, full=True)
            if not gv.strict:
                for x in range(problem.num_instances):
                    engine.mixture(to_mask(full.members), x)
                for (members, _), node in nodes.items():
                    engine.mixture(to_mask(members), node.instance)
    monkeypatch.undo()
    deep = 0
    for engine, members, x, child_depth, ids in met:
        expected, found = [], set()
        for y, _, child, row_id in engine.candidate_rows(members, x):
            if y not in found and engine._shatter(child, child_depth):
                found.add(y)
                expected.append(row_id)
        assert ids == tuple(expected)
        deep += child_depth >= 2
    assert len(met) >= 20_000 and deep >= 4_000


def test_the_instance_prune_skips_only_instances_whose_qualifying_game_fails(monkeypatch):
    # At depth d >= 2 `_branch` reads the optimistic rows at x first, each
    # label's first step whose child has more than d - 1 members, and probes
    # no child at x when their game misses the margin. Each row of the
    # qualifying scan is of a label the optimistic rows hold, and pointwise
    # at most its row; at every instance `_branch` skipped without scanning,
    # the scan finds no rows or a failing game.
    # branched: (engine, members, depth, result, x scanned) per `_branch` call;
    # scanned: the x scanned so far by each `_branch` call under way.
    branched, scanned = [], []
    real_branch, real_scan = DimensionEngine._branch, DimensionEngine.qualifying_rows

    def spy_branch(engine, members, depth):
        scanned.append(set())
        result = real_branch(engine, members, depth)
        branched.append((engine, members, depth, result, scanned.pop()))
        return result

    def spy_scan(engine, members, x, child_depth):
        scanned[-1].add(x)
        return real_scan(engine, members, x, child_depth)

    monkeypatch.setattr(DimensionEngine, "_branch", spy_branch)
    monkeypatch.setattr(DimensionEngine, "qualifying_rows", spy_scan)
    for problem, cls in bound_cases() + dim_cold_grids(59):
        full = VersionSpace.full(cls.num_hypotheses)
        for gv in ORACLE_GAMMAS:
            DimensionEngine(problem, cls, gv).certificate(full)
    monkeypatch.undo()
    skipped = 0
    for engine, members, depth, result, probed in branched:
        if depth < 2:
            continue
        for x in range(result[0] + 1 if result else engine.problem.num_instances):
            label_of = {i: y for y, (_, steps) in enumerate(engine._steps[x]) for _, i in steps}
            bound = {label_of[i]: engine._pure[i] for i in engine._first_rows(members, x, depth - 1)}
            ids = engine.qualifying_rows(members, x, depth - 1)
            for i in ids:
                assert label_of[i] in bound
                assert all(map(operator.le, engine._pure[i], bound[label_of[i]]))
            if x not in probed:
                skipped += 1
                assert not ids or not engine._passes(ids)
    assert skipped >= 1000


def test_the_memo_cap_boundary_is_the_count_of_spaces_visited():
    # On this grid smdim() visits 261 version spaces, and certificate() reads
    # its nodes from the memo, so a cap of 261 suffices for both calls and a
    # cap of 260 for neither.
    problem, cls = dim_cold_grids()[9]
    full = VersionSpace.full(cls.num_hypotheses)
    engine = DimensionEngine(problem, cls, F(1, 8), memo_cap=261)
    assert engine.smdim(full) == 4
    assert engine.certificate(full).depth == 4
    assert len(engine._spaces) == 261
    assert DimensionEngine(problem, cls, F(1, 8), memo_cap=261).certificate(full).depth == 4
    with pytest.raises(BudgetError):
        DimensionEngine(problem, cls, F(1, 8), memo_cap=260).smdim(full)
    with pytest.raises(BudgetError):
        DimensionEngine(problem, cls, F(1, 8), memo_cap=260).certificate(full)


def test_negative_hypothesis_index_is_a_validation_error():
    # The space is rejected when it is built, before to_mask would shift by
    # a negative count and raise a bare ValueError.
    problem, cls = make_builtin("multiclass:binary-constants")
    engine = DimensionEngine(problem, cls, F(1, 4))
    calls = (
        engine.smdim,
        lambda space: engine.shatterable(space, 1),
        engine.certificate,
        lambda space: engine.candidates(space, 0),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="negative hypothesis index -1"):
            call(VersionSpace((-1, 0)))


@pytest.mark.parametrize(
    "method, argument, message",
    [
        ("shatterable", 1.5, "depth must be an int, got 1.5"),
        ("shatterable", True, "depth must be an int, got True"),
        ("shatterable", -1, "depth must be >= 0, got -1"),
        ("candidates", 0.0, "instance index 0.0 is not an int"),
        ("candidates", False, "instance index False is not an int"),
        ("candidates", 1, "instance index 1 out of range"),
    ],
)
def test_engine_accessors_refuse_a_depth_or_instance_that_is_not_an_int(method, argument, message):
    # A depth of 1.5 once answered False, and recursed at child depth 0.5 on
    # larger spaces; an instance of 0.0 raised TypeError from the step table.
    # Both go through the rules every other count and index does
    # (`check_count`, `check_index`).
    problem, cls = make_builtin("hilbert:orthonormal")
    engine = DimensionEngine(problem, cls, F(1, 2))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        getattr(engine, method)(VersionSpace.full(cls.num_hypotheses), argument)


@pytest.mark.parametrize(
    "builtin, route",
    [
        ("multiclass", ldim_k),
        ("multiclass", lambda p, c, space: msdim_direct(p, c, space, F(1, 2))),
        ("regression", lambda p, c, space: seqfat(p, c, space, F(1))),
    ],
    ids=["ldim_k", "msdim_direct", "seqfat"],
)
def test_oracle_routes_refuse_a_class_that_does_not_fit_the_problem(builtin, route):
    # The engine checks the pair when it builds its tables; the independent
    # routes check it too, so a negative index cannot wrap to the last
    # prediction and a wider table cannot be read past the problem.
    problem, _ = make_builtin(builtin)
    cases = [
        (((0,), (-1,)), "out-of-range index -1"),
        (((0,), (3,)), "out-of-range index 3"),
        (((0, 0), (1, 1)), "covers 2 instances, problem has 1"),
    ]
    for table, message in cases:
        with pytest.raises(ValidationError, match=message):
            route(problem, HypothesisClass(table), VersionSpace.full(2))


def test_candidates_accessor_lists_realized_thresholds():
    problem, cls = make_builtin("regression:three-point")
    engine = DimensionEngine(problem, cls, F(1, 2))
    pairs = engine.candidates(VersionSpace.full(2), 0)
    by_label = {}
    for cand, child in pairs:
        by_label.setdefault(cand.label, []).append((cand.threshold, child.members))
    # label 0 is grid point -1; losses against predictions (-1, +1) are 0 and 2
    assert by_label[0] == [(F(0), (0,)), (F(2), (0, 1))]


class TestRestrict:
    """`DimensionEngine.restrict` is the one place that applies the rule
    {h in V : loss(y, h(x)) <= eps}; here it is checked against the table."""

    @given(st.randoms(use_true_random=False), st.data())
    def test_restrict_matches_definition(self, rng, data):
        problem, cls = small_random_instance(rng)
        engine = DimensionEngine(problem, cls, F(1, 4))
        members = sorted(
            data.draw(st.sets(st.sampled_from(range(cls.num_hypotheses)), min_size=1))
        )
        x = data.draw(st.sampled_from(range(problem.num_instances)))
        y = data.draw(st.sampled_from(range(problem.num_labels)))
        loss = {h: problem.loss[y][cls.table[h][x]] for h in members}
        realized = sorted(set(loss.values()))
        midpoints = [(a + b) / 2 for a, b in zip(realized, realized[1:])]
        above = [problem.bound_c + F(1, 3)]
        eps = data.draw(st.sampled_from([None] + realized + midpoints + above))
        cut = realized[0] if eps is None else eps
        expected = to_mask(h for h in members if loss[h] <= cut)
        assert engine.restrict(to_mask(members), x, y, eps) == expected

    def test_restrict_on_every_builtin(self):
        # Every nonempty subspace, instance and label, at eps = None, below
        # every loss, at and between the realized thresholds and above them all.
        for name in builtin_names():
            problem, cls = make_builtin(name)
            engine = DimensionEngine(problem, cls, F(1, 4))
            for x, y in product(range(problem.num_instances), range(problem.num_labels)):
                losses = [problem.loss[y][row[x]] for row in cls.table]
                realized = sorted(set(losses))
                midpoints = [(a + b) / 2 for a, b in zip(realized, realized[1:])]
                cuts = [realized[0] - 1, *realized, *midpoints, realized[-1] + F(1, 3)]
                for members in range(1, 1 << cls.num_hypotheses):
                    inside = [h for h in range(cls.num_hypotheses) if members >> h & 1]
                    for eps in [None, *cuts]:
                        cut = min(losses[h] for h in inside) if eps is None else eps
                        expected = to_mask(h for h in inside if losses[h] <= cut)
                        assert engine.restrict(members, x, y, eps) == expected, (name, eps)

    @given(st.randoms(use_true_random=False), st.data())
    def test_first_candidate_of_each_label_has_its_smallest_threshold(self, rng, data):
        problem, cls = small_random_instance(rng)
        engine = DimensionEngine(problem, cls, F(1, 4))
        members = sorted(
            data.draw(st.sets(st.sampled_from(range(cls.num_hypotheses)), min_size=1))
        )
        x = data.draw(st.sampled_from(range(problem.num_instances)))
        first = {}
        for y, key, child, row_id in engine.candidate_rows(to_mask(members), x):
            first.setdefault(y, (key, child, row_id))
        for y in range(problem.num_labels):
            smallest = min(problem.loss[y][cls.table[h][x]] for h in members)
            key, child, row_id = first[y]
            assert F(key, engine._den) == smallest
            assert child == engine.restrict(to_mask(members), x, y)
            assert engine_rows(engine, [row_id]) == [AffineRow(problem.loss[y], -smallest)]

    @given(st.randoms(use_true_random=False), st.data())
    def test_depth_zero_qualifying_rows_are_first_candidates(self, rng, data):
        problem, cls = small_random_instance(rng)
        engine = DimensionEngine(problem, cls, F(1, 4))
        members = to_mask(
            data.draw(st.sets(st.sampled_from(range(cls.num_hypotheses)), min_size=1))
        )
        x = data.draw(st.sampled_from(range(problem.num_instances)))
        first = {}
        for y, _, _, row_id in engine.candidate_rows(members, x):
            first.setdefault(y, row_id)
        assert engine.qualifying_rows(members, x, 0) == tuple(first.values())


def seqfat_reference(problem, cls, gamma):
    """The sequential fat-shattering dimension of the whole class, from the
    definition: on member tuples, with Fraction comparisons, and no depth cap.

    Depth d+1 needs an instance x and a grid witness s with both {h : h(x) >=
    s + gamma} and {h : h(x) <= s - gamma} of depth d. The two sets are
    disjoint for gamma > 0, so each is smaller than its parent and the
    recursion ends."""
    values = [F(v) for v in problem.predictions]
    table = cls.table
    memo = {}

    def shatter(members, depth):
        if depth == 0:
            return bool(members)
        key = (members, depth)
        if key not in memo:
            memo[key] = any(
                upper and lower and shatter(upper, depth - 1) and shatter(lower, depth - 1)
                for x in range(problem.num_instances)
                for s in values
                for upper, lower in [
                    (
                        tuple(h for h in members if values[table[h][x]] >= s + gamma),
                        tuple(h for h in members if values[table[h][x]] <= s - gamma),
                    )
                ]
            )
        return memo[key]

    members = tuple(range(cls.num_hypotheses))
    depth = 0
    while shatter(members, depth + 1):
        depth += 1
    return depth


def fractional_grids(rng, count):
    """Regression grids of three to five values with denominators 2, 3 and 5
    in [-2, 2], absolute loss, one to three instances and two to eight
    hypotheses; each with every gap between two grid values as a margin, so
    that s + gamma and s - gamma land on grid values."""
    points = sorted({F(k, d) for d in (2, 3, 5) for k in range(-2 * d, 2 * d + 1)})
    cases = []
    for _ in range(count):
        grid = tuple(sorted(rng.sample(points, rng.randint(3, 5))))
        loss = [[abs(y - z) for z in grid] for y in grid]
        nx = rng.randint(1, 3)
        rows = list(product(range(len(grid)), repeat=nx))
        cls = HypothesisClass(tuple(sorted(rng.sample(rows, rng.randint(2, min(8, len(rows)))))))
        problem = make_problem(tuple(range(nx)), grid, grid, loss)
        gaps = sorted({b - a for a, b in combinations(grid, 2)})
        cases.append((validate_problem(problem, cls), gaps))
    return cases


def test_seqfat_matches_the_definition_on_fractional_grids():
    rng = random.Random(61)
    nonzero = 0
    for (problem, cls), gaps in fractional_grids(rng, 60):
        full = VersionSpace.full(cls.num_hypotheses)
        for gamma in gaps:
            expected = seqfat_reference(problem, cls, gamma)
            assert seqfat(problem, cls, full, gamma) == expected
            nonzero += expected > 0
    assert nonzero >= 100


def test_seqfat_split_bounds_are_closed():
    # The witness 1/30 is exactly 11/30 from both hypotheses' values, -1/3
    # and 2/5: at gamma = 11/30 both sides of the split hold, by >= and <=.
    grid = ("-1/3", "1/30", "2/5")
    loss = [[abs(F(y) - F(z)) for z in grid] for y in grid]
    problem = make_problem((0,), grid, grid, loss)
    cls = HypothesisClass(((0,), (2,)))
    full = VersionSpace.full(2)
    assert seqfat(problem, cls, full, F(11, 30)) == 1
    assert seqfat(problem, cls, full, F(11, 30) + F(1, 10**9)) == 0


@pytest.mark.parametrize(
    "builtin, route",
    [
        ("setvalued:pair", lambda p, c, space: msdim(p, c, space, F(1, 4))),
        ("setvalued:pair", lambda p, c, space: msdim_direct(p, c, space, F(1, 4))),
        ("multiclass:binary-constants", ldim_k),
        ("regression:three-point", lambda p, c, space: seqfat(p, c, space, F(1))),
    ],
    ids=["msdim", "msdim_direct", "ldim_k", "seqfat"],
)
def test_every_route_refuses_a_space_that_does_not_fit_the_class(builtin, route):
    # The oracles once returned 0 for a member past the class, where the
    # engine refuses it, and raised AttributeError for a plain tuple.
    problem, cls = make_builtin(builtin)
    assert cls.num_hypotheses == 2
    with pytest.raises(ValidationError, match="^hypothesis index 7 out of range$"):
        route(problem, cls, VersionSpace((0, 7)))
    with pytest.raises(ValidationError, match=r"^expected a VersionSpace, got \(0, 1\)$"):
        route(problem, cls, (0, 1))


@pytest.mark.parametrize(
    "k, message",
    [
        (1.5, "k must be an int, got 1.5"),
        (True, "k must be an int, got True"),
        ("2", "k must be an int, got '2'"),
        (None, "k must be an int, got None"),
        (0, "k must be >= 1, got 0"),
        (-1, "k must be >= 1, got -1"),
    ],
    ids=["1.5", "True", "2", "None", "0", "-1"],
)
def test_ldim_k_refuses_a_k_that_is_not_a_positive_int(k, message):
    # k = 1.5 and k = True once returned a dimension, and k = "2" raised
    # TypeError.
    problem, cls = make_builtin("multiclass:binary-constants")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ldim_k(problem, cls, VersionSpace.full(2), k)


def binary_cube(n):
    """Every 0/1 labelling of n instances, under the 0/1 loss."""
    problem = make_problem(tuple(range(n)), (0, 1), (0, 1), [[0, 1], [1, 0]])
    return problem, HypothesisClass(tuple(product((0, 1), repeat=n)))


def test_a_depth_level_of_the_engine_is_two_frames():
    # On the binary cube over n instances smdim is n at the strict margin;
    # the least recursion limit that lets a fresh engine reach it grows by
    # two per depth level: `_branch` and `qualifying_rows`. From n = 4 up,
    # the deepest chain is not one the instance prune skips (at n = 3 it
    # is, and the limit is two lower).
    def least_limit(n):
        problem, cls = binary_cube(n)
        full = VersionSpace.full(cls.num_hypotheses)
        low, high = depth_here, depth_here + 200
        while low < high:
            limit = (low + high) // 2
            sys.setrecursionlimit(limit)
            try:
                assert smdim(problem, cls, full, GammaValue.strict_zero()) == n
                high = limit
            except RecursionError:
                low = limit + 1
            finally:
                sys.setrecursionlimit(saved)
        return low

    saved = sys.getrecursionlimit()
    depth_here = len(inspect.stack(0)) + 5
    assert least_limit(7) - least_limit(4) == 6


@pytest.mark.parametrize("bad", ["1/2", "2", "3/2"])
def test_the_binary_routes_name_a_loss_outside_zero_and_one(bad):
    # The check reads each entry's numerator and denominator as ints.
    problem = make_problem((0,), (0, 1), (0, 1), [[0, 1], [1, bad]])
    cls = HypothesisClass(((0,), (1,)))
    routes = (
        ldim_k,
        lambda p, c, space: msdim(p, c, space, F(1, 4)),
        lambda p, c, space: msdim_direct(p, c, space, F(1, 4)),
    )
    message = re.escape(f"loss[1][1] = {F(bad)} is not in {{0, 1}}")
    for route in routes:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            route(problem, cls, VersionSpace.full(2))
