"""Tests of the benchmark itself: generators, output checks, tracing, contract.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def sm():
    return run.import_package()


@pytest.fixture(scope="module")
def pools(sm):
    """Seed-3 pools; replay-warm's prepare also warms its engines."""
    return {name: w.prepare(sm, w.generate(sm, 3)) for name, w in WORKLOADS.items()}


def first_output(sm, name, pools, kind=None):
    workload = WORKLOADS[name]
    item = next(i for i in pools[name] if kind is None or i.get("kind") == kind)
    return workload, item, workload.run(sm, item)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(sm, name):
    workload = WORKLOADS[name]
    assert workload.generate(sm, 5) == workload.generate(sm, 5)
    assert workload.generate(sm, 5) != workload.generate(sm, 6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untouched_outputs_pass_their_checks(sm, pools, name):
    workload, item, out = first_output(sm, name, pools)
    assert workload.check(sm, item, out) == []


def test_dim_cold_flags_a_wrong_dimension_and_a_wrong_child(sm, pools):
    workload, item, out = first_output(sm, "dim-cold", pools)
    assert workload.check(sm, item, dict(out, dim=out["dim"] + 1))
    cert = out["cert"]
    key, node = next((k, n) for k, n in cert.nodes.items() if len(n.candidates[0][1]) > 1)
    cand, child = node.candidates[0]
    shrunk = dataclasses.replace(
        node, candidates=((cand, sm.VersionSpace(child.members[1:])),) + node.candidates[1:]
    )
    broken = dataclasses.replace(cert, nodes={**cert.nodes, key: shrunk})
    assert workload.check(sm, item, dict(out, cert=broken))


def test_routes_small_flags_disagreeing_routes(sm, pools):
    workload = WORKLOADS["routes-small"]
    for kind, key in (("ldim", "ldim_k"), ("list2", "ldim_k"), ("msdim", "msdim_direct")):
        _, item, out = first_output(sm, "routes-small", pools, kind)
        value = out[key]
        wrong = value + 1 if isinstance(value, int) else [v + 1 for v in value]
        assert workload.check(sm, item, dict(out, **{key: wrong})), kind
    _, item, out = first_output(sm, "routes-small", pools, "seqfat")
    assert workload.check(sm, item, dict(out, seqfat=[d + 1 for d in out["smdim"]]))


def test_replay_warm_flags_inflated_loss_and_weak_adversary(sm, pools):
    workload, item, report = first_output(sm, "replay-warm", pools, "stream")
    rounds = list(report.rounds)
    rounds[0] = dataclasses.replace(rounds[0], expected=rounds[0].expected + 1)
    assert workload.check(sm, item, dataclasses.replace(report, rounds=tuple(rounds)))
    workload, item, report = first_output(sm, "replay-warm", pools, "uniform")
    assert item["dim"] >= 1
    assert workload.check(sm, item, dataclasses.replace(report, regret=F(0)))


def test_agnostic_enum_flags_regret_outside_its_bounds(sm, pools):
    workload, item, value = first_output(sm, "agnostic-enum", pools)
    assert workload.check(sm, item, F(0))
    assert workload.check(sm, item, value + 100)


@pytest.mark.parametrize("name", ["routes-small", "agnostic-enum"])
def test_tracing_leaves_the_digest_unchanged(sm, pools, name):
    workload = WORKLOADS[name]
    pool = pools[name][:10]
    plain = run.play(sm, workload, pool, count=len(pool))
    tracer = tracing.Tracer().install(sm)
    try:
        traced = run.play(sm, workload, pool, count=len(pool), tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.digest() == plain.digest()
    assert not plain.failures and not traced.failures
    assert tracer.calls["game.solve_min_max"] > 0


def test_timed_runs_end_on_a_whole_cycle_and_scale_every_item(sm, pools):
    workload = WORKLOADS["routes-small"]
    result = run.play(sm, workload, pools["routes-small"], seconds=0.01)
    assert len(result.times) % workload.cycle == 0
    assert len(result.scaled) == len(result.times)
    assert len(result.kernel) == -(-len(result.times) // workload.block_items) + 1


def test_reference_speed_scaling_cancels_a_uniform_slowdown():
    assert run.at_reference_speed(0.5, [run.REFERENCE_S] * 3) == pytest.approx(0.5)
    assert run.at_reference_speed(1.0, [2 * run.REFERENCE_S, 9.0, 0.0]) == pytest.approx(0.5)


def test_tracer_rebinds_imported_names_and_restores_them(sm):
    solver = sm.game.solve_min_max
    predict = vars(sm.Mrsoa)["predict"]
    tracer = tracing.Tracer().install(sm)
    try:
        for module in (sm, sm.game, sm.dimensions, sm.learners):
            assert module.solve_min_max is not solver
        assert sm.simulation.run_game is sm.run_game
        assert vars(sm.Mrsoa)["predict"] is not predict
    finally:
        tracer.uninstall()
    for module in (sm, sm.game, sm.dimensions, sm.learners):
        assert module.solve_min_max is solver
    assert vars(sm.Mrsoa)["predict"] is predict


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def child():
        return 1

    def parent():
        return traced_child() + 1

    traced_child = tracer.wrap("child", child, "child")
    traced_parent = tracer.wrap("parent", parent, "parent")
    tracer.active = True
    assert traced_parent() == 2
    # parent spans ticks 1..4, child 2..3
    assert tracer.self_s == {"child": 1, "parent": 2}
    assert tracer.covered_s == 3
    assert [s[3] for s in tracer.spans] == [-1, 0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dim-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
