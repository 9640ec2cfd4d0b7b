"""Benchmark of the smdim package: one seeded workload per run, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dim-cold --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout the script sits in. With
`--trace 0` the run sets the workload up SETUPS times, keeps the last set-up
and plays items from its pool for `--seconds` seconds and to the end of the
schedule cycle then under way, one after another in this single thread; it
prints the end-to-end metrics. Their times are scaled to the host's reference
speed (see `at_reference_speed`); the times as measured are printed and
reported beside them. With `--trace 1` it sets up once with tracing on, plays
the workload's fixed trace prefix once untraced and once traced, and prints
the per-layer metrics. Either way the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`, and a
report lands in `perfbench/out/`. The exit code is 0 only when every output
check passed; it is 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "smdim"
SETUPS = 5
FAILURE_DETAILS = 20

# Best time of `reference_work` on the 2-vCPU VM the baseline was taken on.
REFERENCE_S = 0.0042
# Kernel times taken on each side of a measured span.
KERNEL_SPAN = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference_work():
    """A fixed stretch of small-Fraction, tuple and dict work that never
    touches the package: the same kind of interpreter work its layers do."""
    total = Fraction(0)
    counts = {}
    for i in range(600):
        y = Fraction(i % 13 - 6, 8)
        z = Fraction(i % 7 - 3, 4)
        gap = abs(y - z)
        if gap <= Fraction(1, 2):
            key = (i % 5, i % 3)
            counts[key] = counts.get(key, 0) + 1
        total += gap
    return total, counts


def reference_s():
    began = time.perf_counter()
    reference_work()
    return time.perf_counter() - began


def at_reference_speed(seconds, kernel_times):
    """Scale a time to the reference speed of the host.

    On a virtual machine that shares its cores with other tenants, their
    load can slow everything down by up to half for seconds to minutes at a
    time, in CPU time as much as in wall time. `kernel_times` are times
    of `reference_work` taken around the measured span; dividing by their
    median cancels the slowdown both saw, and REFERENCE_S turns the ratio
    back into seconds. The package never runs the kernel, so its own
    speed-ups and slow-downs pass through unchanged.
    """
    return seconds * REFERENCE_S / statistics.median(kernel_times)


def import_package():
    """Import the package afresh, so module-level caches start empty."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sm = importlib.import_module(PACKAGE)
    if not Path(sm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} resolved to {sm.__file__}, outside {SRC}")
    return sm


def set_up(workload, seed, tracer=None):
    """Import, generate, then prepare (decode and warm up, traced if asked)."""
    sm = import_package()
    raw = workload.generate(sm, seed)
    if tracer is not None:
        tracer.install(sm)
        tracer.active = True
    pool = workload.prepare(sm, raw)
    if tracer is not None:
        tracer.active = False
    return sm, pool


def lp_cache_clear(sm):
    """The clear function of the package's process-wide LP cache, if it has one."""
    return getattr(getattr(sm.game, "_solve_cached", None), "cache_clear", None)


class Pass:
    """Per-item times and failures of consecutive items, and the sha256 digest
    of the canonical outputs of the first `digest_items` of them."""

    def __init__(self, digest_items):
        self.times = []  # wall-clock seconds per item
        self.scaled = []  # the same at the reference speed
        self.kernel = []  # times of the reference kernel between blocks
        self.failures = []
        self.digest_items = digest_items
        self._hash = hashlib.sha256()

    def add_output(self, index, text_of):
        """Hash the output of item `index`, if it is within the digest prefix."""
        if index < self.digest_items:
            self._hash.update(text_of().encode() + b"\n")

    def digest(self):
        return {"items": min(self.digest_items, len(self.times)), "sha256": self._hash.hexdigest()}


def play(sm, workload, pool, *, count=None, seconds=None, tracer=None):
    """Run pool items in order, cycling, until `count` items or, once `seconds`
    have elapsed, the end of the current cycle of the workload's schedule, so
    that every shape of item counts as often as every other.

    Items run in blocks of `workload.block_items`, with the reference kernel
    timed between blocks; every item's time is recorded as measured and at
    the reference speed given by the kernel times of the blocks around it.
    """
    clear = lp_cache_clear(sm) if workload.cold else None
    result = Pass(workload.trace_items)
    start = time.perf_counter()
    index = 0
    kernel = [reference_s()]
    blocks = []
    done = False
    while not done:
        block = []
        while len(block) < workload.block_items and not done:
            block.append(run_item(sm, workload, pool, index, clear, tracer, result))
            index += 1
            done = (count is not None and index >= count) or (
                seconds is not None
                and time.perf_counter() - start >= seconds
                and index % workload.cycle == 0
            )
        kernel.append(reference_s())
        blocks.append(block)
    result.kernel = kernel
    for i, block in enumerate(blocks):
        # block i ran between kernel[i] and kernel[i + 1]
        around = kernel[max(0, i - KERNEL_SPAN + 1) : i + KERNEL_SPAN + 1]
        result.times += block
        result.scaled += [at_reference_speed(t, around) for t in block]
    return result


def run_item(sm, workload, pool, index, clear, tracer, result):
    """Run and check item `index` of the cycled pool; return its wall time."""
    item = pool[index % len(pool)]
    if clear is not None:
        clear()
    if tracer is not None:
        tracer.item = index
        if workload.cold:
            tracer.new_scope()
        tracer.active = True
    began = time.perf_counter()
    try:
        out = workload.run(sm, item)
        error = None
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - began
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            problems = workload.check(sm, item, out)
            result.add_output(index, lambda: workload.canonical(item, out))
        except Exception:
            problems = [traceback.format_exc(limit=3)]
    else:
        problems = [error]
    if problems:
        result.failures.append({"item": index, "problems": problems})
        result.add_output(index, lambda: f"failed item {index}")
    return elapsed


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seed, seconds):
    setup_times = []
    setup_scaled = []
    setup_kernel = []
    for _ in range(SETUPS):
        sm = pool = None  # drop the previous set-up before collecting
        gc.collect()
        before = [reference_s() for _ in range(KERNEL_SPAN)]
        began = time.perf_counter()
        sm, pool = set_up(workload, seed)
        setup_times.append(time.perf_counter() - began)
        after = [reference_s() for _ in range(KERNEL_SPAN)]
        setup_scaled.append(at_reference_speed(setup_times[-1], before + after))
        setup_kernel.append(before + after)
    gc.collect()
    run = play(sm, workload, pool, seconds=seconds)
    times = run.scaled
    p = workload.tail_percentile
    tail = percentile(times, p) if len(times) > 1 else times[0]
    beyond = sum(1 for t in times if t > tail)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    details = {
        "wall_clock": {
            "setup_runs_s": setup_times,
            "items_per_s": len(run.times) / sum(run.times),
            "item_p50_ms": statistics.median(run.times) * 1000,
        },
        "tail": {"percentile": p, "samples": len(times), "beyond": beyond},
        "item_ms": [t * 1000 for t in times],
        "kernel_ms": [t * 1000 for t in run.kernel],
        "setup_kernel_ms": [[t * 1000 for t in k] for k in setup_kernel],
        "digest": run.digest(),
    }
    return len(times), run.failures, metrics, details, True


def measure_traced(workload, seed):
    tracer = Tracer()
    sm, pool = set_up(workload, seed, tracer)
    count = workload.trace_items
    try:
        gc.collect()
        plain = play(sm, workload, pool, count=count)
        gc.collect()
        covered_before = tracer.covered_s
        traced = play(sm, workload, pool, count=count, tracer=tracer)
        covered = tracer.covered_s - covered_before
    finally:
        tracer.uninstall()
    uncovered = sum(traced.times) - covered
    overhead = sum(plain.scaled) / sum(traced.scaled)
    metrics = tracer.metrics(uncovered, overhead)
    digests = {"untraced": plain.digest(), "traced": traced.digest()}
    failures = plain.failures + [dict(f, item=f["item"] + count) for f in traced.failures]
    details = {"digest": digests, "trace": tracer.span_records()}
    return 2 * count, failures, metrics, details, digests["untraced"] == digests["traced"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            attempted, failures, metrics, details, consistent = measure_traced(workload, args.seed)
        else:
            attempted, failures, metrics, details, consistent = measure(
                workload, args.seed, args.seconds
            )
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE}: {exc}", file=sys.stderr)
        return 2

    correct = consistent and not failures
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio: {len(failures) / attempted:.6g} ratio")
    if "wall_clock" in details:
        wall = details["wall_clock"]
        print(
            f"as measured, without scaling to the reference speed: "
            f"items_per_s {wall['items_per_s']:.6g}, item_p50_ms {wall['item_p50_ms']:.6g}"
        )
        tail = details["tail"]
        print(
            f"item_tail_ms is p{tail['percentile']} of {tail['samples']} items "
            f"({tail['beyond']} beyond it)"
        )
    print(f"digest: {json.dumps(details['digest'], sort_keys=True)}")
    if not consistent:
        print("error: tracing changed the output digest", file=sys.stderr)
    for failure in failures[:FAILURE_DETAILS]:
        print(f"failed item {failure['item']}: {failure['problems']}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "metrics": metrics,
                "failures": failures[:FAILURE_DETAILS],
                **details,
            }
        )
    )
    print(f"report: {report.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
