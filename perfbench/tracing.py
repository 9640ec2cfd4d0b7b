"""Span tracer that wraps the smdim package's public entry points from outside.

Nothing inside the package changes. `Tracer.install(sm)` replaces each traced
function wherever a module of the package binds it (the defining module and
every module that imported it by name, plus the package namespace), and each
traced method on its class. A wrapper does nothing but call through while the
tracer is inactive, so the benchmark can switch tracing off around its own
output checks.

Each call records a span (layer name, start, end, parent span, item index).
Self time is a span's duration minus the time covered by its child spans and
is accumulated online, so every span counts towards the per-layer totals;
only the first SPAN_CAP span records are kept for the trace file, which keeps
memory bounded on workloads with millions of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 50_000

ENGINE_METHODS = ("smdim", "shatterable", "certificate", "candidates", "dim_members")

# (layer, module, class or None, attribute names)
TRACE_POINTS = (
    ("dimensions.engine_init", "dimensions", "DimensionEngine", ("__init__",)),
    ("dimensions.engine", "dimensions", "DimensionEngine", ENGINE_METHODS),
    ("dimensions.candidate_rows", "dimensions", "DimensionEngine", ("candidate_rows",)),
    ("dimensions.ldim_k", "dimensions", None, ("ldim_k",)),
    ("dimensions.seqfat", "dimensions", None, ("seqfat",)),
    ("dimensions.msdim_direct", "dimensions", None, ("msdim_direct",)),
    ("game.solve_min_max", "game", None, ("solve_min_max",)),
    ("game.best_response", "game", None, ("best_response",)),
    ("learners.mrsoa_predict", "learners", "Mrsoa", ("predict",)),
    ("learners.mrsoa_update", "learners", "Mrsoa", ("update",)),
    ("learners.agnostic_predict", "learners", "AgnosticLearner", ("predict",)),
    ("learners.agnostic_update", "learners", "AgnosticLearner", ("update",)),
    ("learners.aggregate_mixture", "learners", None, ("aggregate_mixture",)),
    ("core.expected_loss", "core", None, ("expected_loss",)),
    ("simulation.run_game", "simulation", None, ("run_game",)),
    (
        "simulation.exact_expectation_over_signs",
        "simulation",
        None,
        ("exact_expectation_over_signs",),
    ),
    ("adversaries.observe_mixture", "adversaries", "ShatteringAdversary", ("observe_mixture",)),
    (
        "instances.parse",
        "instances",
        None,
        ("parse_instance_document", "parse_stream_document"),
    ),
    (
        "instances.serialize",
        "instances",
        None,
        ("canonical_json", "serialize_instance", "serialize_stream"),
    ),
    ("instances.serialize", "dimensions", "ShatteringCertificate", ("to_json",)),
)

# Every per-layer metric the traced run reports, with its unit. BENCHMARK.json
# lists exactly these names.
PER_LAYER = (
    ("dimensions.engine.self_s", "s"),
    ("dimensions.engine_init.self_s", "s"),
    ("dimensions.candidate_rows.calls", "count"),
    ("dimensions.candidate_rows.self_s", "s"),
    ("dimensions.spaces_distinct", "count"),
    ("dimensions.certificate_nodes", "count"),
    ("dimensions.ldim_k.self_s", "s"),
    ("dimensions.seqfat.self_s", "s"),
    ("dimensions.msdim_direct.self_s", "s"),
    ("game.solve_min_max.calls", "count"),
    ("game.solve_min_max.self_s", "s"),
    ("game.lp_distinct", "count"),
    ("game.lp_useful_ratio", "ratio"),
    ("game.lp_rows", "count"),
    ("game.best_response.calls", "count"),
    ("learners.mrsoa_predict.calls", "count"),
    ("learners.mrsoa_predict.self_s", "s"),
    ("learners.mrsoa_update.self_s", "s"),
    ("learners.agnostic_predict.self_s", "s"),
    ("learners.agnostic_update.self_s", "s"),
    ("learners.aggregate_mixture.self_s", "s"),
    ("learners.mixtures_per_round", "1/round"),
    ("learners.distinct_mixtures_per_round", "1/round"),
    ("core.expected_loss.calls", "count"),
    ("core.expected_loss.self_s", "s"),
    ("core.expected_loss_useful_ratio", "ratio"),
    ("simulation.run_game.calls", "count"),
    ("simulation.run_game.self_s", "s"),
    ("simulation.rounds", "count"),
    ("simulation.exact_expectation_over_signs.self_s", "s"),
    ("adversaries.observe_mixture.calls", "count"),
    ("adversaries.observe_mixture.self_s", "s"),
    ("instances.parse.self_s", "s"),
    ("instances.serialize.self_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# Probes read positional arguments: the package passes these ones positionally.
def _lp_probe(tracer, args, kwargs):
    rows = tuple(args[0])
    key = tuple((r.coefficients, r.offset) for r in rows)
    seen = tracer.distinct["lp"]
    if key not in seen:
        seen.add(key)
        tracer.counts["lp_rows"] += len(rows)


def _members_probe(tracer, args, kwargs):
    tracer.distinct["spaces"].add(args[1])


def _loss_probe(tracer, args, kwargs):
    tracer.distinct["loss_pairs"].add((args[1].weights, args[2]))


def _mixtures_probe(tracer, args, kwargs):
    mixtures = args[1]
    tracer.counts["mixtures"] += len(mixtures)
    tracer.counts["distinct_mixtures"] += len({m.weights for m in mixtures})


PROBES = {
    "game.solve_min_max": _lp_probe,
    "dimensions.candidate_rows": _members_probe,
    "core.expected_loss": _loss_probe,
    "learners.aggregate_mixture": _mixtures_probe,
}


def _certificate_result(tracer, result):
    tracer.counts["certificate_nodes"] += len(result.nodes)


def _game_result(tracer, result):
    tracer.counts["rounds"] += result.num_rounds


RESULT_PROBES = {
    ("dimensions.engine", "certificate"): _certificate_result,
    ("simulation.run_game", "run_game"): _game_result,
}


class Tracer:
    """Records spans and counts while `active`; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.item = -1
        self.t0 = clock()
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.covered_s = 0.0
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.distinct_total = Counter()
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every trace point of the imported `package`; returns self."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for layer, module_name, class_name, attrs in TRACE_POINTS:
            home = getattr(package, module_name)
            for attr in attrs:
                if class_name is None:
                    original = getattr(home, attr)
                    traced = self.wrap(layer, original, attr)
                    for module in modules:
                        for bound_name, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, bound_name, traced)
                else:
                    cls = getattr(home, class_name)
                    self._rebind(cls, attr, self.wrap(layer, vars(cls)[attr], attr))
        return self

    def uninstall(self):
        """Restore every name `install` rebound."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def wrap(self, layer, fn, attr):
        probe = PROBES.get(layer)
        after = RESULT_PROBES.get((layer, attr))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args, kwargs)
            result = tracer._span(layer, fn, args, kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    # -- recording --------------------------------------------------------------

    def _span(self, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                self.covered_s += duration
            if index >= 0:
                self.spans[index] = (layer, start - self.t0, end - self.t0, parent, self.item)

    def new_scope(self):
        """Start a fresh distinct-value scope (the workload cleared its caches)."""
        for key, seen in self.distinct.items():
            self.distinct_total[key] += len(seen)
            seen.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, uncovered_s: float, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric as {name: {"value", "unit"}}."""
        self.new_scope()
        calls, self_s, counts, distinct = self.calls, self.self_s, self.counts, self.distinct_total

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name, _ in PER_LAYER:
            if name.endswith(".self_s"):
                values[name] = self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                values[name] = calls.get(name[: -len(".calls")], 0)
        aggregates = calls["learners.aggregate_mixture"]
        values.update(
            {
                "dimensions.spaces_distinct": distinct["spaces"],
                "dimensions.certificate_nodes": counts["certificate_nodes"],
                "game.lp_distinct": distinct["lp"],
                "game.lp_useful_ratio": ratio(distinct["lp"], calls["game.solve_min_max"]),
                "game.lp_rows": counts["lp_rows"],
                "learners.mixtures_per_round": ratio(counts["mixtures"], aggregates),
                "learners.distinct_mixtures_per_round": ratio(
                    counts["distinct_mixtures"], aggregates
                ),
                "core.expected_loss_useful_ratio": ratio(
                    distinct["loss_pairs"], calls["core.expected_loss"]
                ),
                "simulation.rounds": counts["rounds"],
                "trace.uncovered_s": uncovered_s,
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def span_records(self) -> dict:
        return {
            "fields": ["layer", "start_s", "end_s", "parent", "item"],
            "spans": [s for s in self.spans if s is not None],
            "dropped": self.dropped,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
