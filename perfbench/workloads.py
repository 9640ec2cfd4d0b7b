"""The four benchmark workloads: seeded input generators, items and output checks.

Every workload has the same shape:

- `generate(sm, seed)` draws the inputs from `random.Random` seeded by the
  workload name and the seed. It returns plain data (instance and stream JSON
  documents, margins, horizons); the package never sees the seed.
- `prepare(sm, raw)` is the rest of set-up: decoding and any engine warm-up
  the workload declares. It returns the item pool.
- `run(sm, item)` is one timed item; `check(sm, item, out)` verifies its
  output without trusting the simplex and returns a list of problems;
  `canonical(item, out)` is the text that goes into the output digest.

`sm` is the imported `smdim` package; workloads reach everything through it so
that the runner can re-import the package for each set-up. Shapes follow a
fixed schedule that cycles through the pool, so every seed gets the same mix
of input sizes and only the contents vary. A `cold` workload's items are
independent: the runner clears the package's process-wide LP cache before
each one, as a fresh `smdim` invocation would start.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

F = Fraction

REGRESSION_INTERIOR = tuple(F(k, 8) for k in range(-7, 8))


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def instance_doc(num_instances, labels, predictions, loss, table) -> str:
    """An instance JSON document in the package's input format."""
    return json.dumps(
        {
            "instances": list(range(num_instances)),
            "labels": labels,
            "predictions": predictions,
            "loss": [[str(v) for v in row] for row in loss],
            "hypotheses": [list(row) for row in table],
        },
        sort_keys=True,
    )


def sample_rows(rng, num_predictions, num_instances, count):
    universe = list(product(range(num_predictions), repeat=num_instances))
    return tuple(sorted(rng.sample(universe, min(count, len(universe)))))


def regression_class(rng, grid_points, num_instances, num_hypotheses):
    """Absolute loss on a rational grid in [-1, 1] that contains -1 and 1."""
    grid = sorted([F(-1), F(1)] + rng.sample(REGRESSION_INTERIOR, grid_points - 2))
    loss = [[abs(y - z) for z in grid] for y in grid]
    ids = [str(v) for v in grid]
    table = sample_rows(rng, grid_points, num_instances, num_hypotheses)
    return instance_doc(num_instances, ids, ids, loss, table)


def restrict(loss, table, members, x, y, eps):
    """Members whose loss against label y at instance x is within eps."""
    row = loss[y]
    return tuple(h for h in members if row[table[h][x]] <= eps)


def full_space(sm, cls):
    return sm.VersionSpace.full(cls.num_hypotheses)


# -- dim-cold ------------------------------------------------------------------


class DimCold:
    name = "dim-cold"
    why = (
        "write path of the engine: fresh DimensionEngine per regression grid fills the memo, "
        "candidate_rows and solve_min_max dominate"
    )
    cold = True
    tail_percentile = 90
    trace_items = 20
    block_items = 1
    # Every class size from 8 to 17 at both margins, so item times spread
    # evenly and no percentile falls into a gap between two sizes. Sizes come
    # in pairs summing to 25, so any ten consecutive items cost about the same.
    SHAPES = tuple(
        (h, ("1/8", "1/4")[(i + cycle) % 2])
        for cycle in range(2)
        for i, h in enumerate((8, 17, 9, 16, 10, 15, 11, 14, 12, 13))
    )
    POOL = 120
    cycle = len(SHAPES)

    def generate(self, sm, seed):
        rng = make_rng(self.name, seed)
        raw = []
        for i in range(self.POOL):
            hypotheses, gamma = self.SHAPES[i % len(self.SHAPES)]
            raw.append({"doc": regression_class(rng, 5, 3, hypotheses), "gamma": gamma})
        return raw

    def prepare(self, sm, raw):
        return raw

    def run(self, sm, item):
        problem, cls = sm.parse_instance_document(item["doc"])
        engine = sm.DimensionEngine(problem, cls, item["gamma"])
        full = full_space(sm, cls)
        dim = engine.smdim(full)
        cert = engine.certificate(full)
        return {"problem": problem, "cls": cls, "dim": dim, "cert": cert, "json": cert.to_json()}

    def check(self, sm, item, out):
        problem, cls, dim, cert = out["problem"], out["cls"], out["dim"], out["cert"]
        gamma = F(item["gamma"])
        problems = []
        if not 0 <= dim <= cls.num_hypotheses - 1:
            problems.append(f"dimension {dim} outside [0, |H|-1]")
        problems += certificate_problems(problem, cls, cert, dim)
        if json.loads(out["json"])["depth"] != dim:
            problems.append("certificate JSON depth differs from the dimension")
        if problems:
            return problems
        adversary = sm.ShatteringAdversary(problem, cls, cert)
        report = sm.run_game(problem, cls, sm.UniformLearner(problem, cls), adversary, rounds=dim)
        if report.regret < gamma * dim:
            problems.append(f"adversary forced regret {report.regret} < gamma*dim {gamma * dim}")
        return problems

    def canonical(self, item, out):
        return f"{out['dim']}\n{out['json']}"


def certificate_problems(problem, cls, cert, dim):
    """Check a certificate's tree by recomputing every restriction (no LP)."""
    problems = []
    root = tuple(range(cls.num_hypotheses))
    if cert.depth != dim or cert.root.members != root:
        problems.append(f"certificate depth {cert.depth} or root differs from dimension {dim}")
    if dim >= 1 and (root, dim) not in cert.nodes:
        problems.append("certificate has no root node")
    for (members, depth), node in cert.nodes.items():
        if node.space.members != members or node.depth != depth or not node.candidates:
            problems.append(f"malformed node at {members} depth {depth}")
            continue
        for cand, child in node.candidates:
            expected = restrict(problem.loss, cls.table, members, node.instance, cand.label, cand.threshold)
            if child.members != expected or not expected:
                problems.append(f"node {members} depth {depth}: child is not the stated restriction")
            elif depth >= 2 and (child.members, depth - 1) not in cert.nodes:
                problems.append(f"node {members} depth {depth}: child {child.members} missing")
    return problems


# -- routes-small ----------------------------------------------------------------


def multiclass_doc(rng):
    nx, ny = rng.randint(1, 4), rng.randint(2, 3)
    loss = [[int(y != z) for z in range(ny)] for y in range(ny)]
    table = sample_rows(rng, ny, nx, rng.randint(2, 8))
    return instance_doc(nx, list(range(ny)), list(range(ny)), loss, table)


def list_doc(rng, k):
    nx, ny = rng.randint(1, 4), rng.randint(2, 3)
    subsets = [s for size in range(1, k + 1) for s in combinations(range(ny), size)]
    loss = [[int(y not in s) for s in subsets] for y in range(ny)]
    table = sample_rows(rng, len(subsets), nx, rng.randint(2, 8))
    return instance_doc(nx, list(range(ny)), [list(s) for s in subsets], loss, table)


def setvalued_doc(rng):
    nx, nz = rng.randint(1, 4), rng.randint(2, 3)
    all_sets = [s for size in range(1, nz + 1) for s in combinations(range(nz), size)]
    labels = sorted(rng.sample(all_sets, rng.randint(2, min(3, len(all_sets)))))
    loss = [[int(z not in y) for z in range(nz)] for y in labels]
    table = sample_rows(rng, nz, nx, rng.randint(2, 8))
    return instance_doc(nx, [list(y) for y in labels], list(range(nz)), loss, table)


def grid_doc(rng):
    extras = rng.sample([F(-1, 2), F(0), F(1, 2)], rng.randint(0, 1))
    grid = sorted([F(-1), F(1)] + extras)
    loss = [[abs(y - z) for z in grid] for y in grid]
    nx = rng.randint(1, 4)
    table = sample_rows(rng, len(grid), nx, rng.randint(2, 8))
    ids = [str(v) for v in grid]
    return instance_doc(nx, ids, ids, loss, table)


class RoutesSmall:
    name = "routes-small"
    why = (
        "many tiny verify-shaped instances through smdim, msdim, msdim_direct, ldim_k and seqfat: "
        "fixed per-engine costs and the independent recursions"
    )
    cold = True
    tail_percentile = 95
    trace_items = 400
    block_items = 40
    KINDS = ("ldim", "list1", "msdim", "seqfat", "ldim", "list2", "msdim", "seqfat")
    POOL = 3200
    cycle = len(KINDS)
    # Acceptance criterion 1 margins, after the strict zero margin.
    LDIM_MARGINS = ("1/8", "1/4", "1/2")
    WIDE_MARGINS = ("1/4", "1/2", "1")

    def generate(self, sm, seed):
        rng = make_rng(self.name, seed)
        raw = []
        for i in range(self.POOL):
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "ldim":
                doc = multiclass_doc(rng)
            elif kind.startswith("list"):
                doc = list_doc(rng, int(kind[-1]))
            elif kind == "msdim":
                doc = setvalued_doc(rng)
            else:
                doc = grid_doc(rng)
            raw.append({"kind": kind, "doc": doc})
        return raw

    def prepare(self, sm, raw):
        return [dict(r, instance=sm.parse_instance_document(r["doc"])) for r in raw]

    def margins(self, sm, kind):
        if kind == "ldim":
            return [sm.GammaValue.strict_zero()] + [sm.GammaValue.of(g) for g in self.LDIM_MARGINS]
        if kind.startswith("list"):
            k = int(kind[-1])
            return [sm.GammaValue.of(F(1, m * (k + 1))) for m in (1, 2, 4)]
        return [sm.GammaValue.of(g) for g in self.WIDE_MARGINS]

    def run(self, sm, item):
        problem, cls = item["instance"]
        kind = item["kind"]
        full = full_space(sm, cls)
        margins = self.margins(sm, kind)
        if kind == "msdim":
            return {
                "msdim": [sm.msdim(problem, cls, full, g) for g in margins],
                "msdim_direct": [sm.msdim_direct(problem, cls, full, g) for g in margins],
            }
        out = {"smdim": [sm.smdim(problem, cls, full, g) for g in margins]}
        if kind == "seqfat":
            out["seqfat"] = [sm.seqfat(problem, cls, full, g.gamma) for g in margins]
        else:
            out["ldim_k"] = sm.ldim_k(problem, cls, full, 1 if kind == "ldim" else int(kind[-1]))
        return out

    def check(self, sm, item, out):
        _, cls = item["instance"]
        problems = []
        dims = out.get("smdim", out.get("msdim"))
        if any(not 0 <= d <= cls.num_hypotheses - 1 for d in dims):
            problems.append(f"dimensions {dims} outside [0, |H|-1]")
        if "ldim_k" in out and any(d != out["ldim_k"] for d in out["smdim"]):
            problems.append(f"smdim {out['smdim']} != branching dimension {out['ldim_k']}")
        if "msdim" in out and out["msdim"] != out["msdim_direct"]:
            problems.append(f"msdim {out['msdim']} != msdim_direct {out['msdim_direct']}")
        if "seqfat" in out and any(f > m for f, m in zip(out["seqfat"], out["smdim"])):
            problems.append(f"seqfat {out['seqfat']} exceeds smdim {out['smdim']}")
        return problems

    def canonical(self, item, out):
        return json.dumps({"kind": item["kind"], "values": out}, sort_keys=True)


# -- replay-warm -----------------------------------------------------------------


def realizable_stream(rng, loss, table, num_instances, horizon):
    """A stream whose every threshold keeps some hypothesis consistent."""
    members = tuple(range(len(table)))
    stream = []
    for _ in range(horizon):
        x = rng.randrange(num_instances)
        edges = [
            (y, eps)
            for y, row in enumerate(loss)
            for eps in sorted({row[table[h][x]] for h in members})
        ]
        y, eps = rng.choice(edges)
        members = restrict(loss, table, members, x, y, eps)
        stream.append({"x": x, "y": y, "eps": str(eps)})
    return json.dumps({"stream": stream})


class ReplayWarm:
    name = "replay-warm"
    why = (
        "read path of warm engines: fresh Mrsoa per realizable T=10 stream plus certificate "
        "adversary games; memo and LP-cache hits, learners, adversaries, simulation"
    )
    cold = False
    tail_percentile = 90
    trace_items = 480
    block_items = 60
    CLASSES = tuple((h, g) for h in (10, 12, 14) for g in ("1/8", "1/4"))
    HORIZON = 10
    # Per class: six streams and one adversary game against each learner.
    SCHEDULE = ("stream", "stream", "stream", "mrsoa", "stream", "stream", "stream", "uniform")
    POOL = 480
    cycle = len(CLASSES) * len(SCHEDULE)

    def generate(self, sm, seed):
        rng = make_rng(self.name, seed)
        classes = []
        for hypotheses, gamma in self.CLASSES:
            doc = regression_class(rng, 5, 3, hypotheses)
            parsed = json.loads(doc)
            loss = [[F(v) for v in row] for row in parsed["loss"]]
            table = [tuple(row) for row in parsed["hypotheses"]]
            classes.append({"doc": doc, "gamma": gamma, "loss": loss, "table": table})
        raw = []
        for i in range(self.POOL):
            c = i % len(classes)
            kind = self.SCHEDULE[(i // len(classes)) % len(self.SCHEDULE)]
            entry = {"class": c, "kind": kind}
            if kind == "stream":
                spec = classes[c]
                entry["stream"] = realizable_stream(rng, spec["loss"], spec["table"], 3, self.HORIZON)
            raw.append(entry)
        return {"classes": [{"doc": c["doc"], "gamma": c["gamma"]} for c in classes], "items": raw}

    def prepare(self, sm, raw):
        warm = []
        for spec in raw["classes"]:
            problem, cls = sm.parse_instance_document(spec["doc"])
            engine = sm.DimensionEngine(problem, cls, spec["gamma"])
            full = full_space(sm, cls)
            dim = engine.smdim(full)
            warm.append(
                {
                    "problem": problem,
                    "cls": cls,
                    "engine": engine,
                    "gamma": F(spec["gamma"]),
                    "dim": dim,
                    "cert": engine.certificate(full),
                }
            )
        pool = []
        for entry in raw["items"]:
            item = dict(warm[entry["class"]], kind=entry["kind"])
            if entry["kind"] == "stream":
                item["stream"] = list(sm.parse_stream_document(entry["stream"], item["problem"]))
            pool.append(item)
        # Warm the read path too: the timed items then hit the memo and the
        # LP cache on every query, as a long-lived engine would.
        for item in pool:
            self.run(sm, item)
        return pool

    def run(self, sm, item):
        problem, cls, engine = item["problem"], item["cls"], item["engine"]
        if item["kind"] == "stream":
            learner = sm.Mrsoa(problem, cls, engine=engine)
            return sm.run_game(problem, cls, learner, item["stream"])
        if item["kind"] == "mrsoa":
            learner = sm.Mrsoa(problem, cls, engine=engine)
        else:
            learner = sm.UniformLearner(problem, cls)
        adversary = sm.ShatteringAdversary(problem, cls, item["cert"])
        return sm.run_game(problem, cls, learner, adversary, rounds=item["dim"])

    def check(self, sm, item, report):
        gamma, dim, problem = item["gamma"], item["dim"], item["problem"]
        if item["kind"] != "stream":
            if report.regret < gamma * dim:
                return [f"adversary forced regret {report.regret} < gamma*dim {gamma * dim}"]
            return []
        problems = []
        over_margin = 0
        cumulative = F(0)
        eps_sum = F(0)
        for t, (record, example) in enumerate(zip(report.rounds, item["stream"]), start=1):
            expected = sm.expected_loss(problem, record.mixture, example.y)
            if expected != record.expected:
                problems.append(f"round {t}: recorded loss {record.expected} != {expected}")
            cumulative += expected
            eps_sum += example.eps
            if expected >= gamma + example.eps:
                over_margin += 1
            if cumulative > eps_sum + gamma * t + problem.bound_c * dim:
                problems.append(f"round {t}: cumulative loss {cumulative} over the bound")
        if len(report.rounds) != len(item["stream"]):
            problems.append(f"{len(report.rounds)} rounds played for a stream of {len(item['stream'])}")
        if over_margin > dim:
            problems.append(f"{over_margin} over-margin rounds > dimension {dim}")
        return problems

    def canonical(self, item, report):
        return canonical_report(report)


def canonical_report(report):
    rounds = [
        [r.x, r.y, None if r.eps is None else str(r.eps), [str(w) for w in r.mixture.weights], str(r.expected)]
        for r in report.rounds
    ]
    return json.dumps(
        {"rounds": rounds, "hindsight": report.hindsight_index, "regret": str(report.regret)},
        sort_keys=True,
    )


# -- agnostic-enum -----------------------------------------------------------------


class AgnosticEnum:
    name = "agnostic-enum"
    why = (
        "exact sign enumeration with AgnosticLearner on classes with a sqrt(T) witness: "
        "MW over large expert pools, learners and expected_loss do the work"
    )
    cold = True
    tail_percentile = 90
    trace_items = 20
    block_items = 1
    GAMMA = "1/4"
    INTERIOR = (F(1, 4), F(1, 2), F(3, 4))
    # Item cost grows with the horizon and the class dimension. Classes
    # alternate between dimension 1 and 2; each is played at every horizon
    # listed for its dimension, so two classes give one item of every shape.
    HORIZONS = {1: (3, 4, 5), 2: (3, 4)}
    cycle = sum(len(h) for h in HORIZONS.values())
    CLASSES = 48
    DRAWS = 400

    def draw_doc(self, rng):
        """Absolute loss on a grid in [0, 1] containing 0 and 1, so c = 1 and the
        triangle inequality gives every class with two hypotheses a witness."""
        grid = sorted([F(0), F(1)] + rng.sample(self.INTERIOR, rng.randint(0, 1)))
        loss = [[abs(y - z) for z in grid] for y in grid]
        nx = rng.randint(1, 2)
        table = sample_rows(rng, len(grid), nx, rng.randint(2, 4))
        ids = [str(v) for v in grid]
        return instance_doc(nx, ids, ids, loss, table)

    def generate(self, sm, seed):
        """Draw DRAWS classes and keep the first CLASSES / 2 with a witness at
        each of dimensions 1 and 2.

        Selecting on the dimension keeps the mix of item sizes the same for
        every seed, and a fixed number of draws keeps the set-up's work the
        same; nothing is rejected for failing an output check.
        """
        rng = make_rng(self.name, seed)
        found = {1: [], 2: []}
        for _ in range(self.DRAWS):
            doc = self.draw_doc(rng)
            problem, cls = sm.parse_instance_document(doc)
            if sm.find_sqrt_witness(problem, cls) is None:
                continue
            dim = sm.smdim(problem, cls, full_space(sm, cls), self.GAMMA)
            if dim in found:
                found[dim].append(doc)
        per_dim = self.CLASSES // 2
        if min(len(docs) for docs in found.values()) < per_dim:
            raise RuntimeError(f"fewer than {per_dim} classes of dimension 1 or 2 in {self.DRAWS} draws")
        raw = []
        for pair in zip(found[1][:per_dim], found[2][:per_dim]):
            for dim, doc in zip((1, 2), pair):
                raw += [{"doc": doc, "horizon": t, "dim": dim} for t in self.HORIZONS[dim]]
        return raw

    def prepare(self, sm, raw):
        items = []
        for r in raw:
            problem, cls = sm.parse_instance_document(r["doc"])
            items.append(dict(r, problem=problem, cls=cls, witness=sm.find_sqrt_witness(problem, cls)))
        return items

    def run(self, sm, item):
        problem, cls, witness, horizon = item["problem"], item["cls"], item["witness"], item["horizon"]
        engine = sm.DimensionEngine(problem, cls, self.GAMMA)
        return sm.exact_expectation_over_signs(
            problem,
            cls,
            lambda signs: sm.rademacher_stream(witness, signs),
            lambda: sm.AgnosticLearner(problem, cls, self.GAMMA, horizon, engine=engine),
            horizon,
        )

    def check(self, sm, item, value):
        horizon, dim, c = item["horizon"], item["dim"], item["problem"].bound_c
        gamma = F(self.GAMMA)
        problems = []
        lower = item["witness"].eta * sm.expected_abs_sign_sum(horizon) / 2
        if value < lower:
            problems.append(f"expected regret {value} < eta*E|S|/2 = {lower}")
        upper = (
            float(c) * dim
            + float(gamma) * horizon
            + 1.0
            + 2.0 * float(c) * math.sqrt(dim * horizon * math.log(2.0 * float(c) * horizon))
            + 2.0**-40
        )
        if float(value) > upper:
            problems.append(f"expected regret {float(value)} > closed-form bound {upper}")
        return problems

    def canonical(self, item, value):
        return str(value)


WORKLOADS = {w.name: w for w in (DimCold(), RoutesSmall(), ReplayWarm(), AgnosticEnum())}
