"""Command-line front end.

Subcommands: `dim` (dimension computation), `learn` (run a learner on a
stream file), `adversary` (certificate adversary vs a learner), `verify`
(seeded equivalence checks), and `sqrt-lower` (exact sign-stream enumeration
of the square-root lower bound).

Instances come from `--builtin NAME[:params]` or `--instance FILE`; margins
are rational literals only ("1/4", "0.25", "0"). Default output is plain
text; `--format json` and `--format csv` emit machine-readable documents,
`--out PATH` redirects them to a file. Exit codes: 0 success, 2 usage or
validation error, 3 a verification case found a counterexample.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction

from .adversaries import (
    ShatteringAdversary,
    expected_abs_sign_sum,
    find_sqrt_witness,
    rademacher_stream,
)
from .core import (
    BudgetError,
    ProtocolError,
    RealizabilityError,
    ValidationError,
    VersionSpace,
    format_rational,
)
from .dimensions import (
    DimensionEngine,
    GammaValue,
    ldim_k,
    msdim,
    seqfat,
    smdim,
)
from .instances import (
    builtin_names,
    canonical_json,
    make_builtin,
    parse_instance_document,
    parse_stream_document,
)
from .learners import AgnosticLearner, FollowTheLeader, Mrsoa, UniformLearner
from .simulation import exact_expectation_over_signs, run_game, transcript_rows
from .verify import normalize_prop, run_verification

# OSError: a file that cannot be opened; UnicodeDecodeError: an input file that
# is not UTF-8.
_USAGE_ERRORS = (
    ValidationError,
    RealizabilityError,
    BudgetError,
    ProtocolError,
    OSError,
    UnicodeDecodeError,
)


def _add_instance_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--builtin",
        metavar="NAME[:params]",
        help=f"built-in family, one of: {', '.join(builtin_names())}",
    )
    group.add_argument("--instance", metavar="FILE", help="instance JSON file")


def _add_output_args(sub):
    sub.add_argument("--format", choices=("csv", "json"), help="structured output format")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


_ALPHA_HELP = "agnostic threshold grid step (default min(1/T, c); 1/T when c = 0)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdim",
        description="Exact online-learning dimensions, learners, and adversaries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    dim = subs.add_parser("dim", help="compute a dimension")
    dim.add_argument(
        "--dimension",
        required=True,
        choices=("smdim", "ldim", "ldimk", "seqfat", "msdim"),
    )
    dim.add_argument("--gamma", help="comma-separated rational margins (0 means strict)")
    dim.add_argument("--k", type=int, default=1, help="list size for ldimk (default 1)")
    dim.add_argument("--memo-cap", type=int, help="override the version-space budget")
    _add_instance_args(dim)
    _add_output_args(dim)

    learn = subs.add_parser("learn", help="run a learner over a stream file")
    learn.add_argument("--learner", required=True, choices=("mrsoa", "agnostic", "ftl"))
    learn.add_argument("--stream", required=True, metavar="FILE")
    learn.add_argument("--gamma", help="rational margin (mrsoa and agnostic)")
    learn.add_argument("--alpha", help=_ALPHA_HELP)
    learn.add_argument("--memo-cap", type=int)
    learn.add_argument("--mode", choices=("exact", "monte-carlo"), default="exact")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--trials", type=int, default=1000)
    _add_instance_args(learn)
    _add_output_args(learn)

    adv = subs.add_parser("adversary", help="play the certificate adversary against a learner")
    adv.add_argument(
        "--learner", required=True, choices=("mrsoa", "agnostic", "ftl", "uniform")
    )
    adv.add_argument("--gamma", required=True, help="rational margin for the certificate")
    adv.add_argument("-T", "--rounds", type=int, help="rounds to play (default: the dimension)")
    adv.add_argument("--alpha", help=_ALPHA_HELP)
    adv.add_argument("--memo-cap", type=int)
    _add_instance_args(adv)
    _add_output_args(adv)

    ver = subs.add_parser("verify", help="seeded random equivalence checks")
    ver.add_argument(
        "--prop",
        required=True,
        help="which equivalence: ldim, list, msdim, or seqfat (numeric aliases accepted)",
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cases", type=int, default=20)
    _add_output_args(ver)

    sqrt = subs.add_parser("sqrt-lower", help="exact sign-stream lower-bound enumeration")
    sqrt.add_argument("-T", "--rounds", type=int, required=True)
    sqrt.add_argument("--gamma", default="1/4", help="margin for the aggregating learner")
    sqrt.add_argument("--alpha", help=_ALPHA_HELP)
    _add_instance_args(sqrt)
    _add_output_args(sqrt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "dim": _cmd_dim,
        "learn": _cmd_learn,
        "adversary": _cmd_adversary,
        "verify": _cmd_verify,
        "sqrt-lower": _cmd_sqrt_lower,
    }[args.command]
    try:
        return handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _output(args, doc, rows, text: str) -> None:
    """Write `doc` as canonical JSON under --format json, `rows` as CSV under
    --format csv, and `text` otherwise; to --out when given, else stdout."""
    if args.format == "json":
        text = canonical_json(doc)
    elif args.format == "csv":
        text = _csv_text(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerows(rows)
    return buffer.getvalue()


def _load_instance(args):
    # argparse's required exclusive group guarantees exactly one source.
    if args.builtin is not None:
        return make_builtin(args.builtin)
    with open(args.instance, "r", encoding="utf-8") as handle:
        return parse_instance_document(handle.read())


def _parse_gammas(text: str):
    if not text:
        raise ValidationError("--gamma must not be empty")
    return [GammaValue.of(token) for token in text.split(",")]


def _require_gamma(args, why: str) -> GammaValue:
    if args.gamma is None:
        raise ValidationError(f"--gamma is required for {why}")
    gammas = _parse_gammas(args.gamma)
    if len(gammas) != 1:
        raise ValidationError(f"{why} takes a single gamma")
    return gammas[0]


def _cmd_dim(args) -> int:
    problem, cls = _load_instance(args)
    space = VersionSpace.full(cls.num_hypotheses)
    name = args.dimension
    if name in ("ldim", "ldimk"):
        k = 1 if name == "ldim" else args.k
        value = ldim_k(problem, cls, space, k)
        doc = {"dimension": name, "k": k, "value": value}
        _output(args, doc, [["k", "value"], [k, value]], f"{value}\n")
        return 0
    if args.gamma is None:
        raise ValidationError(f"--gamma is required for {name}")
    gammas = _parse_gammas(args.gamma)
    results = []
    for gv in gammas:
        if name == "smdim":
            value = smdim(problem, cls, space, gv, args.memo_cap)
        elif name == "msdim":
            value = msdim(problem, cls, space, gv, args.memo_cap)
        else:
            value = seqfat(problem, cls, space, gv)
        results.append((gv, value))
    doc = {
        "dimension": name,
        "results": [
            {"gamma": format_rational(gv.gamma), "strict": gv.strict, "value": v}
            for gv, v in results
        ],
    }
    rows = [["gamma", "strict", "value"]]
    rows += [[format_rational(gv.gamma), str(gv.strict).lower(), v] for gv, v in results]
    _output(args, doc, rows, "".join(f"{v}\n" for _, v in results))
    return 0


def _make_learner(name, problem, cls, args, horizon, engine=None):
    """The named learner; the version-space learners run on `engine`, built
    from --gamma and --memo-cap when not given."""
    if name in ("mrsoa", "agnostic"):
        if engine is None:
            engine = DimensionEngine(problem, cls, _require_gamma(args, name), args.memo_cap)
        if name == "mrsoa":
            return Mrsoa(problem, cls, engine=engine)
        return AgnosticLearner(problem, cls, engine.gamma, horizon, alpha=args.alpha, engine=engine)
    if name == "ftl":
        return FollowTheLeader(problem, cls)
    return UniformLearner(problem, cls)


def _emit_report(problem, report, args, *extra_lines) -> None:
    """Output the report: its document, transcript rows, or text summary
    followed by `extra_lines`."""
    lines = [
        f"rounds: {report.num_rounds}",
        f"cumulative expected loss: {format_rational(report.cumulative)}",
        f"best in hindsight: hypothesis {report.hindsight_index} "
        f"with loss {format_rational(report.hindsight_loss)}",
        f"regret: {format_rational(report.regret)}",
    ]
    if report.mode == "monte-carlo":
        lines.append(
            f"sampled mean {report.mc_mean:.6f} +/- {report.mc_stderr:.6f} "
            f"({report.trials} trials, seed {report.seed})"
        )
    lines += extra_lines
    text = "".join(line + "\n" for line in lines)
    _output(args, report.to_doc(problem), transcript_rows(problem, report), text)


def _cmd_learn(args) -> int:
    problem, cls = _load_instance(args)
    with open(args.stream, "r", encoding="utf-8") as handle:
        stream = parse_stream_document(handle.read(), problem)
    learner = _make_learner(args.learner, problem, cls, args, horizon=max(1, len(stream)))
    report = run_game(
        problem,
        cls,
        learner,
        list(stream),
        mode=args.mode,
        seed=args.seed,
        trials=args.trials,
    )
    _emit_report(problem, report, args)
    return 0


def _cmd_adversary(args) -> int:
    problem, cls = _load_instance(args)
    gv = _require_gamma(args, "adversary")
    engine = DimensionEngine(problem, cls, gv, args.memo_cap)
    space = VersionSpace.full(cls.num_hypotheses)
    certificate = engine.certificate(space)
    depth = certificate.depth
    rounds = depth if args.rounds is None else args.rounds
    if rounds > depth:
        raise ValidationError(
            f"certificate supports at most {depth} rounds at gamma {gv.describe()}"
        )
    adversary = ShatteringAdversary(problem, cls, certificate)
    learner = _make_learner(args.learner, problem, cls, args, max(1, rounds), engine)
    report = run_game(problem, cls, learner, adversary, rounds=rounds)
    _emit_report(
        problem,
        report,
        args,
        f"dimension: {depth}",
        f"guaranteed regret: >= {format_rational(gv.gamma * rounds)}",
    )
    return 0


def _cmd_verify(args) -> int:
    prop = normalize_prop(args.prop)
    results = run_verification(prop, seed=args.seed, cases=args.cases)
    failures = [r for r in results if not r.ok]
    doc = {
        "prop": prop,
        "seed": args.seed,
        "cases": [{"index": r.index, "ok": r.ok, "detail": r.detail} for r in results],
        "failures": len(failures),
    }
    rows = [["index", "prop", "ok", "detail"]]
    rows += [[r.index, r.prop, str(r.ok).lower(), r.detail] for r in results]
    lines = [f"case {r.index}: {'ok' if r.ok else 'FAIL'} - {r.detail}" for r in results]
    lines.append(f"{len(results) - len(failures)}/{len(results)} cases passed")
    _output(args, doc, rows, "".join(line + "\n" for line in lines))
    if failures:
        print(f"error: {len(failures)} verification case(s) failed", file=sys.stderr)
        return 3
    return 0


def _cmd_sqrt_lower(args) -> int:
    problem, cls = _load_instance(args)
    rounds = args.rounds
    witness = find_sqrt_witness(problem, cls)
    if witness is None:
        raise ValidationError("instance admits no two-point sign witness")
    gv = _require_gamma(args, "sqrt-lower")

    def factory():
        if rounds == 0:
            return UniformLearner(problem, cls)
        return AgnosticLearner(problem, cls, gv, rounds, alpha=args.alpha)

    expected = exact_expectation_over_signs(
        problem,
        cls,
        lambda signs: rademacher_stream(witness, signs),
        factory,
        rounds,
    )
    khinchine = witness.eta * expected_abs_sign_sum(rounds) / 2
    # eta * sqrt(T/8), shown as a float; `satisfied` compares squares exactly.
    bound = float(witness.eta) * math.sqrt(rounds / 8.0)
    doc = {
        "rounds": rounds,
        "witness": {
            "x": witness.x,
            "h_minus": witness.h_minus,
            "h_plus": witness.h_plus,
            "y_minus": witness.y_minus,
            "y_plus": witness.y_plus,
            "eta": format_rational(witness.eta),
        },
        "expected_regret": format_rational(expected),
        "khinchine_term": format_rational(khinchine),
        "bound": bound,
        "satisfied": expected >= 0 and 8 * expected**2 >= witness.eta**2 * rounds,
    }
    rows = [
        ["rounds", "eta", "expected_regret", "khinchine_term", "bound", "satisfied"],
        [
            rounds,
            format_rational(witness.eta),
            format_rational(expected),
            format_rational(khinchine),
            repr(bound),
            str(doc["satisfied"]).lower(),
        ],
    ]
    text = (
        f"witness: x={witness.x} h-={witness.h_minus} h+={witness.h_plus} "
        f"y-={witness.y_minus} y+={witness.y_plus} eta={format_rational(witness.eta)}\n"
        f"expected regret over all sign streams: {format_rational(expected)}\n"
        f"khinchine term eta*E|S|/2: {format_rational(khinchine)}\n"
        f"target eta*sqrt(T/8): {bound:.6f}\n"
        f"satisfied: {doc['satisfied']}\n"
    )
    _output(args, doc, rows, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
