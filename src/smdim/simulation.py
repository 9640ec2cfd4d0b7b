"""Game harness: run a learner against a stream or adversary and account regret.

The default mode is exact: per-round expected losses are rationals computed
from the played mixtures, so regret statements are equalities and
inequalities over Fractions, not float estimates. A monte-carlo mode samples
prediction draws for the same transcript and reports mean and standard error,
for eyeballing only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import (
    HypothesisClass,
    Mixture,
    Problem,
    ProtocolError,
    RealizabilityError,
    ThresholdedExample,
    ValidationError,
    check_feedback,
    check_instance,
    expected_loss,
    format_rational,
    make_stream,
    scaled_loss,
    validate_problem,
    validate_stream,
)
from .instances import encode_identifier


@dataclass(frozen=True)
class RoundRecord:
    """One round: 1-based index, instance, label, optional threshold, play."""

    index: int
    x: int
    y: int
    eps: Optional[Fraction]
    mixture: Mixture
    expected: Fraction


@dataclass(frozen=True)
class RegretReport:
    rounds: tuple
    cumulative: Fraction
    hindsight_index: int
    hindsight_loss: Fraction
    regret: Fraction
    mode: str
    seed: Optional[int] = None
    trials: Optional[int] = None
    mc_mean: Optional[float] = None
    mc_stderr: Optional[float] = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def per_round_expected(self) -> tuple:
        return tuple(r.expected for r in self.rounds)

    def to_doc(self, problem: Problem) -> dict:
        doc = {
            "mode": self.mode,
            "rounds": [
                {
                    "round": r.index,
                    "instance": encode_identifier(problem.instances[r.x]),
                    "label": encode_identifier(problem.labels[r.y]),
                    "eps": None if r.eps is None else format_rational(r.eps),
                    "mixture": [format_rational(w) for w in r.mixture.weights],
                    "expected_loss": format_rational(r.expected),
                }
                for r in self.rounds
            ],
            "cumulative_expected_loss": format_rational(self.cumulative),
            "hindsight_hypothesis": self.hindsight_index,
            "hindsight_loss": format_rational(self.hindsight_loss),
            "regret": format_rational(self.regret),
        }
        if self.mode == "monte-carlo":
            doc["seed"] = self.seed
            doc["trials"] = self.trials
            doc["mc_mean"] = self.mc_mean
            doc["mc_stderr"] = self.mc_stderr
        return doc


def _cell(identifier) -> str:
    encoded = encode_identifier(identifier)
    if isinstance(encoded, str):
        return encoded
    return json.dumps(encoded, separators=(",", ":"))


TRANSCRIPT_COLUMNS = ("round", "instance", "label", "eps", "mixture", "expected_loss")


def transcript_rows(problem: Problem, report: RegretReport) -> list:
    """CSV rows (header first) for the transcript; mixtures semicolon-joined."""
    rows = [list(TRANSCRIPT_COLUMNS)]
    for r in report.rounds:
        rows.append(
            [
                str(r.index),
                _cell(problem.instances[r.x]),
                _cell(problem.labels[r.y]),
                "" if r.eps is None else format_rational(r.eps),
                ";".join(format_rational(w) for w in r.mixture.weights),
                format_rational(r.expected),
            ]
        )
    return rows


def best_in_hindsight(
    problem: Problem, cls: HypothesisClass, stream: Sequence
) -> tuple:
    """(index, loss) of the cumulative-loss-minimizing hypothesis (lowest index wins).

    Each element is a ThresholdedExample or an (x, y) or (x, y, eps) tuple or
    list, and its instance and label are checked by the rules
    `validate_stream` uses; a bad one raises ValidationError with its 1-based
    round. The totals are integers over the loss table's common denominator.
    """
    den, rows = problem.scaled_loss
    totals = [0] * cls.num_hypotheses
    for t, item in enumerate(stream, 1):
        if isinstance(item, ThresholdedExample):
            x, y = item.x, item.y
        elif isinstance(item, (tuple, list)) and len(item) in (2, 3):
            x, y = item[0], item[1]
        else:
            raise ValidationError(f"round {t}: stream element {item!r} is not (x, y) or (x, y, eps)")
        check_instance(problem, t, x)
        check_feedback(problem, t, y, None)
        row = rows[y]
        totals = [total + row[h_row[x]] for total, h_row in zip(totals, cls.table)]
    best = totals.index(min(totals))
    return best, Fraction(totals[best], den)


def run_game(
    problem: Problem,
    cls: HypothesisClass,
    learner,
    source,
    rounds: Optional[int] = None,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 1000,
) -> RegretReport:
    """Run `learner` against `source` (a stream or an adversary object).

    A stream is a sequence of (x, y[, eps]) or ThresholdedExample; an
    adversary is anything with next_instance() and observe_mixture(mixture).
    Rounds defaults to the stream length (mandatory for adversaries). An
    adversary's instance and feedback are checked by the rules a stream's
    are, each before the learner or the loss reads it.
    Realizability and protocol errors are re-raised with the 1-based round.
    """
    validate_problem(problem, cls)
    if mode not in ("exact", "monte-carlo"):
        raise ValidationError(f"mode must be 'exact' or 'monte-carlo', got {mode!r}")
    is_stream = isinstance(source, (tuple, list))
    if is_stream:
        stream = make_stream(source)
        validate_stream(problem, stream)
        if rounds is None:
            rounds = len(stream)
        if rounds > len(stream):
            raise ValidationError(f"asked for {rounds} rounds but the stream has {len(stream)}")
    elif rounds is None:
        raise ValidationError("rounds is required when playing an adversary")
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")

    records = []
    for t in range(1, rounds + 1):
        try:
            if is_stream:
                example = stream[t - 1]
                x = example.x
                mixture = learner.predict(x)
                y, eps = example.y, example.eps
            else:
                x = source.next_instance()
                check_instance(problem, t, x)
                mixture = learner.predict(x)
                y, eps = source.observe_mixture(mixture)
                check_feedback(problem, t, y, eps)
            value = expected_loss(problem, mixture, y)
            learner.update(x, y, eps)
        except (RealizabilityError, ProtocolError) as exc:
            raise type(exc)(f"round {t}: {exc}") from exc
        records.append(RoundRecord(t, x, y, eps, mixture, value))

    den, (scaled,) = scaled_loss((tuple(r.expected for r in records),))
    cumulative = Fraction(sum(scaled), den)
    hindsight_index, hindsight_loss = best_in_hindsight(
        problem, cls, [(r.x, r.y) for r in records]
    )
    regret = cumulative - hindsight_loss
    sampled = {}
    if mode == "monte-carlo":
        mean, stderr = _sample_losses(problem, records, seed, trials)
        sampled = dict(seed=seed, trials=trials, mc_mean=mean, mc_stderr=stderr)
    return RegretReport(
        rounds=tuple(records),
        cumulative=cumulative,
        hindsight_index=hindsight_index,
        hindsight_loss=hindsight_loss,
        regret=regret,
        mode=mode,
        **sampled,
    )


def _sample_losses(problem: Problem, records, seed: int, trials: int):
    if trials < 2:
        raise ValidationError(f"monte-carlo needs at least 2 trials, got {trials}")
    rng = random.Random(seed)
    cutoffs = []
    for r in records:
        acc = 0.0
        cdf = []
        for w in r.mixture.weights:
            acc += float(w)
            cdf.append(acc)
        cdf[-1] = 1.0
        cutoffs.append((cdf, [float(v) for v in problem.loss[r.y]]))
    totals = []
    for _ in range(trials):
        total = 0.0
        for cdf, losses in cutoffs:
            u = rng.random()
            for z, cut in enumerate(cdf):
                if u <= cut:
                    total += losses[z]
                    break
        totals.append(total)
    mean = math.fsum(totals) / trials
    var = math.fsum((v - mean) ** 2 for v in totals) / (trials - 1)
    return mean, math.sqrt(var / trials)


SIGN_ENUM_CAP = 12


def exact_expectation_over_signs(
    problem: Problem,
    cls: HypothesisClass,
    make_stream_for_signs: Callable[[tuple], Iterable],
    learner_factory: Callable[[], object],
    rounds: int,
) -> Fraction:
    """Average regret over all 2^rounds sign streams, exactly.

    Each sign vector in {+1,-1}^rounds is mapped to a stream by
    `make_stream_for_signs`; all streams are built and validated first. The
    average is of the exact expected regret a fresh learner from
    `learner_factory` suffers on each stream, as `run_game` reports it, but
    the factory is called once: the function walks the tree of stream
    prefixes depth-first, playing each distinct prefix once and returning
    to a branch point with the learner's snapshot()/restore(). Capped at
    SIGN_ENUM_CAP rounds because the cost doubles per round.
    """
    validate_problem(problem, cls)
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")
    if rounds > SIGN_ENUM_CAP:
        raise ValidationError(
            f"sign enumeration over 2^{rounds} streams exceeds the cap of {SIGN_ENUM_CAP}"
        )
    streams = []
    for signs in product((1, -1), repeat=rounds):
        stream = make_stream(list(make_stream_for_signs(signs)))
        validate_stream(problem, stream)
        streams.append(stream)
    learner = learner_factory()
    total = Fraction(0)
    # Depth-first over the tree of stream prefixes. An entry holds the streams
    # that share their first `depth` rounds, the last of which is `example`
    # (None at the root), with the expected loss suffered and the learner's
    # state before that round. Siblings are pushed in reverse, so they are
    # played in the order their first stream appears.
    pending = [(streams, 0, Fraction(0), None, None)]
    while pending:
        group, depth, cumulative, state, example = pending.pop()
        if example is not None:
            learner.restore(state)
            try:
                mixture = learner.predict(example.x)
                cumulative += expected_loss(problem, mixture, example.y)
                learner.update(example.x, example.y, example.eps)
            except (RealizabilityError, ProtocolError) as exc:
                raise type(exc)(f"round {depth}: {exc}") from exc
        branches: dict = {}
        for stream in group:
            if len(stream) == depth:
                total += cumulative - best_in_hindsight(problem, cls, stream)[1]
            else:
                branches.setdefault(stream[depth], []).append(stream)
        if branches:
            state = learner.snapshot()
            for step, rest in reversed(branches.items()):
                pending.append((rest, depth + 1, cumulative, state, step))
    return total / Fraction(2**rounds)
