"""Game harness: run a learner against a stream or adversary and account regret.

The default mode is exact: per-round expected losses are rationals computed
from the played mixtures, so regret statements are equalities and
inequalities over Fractions, not float estimates. A monte-carlo mode samples
prediction draws for the same transcript and reports mean and standard error,
for eyeballing only.

The per-round work around the learner is kept small: a stream's rounds are
made and checked in one pass, up front, by `make_stream(items, problem)`,
whose rules compare in integers (`check_index`, `check_threshold`); records
and reports are written with `make_record`, one `__dict__` each, not a
frozen `__init__`'s setattr per field; hindsight totals are integers over
the loss denominator. The sign walk sums its expected losses in integers
too: each trie node's loss, times the streams through the node, goes into
one integer per mixture denominator, and only those become Fractions.
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
    ValidationError,
    check_count,
    check_feedback,
    check_instance,
    expected_loss,
    format_rational,
    format_value,
    make_record,
    make_stream,
    scaled_expected_loss,
    scaled_loss,
    validate_problem,
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

    The class must fit the problem (`validate_problem`). The stream is made
    and checked against the problem by `make_stream`, as `run_game` makes
    it: a malformed element, a bad instance, label or threshold, or a mixed
    stream raises ValidationError with its 1-based round. The totals are
    integers over the loss table's common denominator.
    """
    validate_problem(problem, cls)
    return _hindsight(problem, cls, ((ex.x, ex.y) for ex in make_stream(stream, problem)))


def _hindsight(problem: Problem, cls: HypothesisClass, pairs: Iterable) -> tuple:
    """`best_in_hindsight` over (x, y) pairs already checked against the
    problem: `run_game` and `exact_expectation_over_signs` check every round
    once, before they play it."""
    den, rows = problem.scaled_loss
    totals = [0] * cls.num_hypotheses
    for x, y in pairs:
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
    Rounds defaults to the stream length (mandatory for adversaries). A
    stream is made and checked against the problem in one pass by
    `make_stream`, before the first round is played; an adversary's instance
    and feedback are checked by the same rules, each before the learner or
    the loss reads it. In monte-carlo mode, `trials` (at least 2) is checked
    before the first round too.
    Realizability and protocol errors are re-raised with the 1-based round.
    """
    validate_problem(problem, cls)
    if mode not in ("exact", "monte-carlo"):
        raise ValidationError(f"mode must be 'exact' or 'monte-carlo', got {format_value(mode)}")
    if mode == "monte-carlo":
        check_count("trials", trials, low=2)
    is_stream = isinstance(source, (tuple, list))
    if is_stream:
        stream = make_stream(source, problem)
        if rounds is None:
            rounds = len(stream)
    elif rounds is None:
        raise ValidationError("rounds is required when playing an adversary")
    check_count("rounds", rounds)
    if is_stream and rounds > len(stream):
        raise ValidationError(f"asked for {format_rational(rounds)} rounds but the stream has {len(stream)}")

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
        records.append(
            make_record(RoundRecord, index=t, x=x, y=y, eps=eps, mixture=mixture, expected=value)
        )

    den, (scaled,) = scaled_loss((tuple(r.expected for r in records),))
    cumulative = Fraction(sum(scaled), den)
    hindsight_index, hindsight_loss = _hindsight(problem, cls, [(r.x, r.y) for r in records])
    sampled = dict(seed=None, trials=None, mc_mean=None, mc_stderr=None)
    if mode == "monte-carlo":
        mean, stderr = _sample_losses(problem, records, seed, trials)
        sampled = dict(seed=seed, trials=trials, mc_mean=mean, mc_stderr=stderr)
    return make_record(
        RegretReport,
        rounds=tuple(records),
        cumulative=cumulative,
        hindsight_index=hindsight_index,
        hindsight_loss=hindsight_loss,
        regret=cumulative - hindsight_loss,
        mode=mode,
        **sampled,
    )


def _sample_losses(problem: Problem, records, seed: int, trials: int):
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
    `make_stream_for_signs` and made by `make_stream`. Every stream is put
    into a trie of stream prefixes as it is made, before the learner plays,
    and a step (a round's element after a given prefix) is checked only when
    the trie first meets it, with its round: one check per distinct step,
    and the first bad step is the one a check of each stream in turn would
    refuse. A node of the trie counts the streams that end there.

    The average is of the exact expected regret a fresh learner from
    `learner_factory` suffers on each stream, as `run_game` reports it, but
    the factory is called once: the function walks the trie depth-first,
    playing each distinct prefix once and returning to a branch point with
    the learner's snapshot()/restore(). Children of a branch point that play
    the same instance share one predict: the first stores the mixture and the
    snapshot taken right after predict, and the others restore that snapshot
    and only update, so sign streams on one instance cost 2^rounds - 1
    predictions. A stream's expected loss is the sum of its nodes' losses,
    so the sum over streams is the sum over nodes of each node's loss times
    the streams through it: the walk adds `through * scaled_expected_loss`,
    an integer over the mixture's and the loss table's denominators, to one
    integer per mixture denominator, and builds one Fraction per distinct
    mixture denominator, at the end. Each hypothesis's loss in hindsight is
    carried down the trie as an integer over the loss denominator, and the
    best of them at each stream's end, times the streams that end there, is
    summed as one such integer. The difference is divided by 2^rounds once.
    A non-iterable stream, a learner without snapshot() and restore(), or a
    prediction that is not a Mixture raises ValidationError.
    Capped at SIGN_ENUM_CAP rounds because the cost doubles per round.
    """
    validate_problem(problem, cls)
    check_count("rounds", rounds)
    if rounds > SIGN_ENUM_CAP:
        raise ValidationError(
            f"sign enumeration over 2^{rounds} streams exceeds the cap of {SIGN_ENUM_CAP}"
        )
    # A trie node is [children, ends, through]: children maps the next step
    # (a ThresholdedExample) to its node, in the order the steps were first
    # met, ends counts the streams that end at the node and through the
    # streams that pass through it.
    root = [{}, 0, 0]
    for signs in product((1, -1), repeat=rounds):
        node = root
        for t, step in enumerate(make_stream(make_stream_for_signs(signs)), 1):
            child = node[0].get(step)
            # A step equal to a checked one is checked again only when an
            # index is not an int (True and 1.0 equal 1), which the checks refuse.
            if child is None or type(step.x) is not int or type(step.y) is not int:
                check_instance(problem, t, step.x)
                check_feedback(problem, t, step.y, step.eps)
                child = node[0][step] = [{}, 0, 0]
            node = child
            node[2] += 1
        node[1] += 1
    learner = learner_factory()
    for method in ("snapshot", "restore"):
        if not callable(getattr(learner, method, None)):
            name = type(learner).__name__
            raise ValidationError(f"the sign walk needs the learner's {method}(), and {name} has none")
    den, rows = problem.scaled_loss
    table = cls.table
    # The sum over nodes of the streams through a node times its expected
    # loss, as one integer over mixture.den * den per mixture denominator,
    # and the sum over streams of the best hypothesis's loss in hindsight,
    # as an integer over den.
    losses, best = {}, 0
    # Depth-first over the trie. An entry holds a node, reached by `step`
    # (None at the root) at round `depth`, with each hypothesis's loss on the
    # prefix (integers over den), the learner's state before that round, and
    # the plays its siblings share: per instance, the mixture and the state
    # right after predict, stored by the first sibling on that instance.
    # Siblings are pushed in reverse, so they are played in the order they
    # were first met.
    pending = [(root, 0, (0,) * cls.num_hypotheses, None, None, None)]
    while pending:
        (children, ends, through), depth, hindsight, state, step, plays = pending.pop()
        if step is not None:
            x = step.x
            try:
                if x in plays:
                    mixture, predicted = plays[x]
                    learner.restore(predicted)
                else:
                    learner.restore(state)
                    mixture = learner.predict(x)
                    plays[x] = mixture, learner.snapshot()
                scaled = through * scaled_expected_loss(problem, mixture, step.y)
                losses[mixture.den] = losses.get(mixture.den, 0) + scaled
                learner.update(x, step.y, step.eps)
            except (RealizabilityError, ProtocolError) as exc:
                raise type(exc)(f"round {depth}: {exc}") from exc
            row = rows[step.y]
            hindsight = tuple(loss + row[h_row[x]] for loss, h_row in zip(hindsight, table))
        if ends:
            best += ends * min(hindsight)
        if children:
            state, plays = learner.snapshot(), {}
            for step, child in reversed(children.items()):
                pending.append((child, depth + 1, hindsight, state, step, plays))
    # One Fraction per mixture denominator: putting them all over one lcm
    # costs more at T = 12, where there are thousands. Starting from the
    # Fraction -best keeps the result a Fraction when no round is played.
    total = sum((Fraction(n, d) for d, n in losses.items()), Fraction(-best))
    return total / (den * 2**rounds)
