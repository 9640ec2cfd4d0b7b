"""Adversaries that realize lower bounds against arbitrary learners.

`ShatteringAdversary` walks a shattering certificate: each round it presents
the recorded instance, best-responds to the learner's mixture among the
recorded (label, threshold) candidates, and descends into that child. By the
certificate's game values, every round costs the learner at least gamma more
than the threshold while some hypothesis stays eps-consistent, so after d
rounds the realizable regret is at least gamma * d. The best response and
its check against the node's value compare integers over one common
denominator; a Fraction is built only for the error message.

`find_sqrt_witness` searches a problem for the two-hypothesis, two-label
pattern behind the sqrt(T) agnostic lower bound: a random sign stream over
the pattern forces expected regret at least eta * E|sum of signs| / 2, which
is of order eta * sqrt(T). The search compares integers over the loss
table's common denominator (`Problem.scaled_loss`) and builds one Fraction,
the winning eta. It searches each distinct pair of predictions once, skips
every candidate whose eta does not beat the best so far before its
two-point test, and takes each label pair's min over the predictions at
most once, so `sqrt-lower` on `multilabel:k=8` (256 labels and predictions)
spends under 0.05 s in it. Both cuts keep the lex-first witness of the
largest eta (`find_sqrt_witness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from .core import (
    HypothesisClass,
    Problem,
    ProtocolError,
    ValidationError,
    check_count,
    check_iterable,
    format_value,
    make_stream,
    scaled_expected_loss,
    validate_problem,
)
from .dimensions import ShatteringCertificate


class ShatteringAdversary:
    """Plays certificate instances, answers mixtures with a best-response label.

    Protocol: alternate next_instance() and observe_mixture(mixture); each
    observe returns (label, eps) with eps None (the thresholds live in the
    certificate; realizable games are label-only). After `depth` rounds the
    certificate is exhausted and next_instance raises ProtocolError.
    """

    def __init__(self, problem: Problem, cls: HypothesisClass, certificate: ShatteringCertificate):
        if certificate.root.members and certificate.root.members[-1] >= cls.num_hypotheses:
            raise ValidationError("certificate root does not fit the hypothesis class")
        self.problem = problem
        self.cls = cls
        self.certificate = certificate
        self._space = certificate.root
        self._depth = certificate.depth
        self._pending = None
        self.rounds_played = 0

    @property
    def remaining_depth(self) -> int:
        return self._depth

    def next_instance(self) -> int:
        if self._pending is not None:
            raise ProtocolError("next_instance called before observe_mixture")
        if self._depth < 1:
            raise ProtocolError("certificate depth exhausted")
        node = self.certificate.node(self._space, self._depth)
        self._pending = node
        return node.instance

    def observe_mixture(self, mixture):
        if self._pending is None:
            raise ProtocolError("observe_mixture called before next_instance")
        node = self._pending
        # The first maximum of expected loss minus threshold, `best_response`
        # over the candidates' rows, in integers: expected losses are
        # integers over den (`scaled_expected_loss`), and every value is put
        # over the lcm of den and the thresholds' denominators.
        den = mixture.den * self.problem.scaled_loss[0]
        common = math.lcm(den, *(cand.threshold.denominator for cand, _ in node.candidates))
        scale = common // den
        index, best = 0, None
        for i, (cand, _) in enumerate(node.candidates):
            eps = cand.threshold
            v = scaled_expected_loss(self.problem, mixture, cand.label) * scale
            v -= eps.numerator * (common // eps.denominator)
            if best is None or v > best:
                index, best = i, v
        if best * node.value.denominator < node.value.numerator * common:
            raise RuntimeError(
                f"best response reaches {Fraction(best, common)}, below the certificate game "
                f"value {node.value}; the certificate is inconsistent"
            )
        cand, child = node.candidates[index]
        self._pending = None
        self._space = child
        self._depth -= 1
        self.rounds_played += 1
        return cand.label, None

    def surviving_hypothesis(self) -> int:
        """Lowest-index hypothesis consistent with every answer given so far."""
        return self._space.members[0]


@dataclass(frozen=True)
class SqrtTWitness:
    """Instance x, hypotheses h_minus/h_plus, labels y_minus/y_plus, gap eta.

    Sign +1 plays y_plus (favoring h_plus), sign -1 plays y_minus. eta is the
    smaller of the two cross losses minus own losses, and the pattern also
    satisfies the two-point condition: no single prediction beats the average
    of the four endpoint losses on y_minus and y_plus combined.
    """

    x: int
    h_minus: int
    h_plus: int
    y_minus: int
    y_plus: int
    eta: Fraction


def find_sqrt_witness(problem: Problem, cls: HypothesisClass) -> Optional[SqrtTWitness]:
    """Exhaustive search for the witness with the largest eta (lex-first tie-break).

    Returns None when the problem has no such pattern (then the sqrt(T)
    argument simply does not apply to it).

    The search reads the problem's integer loss table (`scaled_loss`, every
    loss times den) and builds one Fraction, eta = best / den, at the end.
    Candidates are visited in lex order of (x, h_minus, h_plus, y_minus,
    y_plus), and one replaces the best only on a strictly larger eta, so the
    result is the lex-first among those with the largest eta. Two cuts keep
    that result and skip most of the work:

    - A candidate whose eta is at most the best so far (which includes
      eta <= 0, the best starting at 0) could not replace it, so it is
      dropped before the two-point test. Each label pair's min over the
      predictions, min_z loss[y_minus][z] + loss[y_plus][z], is then
      computed at most once per call, on the first candidate that could win.
    - A candidate depends on (x, h_minus, h_plus) only through the
      predictions (z_minus, z_plus), so each distinct prediction pair is
      searched once, where it first occurs: once it has been searched, the
      best is at least each of its passing etas, and no later copy can be
      strictly larger. Equal predictions give eta <= 0 and are never searched.

    The cost is O(|X| |H|^2) to walk the hypothesis pairs, plus O(|Y|^2) per
    distinct prediction pair, plus O(|Z|) per label pair whose min is taken.
    """
    validate_problem(problem, cls)
    den, loss = problem.scaled_loss
    combined = {}  # (y_minus, y_plus) -> min_z loss[y_minus][z] + loss[y_plus][z]
    searched = set()  # (z_minus, z_plus) pairs already searched
    best, found = 0, None
    for x in range(problem.num_instances):
        column = [row[x] for row in cls.table]
        for h_minus, z_minus in enumerate(column):
            for h_plus, z_plus in enumerate(column):
                if z_plus == z_minus or (z_minus, z_plus) in searched:
                    continue
                searched.add((z_minus, z_plus))
                at_plus = [row[z_plus] for row in loss]
                at_minus = [row[z_minus] for row in loss]
                for y_minus, row_minus in enumerate(loss):
                    minus_at_plus, minus_at_minus = at_plus[y_minus], at_minus[y_minus]
                    for y_plus, plus_at_plus in enumerate(at_plus):
                        # The smaller of the two cross losses minus own losses.
                        eta = min(minus_at_plus - plus_at_plus, at_minus[y_plus] - minus_at_minus)
                        if eta <= best:
                            continue
                        low = combined.get((y_minus, y_plus))
                        if low is None:
                            low = combined[(y_minus, y_plus)] = min(map(add, row_minus, loss[y_plus]))
                        # The two-point test: no prediction beats the endpoint average.
                        if 2 * low >= minus_at_minus + minus_at_plus + at_minus[y_plus] + plus_at_plus:
                            best, found = eta, (x, h_minus, h_plus, y_minus, y_plus)
    return None if found is None else SqrtTWitness(*found, Fraction(best, den))


def rademacher_stream(witness: SqrtTWitness, signs: Sequence[int]) -> tuple:
    """Label stream on the witness instance: +1 plays y_plus, -1 plays y_minus."""
    examples = []
    for s in check_iterable("signs", signs):
        # A bool equals 1 or 0 but is not a sign, as `check_count` refuses one.
        if type(s) is not int or s not in (1, -1):
            raise ValidationError(f"signs must be +1 or -1, got {format_value(s)}")
        examples.append((witness.x, witness.y_plus if s == 1 else witness.y_minus))
    return make_stream(examples)


def expected_abs_sign_sum(rounds: int) -> Fraction:
    """E|sum of T independent uniform signs|, exactly: sum_k C(T,k)|T-2k| / 2^T."""
    check_count("rounds", rounds)
    total = sum(math.comb(rounds, k) * abs(rounds - 2 * k) for k in range(rounds + 1))
    return Fraction(total, 2**rounds)
