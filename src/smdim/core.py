"""Domain types and elementary operations shared by every other module.

Every quantity that enters a comparison somewhere (loss entries, mixture
weights, thresholds, game values) is an exact `fractions.Fraction`. The
dimension recursions test game values against thresholds with
equality-sensitive comparisons, so a single float anywhere in the pipeline
would make reported dimensions depend on rounding. All types here are
immutable after construction and safe to share between workers; the
operations are pure functions of their arguments.

Sums of many exact terms are taken in integers, which is just as exact: a
problem's loss rows and a mixture's weights are each also kept as integers
over one common denominator (`scaled_loss`, `Mixture.scaled`), so an
expected loss sums integer products and builds one `Fraction` at the end,
not one per term.

Conventions: instances, labels, and predictions are addressed by index into
the corresponding tuple of a `Problem`. The identifier objects themselves are
opaque except where a computation needs structure (numeric labels for the
fat-shattering dimension, for example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]


class ValidationError(ValueError):
    """An input violates a structural invariant."""


class RealizabilityError(RuntimeError):
    """Feedback emptied the version space of a realizable-mode learner."""


class BudgetError(RuntimeError):
    """A configured work budget (memo table, expert pool) was exceeded."""


class ProtocolError(RuntimeError):
    """A learner/adversary game-protocol violation (wrong phase, exhausted depth)."""


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' / decimal string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"refusing float {value!r}: pass a 'p/q' or decimal string to stay exact"
        )
    raise ValidationError(f"cannot interpret {value!r} as a rational")


def format_rational(q: Fraction) -> str:
    """Canonical text form: 'p/q' in lowest terms, or just 'p' for integers.

    Exact at any size: past `sys.get_int_max_str_digits()` digits, where
    `str` of an int raises, `Decimal` writes the digits instead.
    """
    try:
        return str(q)
    except ValueError:
        text = str(Decimal(q.numerator))
        return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


@dataclass(frozen=True)
class Problem:
    """A finite online decision problem, checked when it is built.

    `loss[y][z]` is the loss of prediction index `z` against label index `y`:
    a nonnegative `Fraction` no larger than `declared_bound`. Instances,
    labels and predictions are nonempty. `bound_c` is not a constructor
    argument: it is the largest loss entry, the bound c every regret
    guarantee uses; `declared_bound` is the bound the input stated, kept for
    reporting and serialization.
    """

    instances: tuple
    labels: tuple
    predictions: tuple
    loss: tuple
    declared_bound: Fraction
    bound_c: Fraction = field(init=False)

    def __post_init__(self):
        for name in ("instances", "labels", "predictions"):
            if not getattr(self, name):
                raise ValidationError(f"problem has no {name}")
        if len(self.loss) != len(self.labels):
            raise ValidationError(
                f"dimension mismatch: {len(self.loss)} loss rows for {len(self.labels)} labels"
            )
        for y, row in enumerate(self.loss):
            if len(row) != len(self.predictions):
                raise ValidationError(
                    f"dimension mismatch: loss row {y} has {len(row)} entries "
                    f"for {len(self.predictions)} predictions"
                )
            for z, v in enumerate(row):
                if not isinstance(v, Fraction):
                    raise ValidationError(f"loss[{y}][{z}] = {v!r} is not a Fraction")
                if v < 0:
                    raise ValidationError(f"negative loss at [{y}][{z}]: {v}")
                if v > self.declared_bound:
                    raise ValidationError(
                        f"loss {v} at [{y}][{z}] exceeds declared bound {self.declared_bound}"
                    )
        entries = [v for row in self.loss for v in row]
        object.__setattr__(self, "bound_c", max(entries, default=Fraction(0)))

    @cached_property
    def scaled_loss(self) -> tuple:
        """`scaled_loss(self.loss)`, built on first read and kept.

        Built lazily, since most problems parsed are never played on. The
        cache is not a field: equality, hash and repr ignore it, and
        pickles leave it out.
        """
        return scaled_loss(self.loss)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("scaled_loss", None)
        return state

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def num_predictions(self) -> int:
        return len(self.predictions)


@dataclass(frozen=True)
class HypothesisClass:
    """A finite set of hypotheses, tabulated as prediction indices per instance.

    `table[h][x]` is the prediction index hypothesis `h` makes on instance
    index `x`. Duplicate rows are rejected: two hypotheses that agree
    everywhere would be indistinguishable to every computation downstream.
    """

    table: tuple

    def __post_init__(self):
        if not self.table:
            raise ValidationError("hypothesis class is empty")
        width = len(self.table[0])
        seen = {}
        for h, row in enumerate(self.table):
            if len(row) != width:
                raise ValidationError(f"hypothesis {h} has {len(row)} entries, expected {width}")
            if row in seen:
                raise ValidationError(f"duplicate hypothesis rows {seen[row]} and {h}")
            seen[row] = h

    @property
    def num_hypotheses(self) -> int:
        return len(self.table)

    def predict(self, h: int, x: int) -> int:
        return self.table[h][x]


@dataclass(frozen=True)
class VersionSpace:
    """An immutable subset of hypothesis indices, kept sorted for canonical keys."""

    members: tuple

    def __post_init__(self):
        prev = None
        for m in self.members:
            if not isinstance(m, int):
                raise ValidationError(f"hypothesis index {m!r} is not an int")
            if prev is not None and m <= prev:
                raise ValidationError("version space members must be strictly increasing")
            prev = m
        # Members ascend, so the first is the smallest.
        if self.members and self.members[0] < 0:
            raise ValidationError(f"negative hypothesis index {self.members[0]}")

    @classmethod
    def of(cls, members: Iterable[int]) -> "VersionSpace":
        return cls(tuple(sorted(set(members))))

    @classmethod
    def full(cls, num_hypotheses: int) -> "VersionSpace":
        return cls(tuple(range(num_hypotheses)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, h: int) -> bool:
        return h in self.members


@dataclass(frozen=True)
class Mixture:
    """A probability mixture over prediction indices: exact weights summing to 1.

    `den` is the lcm of the weights' denominators and `scaled` each weight
    times it, as ints, so the scaled weights sum to `den`. Both are worked out
    from `weights` and are not compared, hashed or shown.
    """

    weights: tuple
    den: int = field(init=False, repr=False, compare=False)
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weights:
            raise ValidationError("mixture over an empty prediction space")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise ValidationError(f"mixture weight {w!r} is not a Fraction")
            if w.numerator < 0:
                raise ValidationError(f"negative mixture weight {w}")
        den, (scaled,) = scaled_loss((self.weights,))
        total = sum(scaled)
        if total != den:
            raise ValidationError(f"mixture weights sum to {Fraction(total, den)}, expected 1")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scaled", scaled)

    @classmethod
    def of(cls, weights: Iterable[RationalLike]) -> "Mixture":
        return cls(tuple(parse_rational(w) for w in weights))

    @classmethod
    def dirac(cls, size: int, index: int) -> "Mixture":
        if not 0 <= index < size:
            raise ValidationError(f"dirac index {index} out of range for size {size}")
        return cls(tuple(Fraction(1) if j == index else Fraction(0) for j in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "Mixture":
        if size <= 0:
            raise ValidationError("uniform mixture needs a positive size")
        return cls(tuple(Fraction(1, size) for _ in range(size)))

    def __len__(self) -> int:
        return len(self.weights)

    def support(self) -> tuple:
        return tuple(j for j, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class Candidate:
    """A thresholded label (y, eps): 'loss against y is at most eps'."""

    label: int
    threshold: Fraction

    def __post_init__(self):
        if not isinstance(self.threshold, Fraction):
            raise ValidationError(f"candidate threshold {self.threshold!r} is not a Fraction")
        if self.threshold < 0:
            raise ValidationError(f"negative candidate threshold {self.threshold}")


@dataclass(frozen=True)
class ThresholdedExample:
    """One observed round: instance index, label index, optional loss threshold."""

    x: int
    y: int
    eps: Optional[Fraction] = None


def make_stream(items: Iterable) -> tuple:
    """Build a stream from (x, y) or (x, y, eps) tuples / ThresholdedExamples.

    Thresholds must be present on every element or on none; a mixed stream has
    no consistent interpretation (realizable vs. agnostic protocol).
    """
    out = []
    for item in items:
        if isinstance(item, ThresholdedExample):
            out.append(item)
        else:
            parts = tuple(item)
            if len(parts) == 2:
                out.append(ThresholdedExample(parts[0], parts[1]))
            elif len(parts) == 3:
                eps = None if parts[2] is None else parse_rational(parts[2])
                out.append(ThresholdedExample(parts[0], parts[1], eps))
            else:
                raise ValidationError(f"stream element {item!r} is not (x, y) or (x, y, eps)")
    with_eps = sum(1 for e in out if e.eps is not None)
    if with_eps not in (0, len(out)):
        raise ValidationError("thresholds must be present on every stream element or on none")
    return tuple(out)


def validate_stream(problem: Problem, stream: Sequence[ThresholdedExample]) -> tuple:
    """Check stream indices and thresholds against a problem; returns the stream."""
    for t, ex in enumerate(stream, 1):
        check_instance(problem, t, ex.x)
        check_feedback(problem, t, ex.y, ex.eps)
    return tuple(stream)


def check_instance(problem: Problem, t: int, x: int):
    """Check round t's instance index against a problem: an int in range."""
    if type(x) is not int or not 0 <= x < problem.num_instances:
        raise ValidationError(_index_error(t, "instance", x))


def check_feedback(problem: Problem, t: int, y: int, eps: Optional[Fraction]):
    """Check round t's label index, an int in range, and optional threshold,
    a Fraction in [0, c], against a problem."""
    if type(y) is not int or not 0 <= y < problem.num_labels:
        raise ValidationError(_index_error(t, "label", y))
    if eps is not None and not isinstance(eps, Fraction):
        raise ValidationError(f"round {t}: threshold {eps!r} is not a Fraction")
    # A Fraction's sign is its numerator's, which skips one Fraction comparison.
    if eps is not None and (eps.numerator < 0 or eps > problem.bound_c):
        raise ValidationError(f"round {t}: threshold {eps} outside [0, {problem.bound_c}]")


def _index_error(t: int, name: str, index) -> str:
    """Why round t's index is refused. Its type must be int itself: a bool is
    an int in Python, and is refused as in a JSON document
    (`instances._decode_index`)."""
    reason = "out of range" if type(index) is int else "is not an int"
    return f"round {t}: {name} index {index!r} {reason}"


def make_problem(instances, labels, predictions, loss, bound_c=None) -> Problem:
    """Assemble a Problem from raw entries, parsing rationals.

    `bound_c` is the declared bound; without one, it is the largest entry.
    The Problem checks itself, so a bad loss raises ValidationError here.
    """
    rows = tuple(tuple(parse_rational(v) for v in row) for row in loss)
    declared = max((v for row in rows for v in row), default=Fraction(0))
    if bound_c is not None:
        declared = parse_rational(bound_c)
    return Problem(
        tuple(instances), tuple(labels), tuple(predictions), rows, declared_bound=declared
    )


def validate_problem(problem: Problem, cls: HypothesisClass):
    """Check that a hypothesis table fits a problem; returns the pair as given.

    The problem and the class each checked themselves when they were built;
    what is left is that every hypothesis covers every instance with an
    in-range prediction index.
    """
    num_instances, num_predictions = problem.num_instances, problem.num_predictions
    for h, row in enumerate(cls.table):
        if len(row) != num_instances:
            raise ValidationError(
                f"hypothesis {h} covers {len(row)} instances, problem has {num_instances}"
            )
        for x, z in enumerate(row):
            if not 0 <= z < num_predictions:
                raise ValidationError(f"hypothesis {h} predicts out-of-range index {z} at x={x}")
    return problem, cls


def scaled_loss(loss) -> tuple:
    """(den, rows): den is the lcm of every loss entry's denominator, and
    rows[y][z] is loss[y][z] * den, an int.

    The one rule that puts Fractions over a common denominator: mixtures and
    sums of losses use it as a table of one row.
    """
    den = math.lcm(*(v.denominator for row in loss for v in row))
    return den, tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in loss)


def expected_loss(problem: Problem, mixture: Mixture, y: int) -> Fraction:
    """Exact expected loss of a mixture against label index y.

    Summed in integers over the mixture's and the loss table's common
    denominators. Raises ValidationError when y is not a label index or the
    mixture is not as wide as the problem has predictions.
    """
    if not 0 <= y < problem.num_labels:
        raise ValidationError(f"label index {y} out of range")
    den, rows = problem.scaled_loss
    row = rows[y]
    if len(mixture.scaled) != len(row):
        raise ValidationError(f"{len(mixture.scaled)} mixture weights for {len(row)} values")
    return Fraction(sum(map(mul, mixture.scaled, row)), mixture.den * den)
