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
not one per term. A mixture worked out in integers (an aggregate of expert
mixtures, a game's optimal mixture) is made from them by
`Mixture.from_scaled`, which checks them as integers and builds its weight
Fractions only when they are read.

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
from typing import Iterable, Optional, Union

RationalLike = Union[Fraction, int, str]


class ValidationError(ValueError):
    """An input violates a structural invariant."""


class RealizabilityError(RuntimeError):
    """Feedback emptied the version space of a realizable-mode learner."""


class BudgetError(RuntimeError):
    """A configured work budget (memo table, threshold grid) was exceeded."""


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
    raise ValidationError(f"cannot interpret {format_value(value)} as a rational")


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


def format_value(value) -> str:
    """`repr(value)`, for an error message about a value of any type.

    The repr of an int past `sys.get_int_max_str_digits()` digits raises
    ValueError, and so does that of a Fraction or a container holding one
    (a JSON number such as 1e5000 reads as such a Fraction); such a value is
    named by its type instead.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class Problem:
    """A finite online decision problem, checked when it is built.

    `loss[y][z]` is the loss of prediction index `z` against label index `y`:
    a nonnegative `Fraction` no larger than `declared_bound`, a `Fraction`
    too; signs and bounds are read in integers (`exceeds`). Instances,
    labels and predictions are nonempty. `bound_c` is not a constructor
    argument: it is the largest loss entry, found by the pass that checks
    the entries, the bound c every regret guarantee uses; `declared_bound`
    is the bound the input stated, kept for reporting and serialization.
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
        bound = self.declared_bound
        if not isinstance(bound, Fraction):
            raise ValidationError(f"declared bound {format_value(bound)} is not a Fraction")
        # The largest entry so far, as `largest` finds it, and never above the
        # bound, so an entry no larger than it is within the bound too. A
        # negative bound starts it, so the first entry is checked against it.
        top = bound if bound.numerator < 0 else Fraction(0)
        for y, row in enumerate(self.loss):
            if len(row) != len(self.predictions):
                raise ValidationError(
                    f"dimension mismatch: loss row {y} has {len(row)} entries "
                    f"for {len(self.predictions)} predictions"
                )
            for z, v in enumerate(row):
                if not isinstance(v, Fraction):
                    raise ValidationError(f"loss[{y}][{z}] = {format_value(v)} is not a Fraction")
                if v.numerator < 0:
                    raise ValidationError(f"negative loss at [{y}][{z}]: {format_rational(v)}")
                if exceeds(v, top):
                    if exceeds(v, bound):
                        v, bound = format_rational(v), format_rational(bound)
                        raise ValidationError(f"loss {v} at [{y}][{z}] exceeds declared bound {bound}")
                    top = v
        object.__setattr__(self, "bound_c", top)

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
    index `x`: an int of at least 0, its type int itself as for `check_index`.
    Duplicate rows are rejected: two hypotheses that agree everywhere would be
    indistinguishable to every computation downstream. The one walk that
    checks the table also records `_width`, the number of instances every row
    covers, and `_top`, the largest prediction index, so `validate_problem`
    fits the class to a problem without reading the table. Both are worked
    out from `table` and are not compared, hashed or shown.
    """

    table: tuple
    _width: int = field(init=False, repr=False, compare=False)
    _top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.table:
            raise ValidationError("hypothesis class is empty")
        width = len(self.table[0])
        seen = {}
        for h, row in enumerate(self.table):
            if len(row) != width:
                raise ValidationError(f"hypothesis {h} has {len(row)} entries, expected {width}")
            # Entries first: (True,) and (1.0,) equal (1,), and would be named duplicates.
            for x, z in enumerate(row):
                if type(z) is not int or z < 0:
                    reason = "out-of-range" if type(z) is int else "non-int"
                    raise ValidationError(f"hypothesis {h} predicts {reason} index {format_value(z)} at x={x}")
            if row in seen:
                raise ValidationError(f"duplicate hypothesis rows {seen[row]} and {h}")
            seen[row] = h
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_top", max(map(max, self.table)) if width else -1)

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
            if type(m) is not int:
                raise ValidationError(f"hypothesis index {format_value(m)} is not an int")
            if prev is not None and m <= prev:
                raise ValidationError("version space members must be strictly increasing")
            prev = m
        # Members ascend, so the first is the smallest.
        if self.members and self.members[0] < 0:
            raise ValidationError(f"negative hypothesis index {format_rational(self.members[0])}")

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
    from `weights` and are not compared, hashed or shown. `weights` is kept
    as a tuple, whatever sequence it was given as, so a mixture equals and
    hashes as its twin and cannot change after it is checked.

    Every mixture is checked and stored by one integer rule, `_settle`:
    `Mixture(weights)` puts its Fraction weights over their lcm
    (`scaled_loss`) and hands it the integers, and `from_scaled(numerators,
    den)` hands them over as given. A mixture made from integers builds its
    `weights` Fractions on their first read and keeps them; its length,
    support and expected losses read `scaled` alone.
    """

    weights: tuple
    den: int = field(init=False, repr=False, compare=False)
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(self.weights or ())
        for w in weights:
            if not isinstance(w, Fraction):
                raise ValidationError(f"mixture weight {format_value(w)} is not a Fraction")
        object.__setattr__(self, "weights", weights)
        den, (scaled,) = scaled_loss((weights,))
        self._settle(scaled, den)

    @classmethod
    def from_scaled(cls, numerators, den: int) -> "Mixture":
        """The mixture with weights numerators[j] / den, checked in integers:
        each numerator an int (its type int itself) of at least 0, and their
        sum den, an int of at least 1. No Fraction is built until `weights`
        is read."""
        return object.__new__(cls)._settle(numerators, den)

    def _settle(self, numerators, den: int) -> "Mixture":
        """Check integer weights over den, with `Mixture(weights)`'s
        messages, store them as `scaled` over `den`, reduced by their gcd, and
        return the mixture."""
        if not numerators:
            raise ValidationError("mixture over an empty prediction space")
        check_count("mixture denominator", den, low=1)
        for s in numerators:
            if type(s) is not int:
                raise ValidationError(f"mixture weight {format_value(s)} is not a Fraction")
            if s < 0:
                raise ValidationError(f"negative mixture weight {format_rational(Fraction(s, den))}")
        if sum(numerators) != den:
            total = format_rational(Fraction(sum(numerators), den))
            raise ValidationError(f"mixture weights sum to {total}, expected 1")
        # The numerators sum to den, so their gcd divides it.
        g = math.gcd(*numerators)
        vars(self).update(den=den // g, scaled=tuple(s // g for s in numerators))
        return self

    def __getattr__(self, name):
        # Python calls this only for a name missing from the instance dict:
        # among the fields, only the unread weights of a mixture made from
        # integers.
        if name != "weights" or "scaled" not in vars(self):
            raise AttributeError(f"'Mixture' object has no attribute {name!r}")
        weights = vars(self)["weights"] = tuple(Fraction(s, self.den) for s in self.scaled)
        return weights

    @classmethod
    def of(cls, weights: Iterable[RationalLike]) -> "Mixture":
        return cls(tuple(parse_rational(w) for w in weights))

    @classmethod
    def dirac(cls, size: int, index: int) -> "Mixture":
        check_count("dirac mixture size", size, low=1)
        check_index("prediction", index, size)
        return cls.from_scaled(tuple(int(j == index) for j in range(size)), 1)

    @classmethod
    def uniform(cls, size: int) -> "Mixture":
        check_count("uniform mixture size", size, low=1)
        return cls.from_scaled((1,) * size, size)

    def __len__(self) -> int:
        return len(self.scaled)

    def support(self) -> tuple:
        return tuple(j for j, s in enumerate(self.scaled) if s)


@dataclass(frozen=True)
class Candidate:
    """A thresholded label (y, eps): 'loss against y is at most eps'."""

    label: int
    threshold: Fraction

    def __post_init__(self):
        if not isinstance(self.threshold, Fraction):
            raise ValidationError(f"candidate threshold {format_value(self.threshold)} is not a Fraction")
        if self.threshold.numerator < 0:
            raise ValidationError(f"negative candidate threshold {format_rational(self.threshold)}")


@dataclass(frozen=True)
class ThresholdedExample:
    """One observed round: instance index, label index, optional loss threshold."""

    x: int
    y: int
    eps: Optional[Fraction] = None


def make_stream(items: Iterable, problem: Optional[Problem] = None) -> tuple:
    """Build a stream from (x, y) or (x, y, eps) tuples or lists and
    ThresholdedExamples, checking each element as it is built: the one rule
    that makes and checks a stream.

    A malformed element, or a threshold that is not a rational, raises
    ValidationError with its 1-based round. Given a problem, each element's
    instance, label and threshold are checked against it too
    (`check_instance`, `check_feedback`). Thresholds must be present on
    every element or on none; a mixed stream has no consistent
    interpretation (realizable vs. agnostic protocol), and its error names the
    round of the first element whose kind differs from the first element's.
    Errors come in round order; within a round, the problem's checks come
    before the mixed-stream rule. Items that are not iterable raise
    ValidationError too.
    """
    try:
        items = iter(items)
    except TypeError:
        raise ValidationError(f"a stream must be iterable, got {format_value(items)}") from None
    out = []
    for t, item in enumerate(items, 1):
        if isinstance(item, ThresholdedExample):
            x, y, eps = item.x, item.y, item.eps
        elif isinstance(item, (tuple, list)) and len(item) in (2, 3):
            x, y, eps = item[0], item[1], item[2] if len(item) == 3 else None
            if eps is not None:
                try:
                    eps = parse_rational(eps)
                except ValidationError as exc:
                    raise ValidationError(f"round {t}: {exc}") from exc
            item = make_record(ThresholdedExample, x=x, y=y, eps=eps)
        else:
            raise ValidationError(f"round {t}: stream element {format_value(item)} is not (x, y) or (x, y, eps)")
        if problem is not None:
            check_instance(problem, t, x)
            check_feedback(problem, t, y, eps)
        if out and (eps is None) != (out[0].eps is None):
            raise ValidationError(f"round {t}: thresholds must be present on every stream element or on none")
        out.append(item)
    return tuple(out)


def check_index(name: str, index, size: int, t: Optional[int] = None):
    """Check an index of a problem's instances, labels or predictions: an int
    in [0, size). Its type must be int itself: a bool is an int in Python,
    and JSON true reads as one, so it is refused. The error names round t
    when one is given."""
    if type(index) is not int or not 0 <= index < size:
        reason = "out of range" if type(index) is int else "is not an int"
        where = "" if t is None else f"round {t}: "
        raise ValidationError(f"{where}{name} index {format_value(index)} {reason}")


def check_instance(problem: Problem, t: int, x: int):
    """Check round t's instance index against a problem: an int in range."""
    check_index("instance", x, problem.num_instances, t)


def check_feedback(problem: Problem, t: int, y: int, eps: Optional[Fraction]):
    """Check round t's label index, an int in range, and optional threshold
    (`check_threshold`) against a problem."""
    check_index("label", y, problem.num_labels, t)
    if eps is not None:
        check_threshold(eps, problem.bound_c, t)


def check_threshold(eps, bound: Fraction, t: Optional[int] = None):
    """Check a loss threshold: a Fraction in [0, bound], the problem's c.

    Read in integers: the sign is the numerator's, and the upper bound is a
    cross-multiplied comparison (`exceeds`). The error names round t when one
    is given.
    """
    where = "" if t is None else f"round {t}: "
    if not isinstance(eps, Fraction):
        raise ValidationError(f"{where}threshold {format_value(eps)} is not a Fraction")
    if eps.numerator < 0 or exceeds(eps, bound):
        raise ValidationError(f"{where}threshold {format_rational(eps)} outside [0, {format_rational(bound)}]")


def check_count(name: str, value, low: int = 0):
    """Check a count (rounds, a horizon, a dimension): an int of at least
    `low`. Its type must be int itself, as for `check_index`: a bool is an int
    in Python, and is refused."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {format_value(value)}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {format_rational(value)}")


def exceeds(a: Fraction, b: Fraction) -> bool:
    """Whether a > b, as the cross-multiplied ints a.num * b.den > b.num * a.den
    (denominators are positive), without `Fraction`'s comparison."""
    return a.numerator * b.denominator > b.numerator * a.denominator


def largest(values: Iterable[Fraction]) -> Fraction:
    """The largest of some nonnegative Fractions, compared by `exceeds`; 0
    when there are none."""
    top = Fraction(0)
    for v in values:
        if exceeds(v, top):
            top = v
    return top


def make_record(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, made by
    writing its `__dict__` once.

    The generated `__init__` of a frozen dataclass sets each field through
    `object.__setattr__`; this writes the dict once instead, so `cls` must
    have no `__post_init__`, and the caller gives every field (`GameSolution`
    gives all but the mixture it builds on first read, and its private
    numerators). Equality, hash and repr read the fields, so the instance
    equals its constructor-built twin.
    """
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record


def make_problem(instances, labels, predictions, loss, bound_c=None) -> Problem:
    """Assemble a Problem from raw entries, parsing rationals.

    `bound_c` is the declared bound; without one, it is the largest entry
    (`largest`: 0 above a negative one, which the Problem refuses anyway).
    The Problem checks itself, so a bad loss raises ValidationError here.
    """
    rows = tuple(tuple(parse_rational(v) for v in row) for row in loss)
    if bound_c is None:
        declared = largest(v for row in rows for v in row)
    else:
        declared = parse_rational(bound_c)
    return Problem(
        tuple(instances), tuple(labels), tuple(predictions), rows, declared_bound=declared
    )


def validate_problem(problem: Problem, cls: HypothesisClass):
    """Check that a hypothesis table fits a problem; returns the pair as given.

    The problem and the class each checked themselves when they were built,
    and the class kept the number of instances its rows cover and its
    largest prediction index. The pair fits when the first is the problem's
    number of instances and the second is below its number of predictions:
    two comparisons, which read no table entry. Only a misfit reads the
    table, to name the first hypothesis at fault.
    """
    num_instances, num_predictions = problem.num_instances, problem.num_predictions
    if cls._width != num_instances:
        # Every row is as wide as the first.
        raise ValidationError(
            f"hypothesis 0 covers {cls._width} instances, problem has {num_instances}"
        )
    if cls._top >= num_predictions:
        for h, row in enumerate(cls.table):
            for x, z in enumerate(row):
                if z >= num_predictions:
                    raise ValidationError(
                        f"hypothesis {h} predicts out-of-range index {format_rational(z)} at x={x}"
                    )
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
    """Exact expected loss of a mixture against label index y: the integer
    `scaled_expected_loss` over the mixture's and the loss table's
    denominators."""
    return Fraction(scaled_expected_loss(problem, mixture, y), mixture.den * problem.scaled_loss[0])


def scaled_expected_loss(problem: Problem, mixture: Mixture, y: int) -> int:
    """The expected loss of a mixture against label index y times
    `mixture.den` and the loss table's denominator: a sum of integer products.

    Raises ValidationError when the mixture is not a `Mixture`, y is not a
    label index (`check_index`) or the mixture is not as wide as the problem
    has predictions.
    """
    if not isinstance(mixture, Mixture):
        raise ValidationError(f"prediction {format_value(mixture)} is not a Mixture")
    check_index("label", y, problem.num_labels)
    row = problem.scaled_loss[1][y]
    if len(mixture.scaled) != len(row):
        raise ValidationError(f"{len(mixture.scaled)} mixture weights for {len(row)} values")
    return sum(map(mul, mixture.scaled, row))
