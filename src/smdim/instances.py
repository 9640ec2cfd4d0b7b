"""Built-in problem families and the JSON instance/stream file formats.

Built-ins are small named instances used throughout the tests and the CLI:
multiclass and list classification, set-valued prediction, regression on a
rational grid, multilabel prediction under normalized Hamming loss, vector
prediction under taxicab loss, and a three-point subset of a Hilbert ball
under squared-norm loss. Each builder returns a (Problem, HypothesisClass)
pair that fits by construction; each half checked itself when it was built.
A family's preset is its builder called with no arguments, and its integer
parameters are the builder's keywords (`make_builtin`). The builders that
take a size refuse one past `BUILTIN_BUDGET` loss entries before building.

File formats: an instance document carries identifier lists, the loss matrix,
an optional loss bound, and the hypothesis table (prediction index per
instance). A stream document is {"stream": [{"x": i, "y": j, "eps": "p/q"?}]},
read against the problem it is a stream of.
Rationals are written as 'p/q' strings; decimal literals in input are
converted exactly (never through a float). Serialization is canonical: sorted
keys, two-space indent, trailing newline, so byte-identical output for equal
values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import comb

from .core import (
    BudgetError,
    HypothesisClass,
    Problem,
    ThresholdedExample,
    ValidationError,
    format_rational,
    format_value,
    make_problem,
    make_stream,
    parse_rational,
    validate_problem,
)


# Most loss entries (labels x predictions) a parametric built-in may have;
# each builder checks its size before it builds anything.
BUILTIN_BUDGET = 1_000_000


def _over_budget(name: str, entries: str) -> BudgetError:
    return BudgetError(f"builtin {name} has {entries} loss entries, over the budget of {BUILTIN_BUDGET}")


def multiclass_instance(m: int = 2):
    """0-1 loss over Y = Z = {0..m-1}; hypotheses are the m constant maps."""
    if m < 2:
        raise ValidationError("multiclass needs at least two labels")
    if m * m > BUILTIN_BUDGET:
        raise _over_budget(f"multiclass:m={format_rational(m)}", format_rational(m * m))
    ids = tuple(range(m))
    loss = [[Fraction(0) if y == z else Fraction(1) for z in ids] for y in ids]
    cls = HypothesisClass(tuple((z,) for z in ids))
    return make_problem(("x0",), ids, ids, loss, bound_c=1), cls


def list_instance(n: int = 3, k: int = 2):
    """List prediction: Z is the nonempty size-<=k subsets of Y = {0..n-1},
    loss 1{y not in z}.

    Hypotheses are the singleton constants, one per label.
    """
    if not 1 <= k < n:
        raise ValidationError("list instance needs 1 <= k < |Y|")
    # Counted size by size, stopping past the budget: the first count, n
    # singletons, is already past it for any n > 1000.
    for count in accumulate(comb(n, size) for size in range(1, k + 1)):
        if n * count > BUILTIN_BUDGET:
            name = f"list:n={format_rational(n)},k={format_rational(k)}"
            raise _over_budget(name, f"at least {format_rational(n * count)}")
    labels = tuple(range(n))
    preds = tuple(
        subset
        for size in range(1, k + 1)
        for subset in combinations(labels, size)
    )
    loss = [[Fraction(0) if y in z else Fraction(1) for z in preds] for y in labels]
    singleton_index = {(y,): j for j, z in enumerate(preds) if len(z) == 1 for y in z}
    cls = HypothesisClass(tuple((singleton_index[(y,)],) for y in labels))
    return make_problem(("x0",), labels, preds, loss, bound_c=1), cls


def setvalued_instance():
    """Set-valued labels over Z = {a, b}: Y = {{a}, {b}}, loss 1{z not in y}."""
    preds = ("a", "b")
    labels = (("a",), ("b",))
    loss = [[Fraction(0) if z in y else Fraction(1) for z in preds] for y in labels]
    cls = HypothesisClass(((0,), (1,)))
    return make_problem(("x0",), labels, preds, loss, bound_c=1), cls


def regression_instance(grid=("-1", "0", "1"), hypothesis_values=("-1", "1")):
    """Absolute loss on a rational grid Y = Z inside [-1, 1]."""
    values = tuple(parse_rational(g) for g in grid)
    if len(set(values)) != len(values):
        raise ValidationError("grid values must be distinct")
    if any(v < -1 or v > 1 for v in values):
        raise ValidationError("grid values must lie in [-1, 1]")
    loss = [[abs(y - z) for z in values] for y in values]
    index = {v: j for j, v in enumerate(values)}
    hvals = tuple(parse_rational(v) for v in hypothesis_values)
    try:
        cls = HypothesisClass(tuple((index[v],) for v in hvals))
    except KeyError as exc:
        raise ValidationError(f"hypothesis value {format_rational(exc.args[0])} not on the grid") from exc
    return make_problem(("x0",), values, values, loss), cls


def multilabel_instance(k: int = 2, constants=None):
    """Normalized Hamming loss over Y = Z = {0,1}^k; hypotheses are constants,
    by default all zeros and all ones."""
    if k < 1:
        raise ValidationError("multilabel needs k >= 1")
    # 4**k is computed only once k is small enough to be cheap.
    if k > BUILTIN_BUDGET.bit_length() or 4**k > BUILTIN_BUDGET:
        raise _over_budget(f"multilabel:k={format_rational(k)}", f"4^{format_rational(k)}")
    if constants is None:
        constants = ((0,) * k, (1,) * k)
    ids = tuple(product((0, 1), repeat=k))
    loss = [
        [Fraction(sum(1 for a, b in zip(y, z) if a != b), k) for z in ids]
        for y in ids
    ]
    index = {v: j for j, v in enumerate(ids)}
    try:
        cls = HypothesisClass(tuple((index[tuple(cst)],) for cst in constants))
    except KeyError as exc:
        raise ValidationError(f"constant {format_value(exc.args[0])} is not a length-{k} binary tuple") from exc
    return make_problem(("x0",), ids, ids, loss, bound_c=1), cls


def hilbert_instance():
    """Squared-norm loss on {e1, e2, 0} in the plane; hypotheses are the constants."""
    return vector_instance(((1, 0), (0, 1), (0, 0)), p=2)


def vector_instance(points=((0, 0), (1, 0), (0, 1)), p: int = 1):
    """Taxicab (p=1) or squared-norm (p=2) loss on rational plane points.

    Only p in {1, 2} keeps losses rational; anything else is rejected.
    """
    ids = tuple(tuple(parse_rational(c) for c in pt) for pt in points)
    if len(set(ids)) != len(ids):
        raise ValidationError("vector points must be distinct")
    if len({len(pt) for pt in ids}) > 1:
        raise ValidationError("vector points must all have the same length")
    if p == 1:
        loss = [[sum(abs(a - b) for a, b in zip(y, z)) for z in ids] for y in ids]
    elif p == 2:
        loss = [[sum((a - b) ** 2 for a, b in zip(y, z)) for z in ids] for y in ids]
    else:
        raise ValidationError(f"unsupported norm p={format_value(p)}; only p=1 and squared p=2 stay rational")
    cls = HypothesisClass(tuple((j,) for j in range(len(ids))))
    return make_problem(("x0",), ids, ids, loss), cls


# Each family's preset is its builder called with no arguments.
_FAMILIES = {
    "multiclass": ("binary-constants", multiclass_instance),
    "list": ("singleton-constants", list_instance),
    "setvalued": ("pair", setvalued_instance),
    "regression": ("three-point", regression_instance),
    "multilabel": ("pair-constants", multilabel_instance),
    "hilbert": ("orthonormal", hilbert_instance),
    "vector": ("taxicab-triangle", vector_instance),
}


def builtin_names() -> tuple:
    return tuple(f"{family}:{preset}" for family, (preset, _) in _FAMILIES.items())


def make_builtin(spec: str):
    """Resolve 'family', 'family:preset', or 'family:key=int,...' to an instance.

    The first two call the family's builder with no arguments, the last with
    the parameters as keywords.
    """
    spec = spec.strip()
    family, colon, params = (part.strip() for part in spec.partition(":"))
    preset, builder = _FAMILIES.get(family, (None, None))
    if builder is None or (colon and params != preset and "=" not in params):
        raise ValidationError(f"unknown builtin {spec!r}; known: {', '.join(builtin_names())}")
    kwargs = {}
    for part in params.split(",") if "=" in params else ():
        key, _, raw = part.partition("=")
        if not key or not raw:
            raise ValidationError(f"malformed builtin parameter {part!r} in {spec!r}")
        key = key.strip()
        if key in kwargs:
            raise ValidationError(f"builtin parameter {key!r} repeated in {spec!r}")
        try:
            kwargs[key] = int(raw)
        except ValueError as exc:
            raise ValidationError(f"builtin parameter {part!r} is not an integer") from exc
    try:
        return builder(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for builtin family {family!r}: {exc}") from exc


# --- file formats ----------------------------------------------------------


def _loads(text: str):
    # parse_float receives the raw literal text, so decimals convert exactly.
    # Nesting deeper than the interpreter's recursion limit is a RecursionError;
    # a number longer than sys.get_int_max_str_digits() is a plain ValueError,
    # of which JSONDecodeError is a subclass.
    try:
        return json.loads(text, parse_float=Fraction)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc


def _decode_id(value, path: str):
    # JSON values come as exact types (Fractions from parse_float), tested by
    # `type`: `isinstance(value, Fraction)` would run the ABC machinery.
    kind = type(value)
    if kind is str:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            return value
    if kind is int or kind is Fraction:
        return value
    if kind is list:
        return tuple(_decode_id(v, f"{path}/{i}") for i, v in enumerate(value))
    if kind is bool:
        raise ValidationError(f"{path}: boolean is not a valid identifier")
    raise ValidationError(f"{path}: {format_value(value)} is not a valid identifier")


def _decode_ids(doc, key: str) -> list:
    # Decoding recurses once per nesting level, so identifiers that json.loads
    # still accepts can be nested too deeply for it.
    try:
        return [_decode_id(v, f"/{key}/{i}") for i, v in enumerate(_expect_list(doc, key, ""))]
    except RecursionError as exc:
        raise ValidationError(f"/{key}: identifiers nested too deeply") from exc


def encode_identifier(value):
    """JSON-ready form of an identifier: Fractions as "p/q" strings, tuples as lists."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [encode_identifier(v) for v in value]
    return value


def _decode_rational(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _expect_list(doc, key: str, path: str):
    if key not in doc:
        raise ValidationError(f"{path}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path}/{key}: expected a nonempty array")
    return value


def parse_instance_document(text: str):
    """Parse and validate an instance JSON document into (Problem, HypothesisClass).

    The document's shape, identifiers and loss literals are checked here, with
    their JSON paths. The hypothesis table's entries are checked by the rules
    every caller goes through: `HypothesisClass` (ints of at least 0, no
    duplicate rows), then, once the problem is built, `validate_problem`
    (each index below the number of predictions). Their errors are prefixed
    with `/hypotheses: `.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ValidationError("/: instance document must be a JSON object")
    instances = _decode_ids(doc, "instances")
    labels = _decode_ids(doc, "labels")
    predictions = _decode_ids(doc, "predictions")
    loss_rows = _expect_list(doc, "loss", "")
    if len(loss_rows) != len(labels):
        raise ValidationError(f"/loss: {len(loss_rows)} rows for {len(labels)} labels")
    loss = []
    # Loss string -> its Fraction, stored once it parsed: a repeated literal
    # is parsed once, and a bad one fails where it first occurs.
    literals = {}
    for i, row in enumerate(loss_rows):
        if not isinstance(row, list) or len(row) != len(predictions):
            raise ValidationError(f"/loss/{i}: expected an array of {len(predictions)} entries")
        entries = []
        for j, v in enumerate(row):
            # Strings only: other JSON values may be unhashable, and true
            # would find 1's entry.
            if type(v) is not str:
                q = _decode_rational(v, f"/loss/{i}/{j}")
            elif (q := literals.get(v)) is None:
                q = literals[v] = _decode_rational(v, f"/loss/{i}/{j}")
            entries.append(q)
        loss.append(entries)
    bound = None
    if "bound_c" in doc:
        bound = _decode_rational(doc["bound_c"], "/bound_c")
    table = _expect_list(doc, "hypotheses", "")
    for h, row in enumerate(table):
        if not isinstance(row, list) or len(row) != len(instances):
            raise ValidationError(f"/hypotheses/{h}: expected an array of {len(instances)} entries")
    try:
        cls = HypothesisClass(tuple(map(tuple, table)))
    except ValidationError as exc:
        raise ValidationError(f"/hypotheses: {exc}") from exc
    problem = make_problem(instances, labels, predictions, loss, bound_c=bound)
    try:
        return validate_problem(problem, cls)
    except ValidationError as exc:
        raise ValidationError(f"/hypotheses: {exc}") from exc


def serialize_instance(problem: Problem, cls: HypothesisClass) -> str:
    doc = {
        "instances": [encode_identifier(v) for v in problem.instances],
        "labels": [encode_identifier(v) for v in problem.labels],
        "predictions": [encode_identifier(v) for v in problem.predictions],
        "loss": [[format_rational(v) for v in row] for row in problem.loss],
        "bound_c": format_rational(problem.declared_bound),
        "hypotheses": [list(row) for row in cls.table],
    }
    return canonical_json(doc)


def parse_stream_document(text: str, problem: Problem):
    """Parse a stream JSON document into a stream of `problem`.

    Each entry's shape (an object with `x` and `y`) and threshold literal are
    checked with their JSON paths. The stream is then made and checked
    against the problem by `make_stream`, in round order: a round's bad
    instance or label index, its threshold outside [0, c], or a mixed stream.
    Its errors are prefixed with `/stream: `.
    """
    doc = _loads(text)
    if not isinstance(doc, dict) or "stream" not in doc:
        raise ValidationError("/: stream document must be an object with a 'stream' key")
    raw = doc["stream"]
    if not isinstance(raw, list):
        raise ValidationError("/stream: expected an array")
    items = []
    for t, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"/stream/{t}: expected an object")
        for key in ("x", "y"):
            if key not in entry:
                raise ValidationError(f"/stream/{t}: missing key {key!r}")
        eps = None
        if "eps" in entry and entry["eps"] is not None:
            eps = _decode_rational(entry["eps"], f"/stream/{t}/eps")
        items.append(ThresholdedExample(entry["x"], entry["y"], eps))
    try:
        return make_stream(items, problem)
    except ValidationError as exc:
        raise ValidationError(f"/stream: {exc}") from exc


def serialize_stream(stream) -> str:
    """Canonical stream document of any stream `make_stream` accepts:
    ThresholdedExamples, and (x, y) or (x, y, eps) tuples or lists."""
    doc = {
        "stream": [
            {"x": ex.x, "y": ex.y}
            | ({} if ex.eps is None else {"eps": format_rational(ex.eps)})
            for ex in make_stream(stream)
        ]
    }
    return canonical_json(doc)


def canonical_json(doc) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline.

    It is `json.dumps` with those arguments, so json's rules hold for every
    value. It writes every document but the certificate, whose fixed shape
    `ShatteringCertificate.to_json` writes itself, byte for byte the same,
    handing this function only the leaves it does not write itself.
    """
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
