"""Built-in families and the JSON instance/stream formats."""

import json
import random
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from smdim.core import (
    BudgetError,
    Candidate,
    HypothesisClass,
    ThresholdedExample,
    ValidationError,
    VersionSpace,
    format_rational,
    make_problem,
    make_stream,
    validate_problem,
)
from smdim import instances
from smdim.dimensions import (
    CertificateNode,
    DimensionEngine,
    GammaValue,
    ShatteringCertificate,
    ldim_k,
    smdim,
)
from smdim.instances import (
    builtin_names,
    canonical_json,
    encode_identifier,
    hilbert_instance,
    list_instance,
    make_builtin,
    multiclass_instance,
    multilabel_instance,
    parse_instance_document,
    parse_stream_document,
    regression_instance,
    serialize_instance,
    serialize_stream,
    setvalued_instance,
    vector_instance,
)
from smdim.verify import gen_list, gen_multiclass, gen_regression, gen_setvalued

from test_dimensions import GRID_GAMMAS, dim_cold_grids

F = Fraction

# JSON entries that are no index of P1_DOC's problem: not an int (1e5000
# reads as a Fraction too large to print), or out of range.
REFUSED_INDEX_LITERALS = ["true", '"0"', "0.5", "null", "[0]", "-1", "7", "1e5000"]

# Each family's preset as the explicit builder call it stands for.
PRESET_CALLS = {
    "multiclass": lambda: multiclass_instance(2),
    "list": lambda: list_instance(3, 2),
    "setvalued": setvalued_instance,
    "regression": lambda: regression_instance(("-1", "0", "1"), ("-1", "1")),
    "multilabel": lambda: multilabel_instance(2, ((0, 0), (1, 1))),
    "hilbert": lambda: vector_instance(((1, 0), (0, 1), (0, 0)), p=2),
    "vector": lambda: vector_instance(((0, 0), (1, 0), (0, 1)), p=1),
}

# Built-in specs past the loss-entry budget; the huge ones would take far
# longer than a test to enumerate, so they pass only if refused up front.
OVER_BUDGET_SPECS = [
    "multiclass:m=1001",
    "multiclass:m=99999999999999999999",
    "multilabel:k=10",
    "multilabel:k=40",
    "multilabel:k=99999999999999999999",
    "list:n=1001,k=1",
    "list:n=40,k=20",
    "list:n=99999999999999999999,k=99999999999999999998",
]

P1_DOC = """
{
  "instances": ["x0"],
  "labels": [0, 1],
  "predictions": [0, 1],
  "loss": [["0", "1"], ["1", "0"]],
  "bound_c": "1",
  "hypotheses": [[0], [1]]
}
"""


class TestBuiltins:
    def test_every_preset_validates(self):
        for name in builtin_names():
            problem, cls = make_builtin(name)
            # validate_problem is idempotent on already-valid pairs
            validate_problem(problem, cls)
            assert problem.num_instances >= 1
            assert cls.num_hypotheses >= 2

    @pytest.mark.parametrize("name", builtin_names())
    def test_family_and_preset_are_the_builder_called_bare(self, name):
        family = name.partition(":")[0]
        builder = instances._FAMILIES[family][1]
        assert make_builtin(family) == make_builtin(name) == builder() == PRESET_CALLS[family]()

    def test_multilabel_with_one_coordinate_is_multiclass(self):
        multilabel, multiclass = make_builtin("multilabel:k=1"), make_builtin("multiclass")
        full = VersionSpace.full(2)
        for gamma in ("0", "1/4", "1/2", "1"):
            assert smdim(*multilabel, full, gamma) == smdim(*multiclass, full, gamma)
        assert ldim_k(*multilabel, full) == ldim_k(*multiclass, full) == 1

    def test_multilabel_constants_default_to_all_zeros_and_all_ones(self):
        problem, cls = make_builtin("multilabel:k=3")
        assert problem.num_labels == len(problem.predictions) == 8
        assert cls.table == ((0,), (7,))
        assert (problem.predictions[0], problem.predictions[7]) == ((0, 0, 0), (1, 1, 1))

    def test_vector_takes_its_norm(self):
        problem, _ = make_builtin("vector:p=2")
        assert problem.loss[1][2] == 2  # squared distance from (1, 0) to (0, 1)

    @pytest.mark.parametrize(
        "spec", ["vector:p=3", "regression:grid=3", "multilabel:constants=1", "multiclass:"]
    )
    def test_bad_builder_parameters_raise(self, spec):
        with pytest.raises(ValidationError):
            make_builtin(spec)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: make_builtin("multilabel:k=0"), "multilabel needs k >= 1"),
            (lambda: make_builtin("multiclass:m="), "malformed builtin parameter 'm=' in 'multiclass:m='"),
            (lambda: make_builtin("multiclass:=3"), "malformed builtin parameter '=3' in 'multiclass:=3'"),
            (lambda: make_builtin("multiclass:m=x"), "builtin parameter 'm=x' is not an integer"),
            (lambda: vector_instance(((0, 0), (0, "0"))), "vector points must be distinct"),
        ],
        ids=["multilabel-k-0", "no-value", "no-key", "not-an-integer", "repeated-point"],
    )
    def test_a_refused_builtin_gets_its_message(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("spec", OVER_BUDGET_SPECS)
    def test_over_budget_is_refused_before_building(self, spec):
        with pytest.raises(BudgetError, match=r"loss entries, over the budget of 1000000$"):
            make_builtin(spec)

    def test_budget_bounds_each_family_at_its_loss_entries(self, monkeypatch):
        monkeypatch.setattr(instances, "BUILTIN_BUDGET", 9)
        for within, over in (
            ("multiclass:m=3", "multiclass:m=4"),  # 9 and 16 entries
            ("list:n=3,k=1", "list:n=3,k=2"),  # 3 x 3 and 3 x 6
            ("multilabel:k=1", "multilabel:k=2"),  # 4 and 16
        ):
            make_builtin(within)
            with pytest.raises(BudgetError, match="over the budget of 9"):
                make_builtin(over)

    def test_parameterized_builtin(self):
        problem, cls = make_builtin("multiclass:m=3")
        assert problem.num_labels == 3
        assert cls.num_hypotheses == 3

    def test_family_and_keys_are_stripped_alike(self):
        for spec, plain in (
            (" multiclass : m=3", "multiclass:m=3"),
            ("multiclass :m=3", "multiclass:m=3"),
            (" list : n=4 , k=2", "list:n=4,k=2"),
        ):
            assert make_builtin(spec) == make_builtin(plain)

    def test_unknown_names_raise(self):
        with pytest.raises(ValidationError, match="known:"):
            make_builtin("nope")
        with pytest.raises(ValidationError):
            make_builtin("multiclass:nope")
        with pytest.raises(ValidationError):
            make_builtin("hilbert:k=2")

    def test_repeated_builtin_parameter_raises(self):
        with pytest.raises(ValidationError, match="'m' repeated"):
            make_builtin("multiclass:m=3,m=4")
        with pytest.raises(ValidationError, match="'k' repeated"):
            make_builtin("list:n=4,k=2, k=3")

    def test_multilabel_max_pairwise_loss(self):
        problem, cls = make_builtin("multilabel:pair-constants")
        # constants (0,0) and (1,1) disagree in both coordinates
        z0, z1 = cls.table[0][0], cls.table[1][0]
        y = problem.predictions[z1]
        assert problem.loss[problem.labels.index(y)][z0] == 1

    def test_hilbert_losses(self):
        problem, cls = hilbert_instance()
        # squared distances between e1, e2, 0
        assert problem.loss[0][1] == 2
        assert problem.loss[0][2] == 1
        assert problem.loss[0][0] == 0
        assert problem.bound_c == 2

    def test_triangle_inequality_on_metric_families(self):
        for name in (
            "multiclass:binary-constants",
            "multilabel:pair-constants",
            "vector:taxicab-triangle",
        ):
            problem, _ = make_builtin(name)
            assert problem.labels == problem.predictions
            n = problem.num_labels
            for a, b, c in product(range(n), repeat=3):
                assert problem.loss[a][b] <= problem.loss[a][c] + problem.loss[c][b]
                assert problem.loss[a][b] == problem.loss[b][a]
            for a in range(n):
                assert problem.loss[a][a] == 0

    def test_list_prediction_order_is_size_then_lex(self):
        problem, _ = list_instance(3, 2)
        assert problem.predictions == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))

    def test_list_instance_k_bounds(self):
        with pytest.raises(ValidationError):
            list_instance(3, 0)
        with pytest.raises(ValidationError):
            list_instance(3, 3)

    def test_regression_rejects_off_grid_and_duplicates(self):
        with pytest.raises(ValidationError):
            regression_instance(("-1", "2"), ("-1",))
        with pytest.raises(ValidationError):
            regression_instance(("-1", "-1", "1"), ("-1",))
        with pytest.raises(ValidationError):
            regression_instance(("-1", "0", "1"), ("1/3",))

    def test_vector_rejects_irrational_norms(self):
        with pytest.raises(ValidationError, match="p=1"):
            vector_instance(((0, 0), (1, 1)), p=3)

    def test_vector_rejects_ragged_points(self):
        with pytest.raises(ValidationError, match="same length"):
            vector_instance(((0, 0), (1,)))

    def test_multiclass_needs_two_labels(self):
        with pytest.raises(ValidationError):
            multiclass_instance(1)

    def test_multilabel_rejects_bad_constant(self):
        with pytest.raises(ValidationError):
            multilabel_instance(2, ((0, 0), (2, 0)))


class TestInstanceDocuments:
    def test_minimal_document_parses_to_binary_constants(self):
        problem, cls = parse_instance_document(P1_DOC)
        builtin_problem, builtin_cls = make_builtin("multiclass:binary-constants")
        assert problem.loss == builtin_problem.loss
        assert cls.table == builtin_cls.table

    def test_serializer_parser_round_trip_is_identity(self):
        for name in builtin_names():
            problem, cls = make_builtin(name)
            text = serialize_instance(problem, cls)
            parsed_problem, parsed_cls = parse_instance_document(text)
            assert serialize_instance(parsed_problem, parsed_cls) == text
            assert parsed_problem.loss == problem.loss
            assert parsed_cls.table == cls.table

    def test_decimal_literals_convert_exactly(self):
        doc = P1_DOC.replace('"1"', "0.2").replace('["0", "1"]', '["0", 0.2]').replace(
            '["1", "0"]', '[0.2, "0"]'
        )
        problem, _ = parse_instance_document(doc)
        assert problem.loss[0][1] == F(1, 5)
        assert problem.bound_c == F(1, 5)

    def test_missing_key_has_pointer_path(self):
        doc = json.loads(P1_DOC)
        del doc["loss"]
        with pytest.raises(ValidationError, match="loss"):
            parse_instance_document(json.dumps(doc))

    def test_bad_loss_entry_path(self):
        for entry, message in (
            ("x", "not a rational literal: 'x'"),
            (True, r"cannot interpret True as a rational"),
            ([1], r"cannot interpret \[1\] as a rational"),
        ):
            doc = json.loads(P1_DOC)
            doc["loss"][0][1] = entry
            with pytest.raises(ValidationError, match=f"^/loss/0/1: {message}$"):
                parse_instance_document(json.dumps(doc))

    def test_a_repeated_loss_literal_is_parsed_once(self, monkeypatch):
        paths = []
        real = instances._decode_rational
        monkeypatch.setattr(
            instances, "_decode_rational", lambda value, path: paths.append(path) or real(value, path)
        )
        doc = {
            "instances": ["x0"],
            "labels": [0, 1, 2],
            "predictions": [0, 1, 2],
            "loss": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
            "hypotheses": [[0], [1], [2]],
        }
        problem, _ = parse_instance_document(json.dumps(doc))
        assert paths == ["/loss/0/0", "/loss/0/1", "/loss/0/2"]
        assert problem.loss[0][1] is problem.loss[1][0] is problem.loss[2][1]
        # A bad literal fails where it first occurs, however often it repeats;
        # only strings are reused, so JSON true after 1 still fails.
        for loss, message in (
            ([["0", "x"], ["x", "0"]], "^/loss/0/1: not a rational literal: 'x'$"),
            ([[0, 1], [True, 0]], "^/loss/1/0: cannot interpret True as a rational$"),
        ):
            doc = json.loads(P1_DOC) | {"loss": loss}
            with pytest.raises(ValidationError, match=message):
                parse_instance_document(json.dumps(doc))

    def test_non_index_entries_are_rejected_with_their_path(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        for entry, shown, reason in (
            (True, "True", "non-int"),
            ("0", "'0'", "non-int"),
            (0.5, "Fraction(1, 2)", "non-int"),
            (None, "None", "non-int"),
            ([0], "[0]", "non-int"),
            (-1, "-1", "out-of-range"),
            (7, "7", "out-of-range"),
        ):
            doc = json.loads(P1_DOC)
            doc["hypotheses"][1] = [entry]
            message = f"/hypotheses: hypothesis 1 predicts {reason} index {shown} at x=0"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                parse_instance_document(json.dumps(doc))
            stream_reason = "out of range" if reason == "out-of-range" else "is not an int"
            for key, name in (("x", "instance"), ("y", "label")):
                item = {"x": 0, "y": 0} | {key: entry}
                text = json.dumps({"stream": [{"x": 0, "y": 0}, item]})
                message = f"/stream: round 2: {name} index {shown} {stream_reason}"
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    parse_stream_document(text, problem)

    def test_hypothesis_index_out_of_range_path(self):
        doc = json.loads(P1_DOC)
        doc["hypotheses"][1] = [7]
        message = "^/hypotheses: hypothesis 1 predicts out-of-range index 7 at x=0$"
        with pytest.raises(ValidationError, match=message):
            parse_instance_document(json.dumps(doc))

    @pytest.mark.parametrize("literal", REFUSED_INDEX_LITERALS)
    def test_a_refused_table_entry_gets_the_class_rules_error(self, literal):
        # The parser checks no table entry itself: the refusal is the one
        # HypothesisClass or validate_problem gives, behind the JSON prefix.
        problem, _ = make_builtin("multiclass:binary-constants")
        value = json.loads(literal, parse_float=F)
        with pytest.raises(ValidationError) as direct:
            validate_problem(problem, HypothesisClass(((0,), (value,))))
        with pytest.raises(ValidationError) as parsed:
            parse_instance_document(P1_DOC.replace("[[0], [1]]", f"[[0], [{literal}]]"))
        assert str(parsed.value) == f"/hypotheses: {direct.value}"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: [doc], "/: instance document must be a JSON object"),
            (lambda doc: doc | {"instances": [True]}, "/instances/0: boolean is not a valid identifier"),
            (lambda doc: doc | {"labels": []}, "/labels: expected a nonempty array"),
            (lambda doc: doc | {"predictions": "01"}, "/predictions: expected a nonempty array"),
            (lambda doc: doc | {"loss": [["0", "1"]]}, "/loss: 1 rows for 2 labels"),
            (lambda doc: doc | {"loss": [["0", "1"], ["1"]]}, "/loss/1: expected an array of 2 entries"),
            (lambda doc: doc | {"loss": [["0", "1"], "10"]}, "/loss/1: expected an array of 2 entries"),
            (lambda doc: doc | {"hypotheses": [[0], [1, 0]]}, "/hypotheses/1: expected an array of 1 entries"),
            (lambda doc: doc | {"hypotheses": [0, [1]]}, "/hypotheses/0: expected an array of 1 entries"),
        ],
        ids=[
            "array", "boolean-identifier", "empty-labels", "string-predictions", "loss-rows",
            "loss-row-length", "loss-row-string", "hypothesis-length", "hypothesis-int",
        ],
    )
    def test_a_malformed_shape_is_refused_with_its_path(self, change, message):
        text = json.dumps(change(json.loads(P1_DOC)))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_instance_document(text)

    def test_negative_loss_rejected(self):
        doc = json.loads(P1_DOC)
        doc["loss"][0][1] = "-1/2"
        with pytest.raises(ValidationError):
            parse_instance_document(json.dumps(doc))

    def test_deeply_nested_json_is_a_validation_error(self):
        nested = "[" * 5000 + "]" * 5000
        text = '{"instances": ' + nested + "}"
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_instance_document(text)

    def test_deeply_nested_identifier_is_a_validation_error(self):
        # Shallow enough for json.loads, too deep for the identifier decoder.
        depth = sys.getrecursionlimit() * 2 // 3
        text = P1_DOC.replace('"x0"', "[" * depth + "]" * depth, 1)
        json.loads(text)
        with pytest.raises(ValidationError, match="/instances: identifiers nested too deeply"):
            parse_instance_document(text)


class TestStreamDocuments:
    def test_parse_and_serialize_round_trip(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 1}, {"x": 0, "y": 0}]}'
        stream = parse_stream_document(text, problem)
        assert [(ex.x, ex.y, ex.eps) for ex in stream] == [(0, 1, None), (0, 0, None)]
        canonical = serialize_stream(stream)
        assert parse_stream_document(canonical, problem) == stream
        assert serialize_stream(parse_stream_document(canonical, problem)) == canonical

    def test_thresholds_parse_exactly(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 1, "eps": "1/3"}]}'
        stream = parse_stream_document(text, problem)
        assert stream[0].eps == F(1, 3)

    def test_missing_label_path(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 0}, {"x": 0, "y": 0}, {"x": 0}]}'
        with pytest.raises(ValidationError, match="^/stream/2: missing key 'y'$"):
            parse_stream_document(text, problem)

    def test_negative_threshold_rejected(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 0, "eps": "-1/4"}]}'
        with pytest.raises(ValidationError, match=r"^/stream: round 1: threshold -1/4 outside \[0, 1\]$"):
            parse_stream_document(text, problem)

    def test_out_of_range_index_with_problem(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 9}]}'
        with pytest.raises(ValidationError, match="/stream"):
            parse_stream_document(text, problem)

    def test_invalid_json_reported(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_stream_document("{nope", problem)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"x": 0, "y": 0}]', "/: stream document must be an object with a 'stream' key"),
            ('{"rounds": []}', "/: stream document must be an object with a 'stream' key"),
            ('{"stream": {"x": 0, "y": 0}}', "/stream: expected an array"),
            ('{"stream": [{"x": 0, "y": 0}, [0, 0]]}', "/stream/1: expected an object"),
        ],
        ids=["array", "no-stream-key", "object-stream", "array-entry"],
    )
    def test_a_malformed_shape_is_refused_with_its_path(self, text, message):
        problem, _ = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_stream_document(text, problem)

    @pytest.mark.parametrize("key", ["x", "y"])
    @pytest.mark.parametrize("literal", REFUSED_INDEX_LITERALS)
    def test_a_refused_stream_index_gets_the_stream_rules_error(self, literal, key):
        # The parser checks no index itself: the refusal is the one
        # make_stream(items, problem) gives, behind the JSON prefix.
        problem, _ = make_builtin("multiclass:binary-constants")
        value = json.loads(literal, parse_float=F)
        example = {"x": 0, "y": 0} | {key: value}
        with pytest.raises(ValidationError) as direct:
            make_stream([ThresholdedExample(0, 0), ThresholdedExample(**example)], problem)
        other = "y" if key == "x" else "x"
        text = f'{{"stream": [{{"x": 0, "y": 0}}, {{"{key}": {literal}, "{other}": 0}}]}}'
        with pytest.raises(ValidationError) as parsed:
            parse_stream_document(text, problem)
        assert str(parsed.value) == f"/stream: {direct.value}"

    @pytest.mark.parametrize("eps", ["-1/4", "3/2", "-1e5000", "1e5000"])
    def test_a_refused_threshold_gets_the_stream_rules_error(self, eps):
        problem, _ = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError) as direct:
            make_stream([(0, 0, "1"), (0, 1, eps)], problem)
        text = f'{{"stream": [{{"x": 0, "y": 0, "eps": "1"}}, {{"x": 0, "y": 1, "eps": "{eps}"}}]}}'
        with pytest.raises(ValidationError) as parsed:
            parse_stream_document(text, problem)
        assert str(parsed.value) == f"/stream: {direct.value}"

    @pytest.mark.parametrize(
        "entries, message",
        [
            ('{"x": 0, "y": 0}, {"x": 3, "y": 0}', r"round 2: instance index 3 out of range"),
            ('{"x": 0, "y": 0, "eps": "1"}, {"x": 0, "y": 1, "eps": "3/2"}',
             r"round 2: threshold 3/2 outside \[0, 1\]"),
            ('{"x": 0, "y": 0}, {"x": 0, "y": 1, "eps": "1"}',
             r"round 2: thresholds must be present on every stream element or on none"),
            ('{"x": 0, "y": 9}, {"x": true, "y": 0}', r"round 1: label index 9 out of range"),
            ('{"x": 0, "y": 9, "eps": "1"}, {"x": 0, "y": 0, "eps": "-1/4"}',
             r"round 1: label index 9 out of range"),
        ],
        ids=["instance", "threshold", "mixed", "round-order-index", "round-order-threshold"],
    )
    def test_stream_errors_carry_the_stream_path_and_round(self, entries, message):
        problem, _ = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match=f"^/stream: {message}$"):
            parse_stream_document(f'{{"stream": [{entries}]}}', problem)

    def test_tuples_lists_and_examples_serialize_alike(self):
        # serialize_stream once read .x and .eps, and raised AttributeError on a tuple.
        problem, _ = make_builtin("multiclass:binary-constants")
        for rows in ([(0, 1), (0, 0)], [(0, 1, "1/2"), (0, 0, F(0))]):
            examples = [ThresholdedExample(*row[:2], *map(F, row[2:])) for row in rows]
            texts = {serialize_stream(stream) for stream in (rows, [list(r) for r in rows], examples)}
            assert len(texts) == 1
            assert parse_stream_document(texts.pop(), problem) == tuple(examples)


def reference_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def certificate_document(cert) -> dict:
    """A certificate's JSON document, built field by field from its nodes."""
    entries = []
    for (members, depth) in sorted(cert.nodes):
        node = cert.nodes[(members, depth)]
        entries.append(
            {
                "space": list(members),
                "depth": depth,
                "x": node.instance,
                "value": format_rational(node.value),
                "candidates": [
                    {
                        "y": cand.label,
                        "eps": format_rational(cand.threshold),
                        "child": list(child.members),
                    }
                    for cand, child in node.candidates
                ],
            }
        )
    return {
        "gamma": format_rational(cert.gamma.gamma),
        "strict": cert.gamma.strict,
        "depth": cert.depth,
        "root": list(cert.root.members),
        "nodes": entries,
    }


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_equals_json_dumps_on_a_corpus(self):
        corpus = [
            "",
            "é\u2028\"\\/\n\t\x00\x1f\ud800 😀",
            {"ü": "ß", "a\nb": ["\"", "\\"], "": 0},
            [],
            {},
            [[], {}, [[]], [{}], {"e": []}, {"f": {}}],
            [[1, [2, [3, []]]], [[[4]]], (5, (6,)), ()],
            {"k": [True, False, None, 0, -1]},
            [True, False, None],
            [1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf")],
            {"big": [10**40, -(10**40), 2**64]},
            {"nested": {"ints": {1: "a", 2: [None, {3: 4.5}]}}},
            {"floats": {2.5: [1], -1.0: {}}},
            {"bools": {True: 1, False: None}},
            [{"b": [], "a": [{"d": 1, "c": [2.5, "x"]}]}, 7, "s"],
            1,
            -2,
            1.25,
            None,
            True,
            "top",
        ]
        for doc in corpus:
            assert canonical_json(doc) == reference_json(doc), doc

    def test_errors_match_json_dumps(self):
        # Two bad values fail at the first in sorted key order, as in json.
        for doc in ({"a": [F(1, 2)]}, {1: 2, "a": 3}, [object()], {"b": object(), "a": F(1, 2)}):
            with pytest.raises(TypeError) as ours:
                canonical_json(doc)
            with pytest.raises(TypeError) as theirs:
                reference_json(doc)
            assert str(ours.value) == str(theirs.value)

    def test_certificates_and_documents_equal_json_dumps(self):
        certs = []
        for name in builtin_names():
            problem, cls = make_builtin(name)
            text = serialize_instance(problem, cls)
            assert text == reference_json(json.loads(text))
            for gamma in (GammaValue.strict_zero(), F(1, 8), F(1, 4), F(1, 2)):
                engine = DimensionEngine(problem, cls, gamma)
                certs.append(engine.certificate(VersionSpace.full(cls.num_hypotheses)))
        grids = dim_cold_grids()
        for problem, cls in grids:
            for gamma in GRID_GAMMAS:
                engine = DimensionEngine(problem, cls, gamma)
                certs.append(engine.certificate(VersionSpace.full(cls.num_hypotheses)))
        # Rooted at a proper subspace, and of depth 0.
        problem, cls = grids[-1]
        sub = DimensionEngine(problem, cls, F(1, 8)).certificate(VersionSpace(tuple(range(1, 17, 2))))
        assert sub.depth >= 2
        zero = DimensionEngine(problem, cls, F(1, 8)).certificate(VersionSpace((3,)))
        assert zero.depth == 0 and not zero.nodes
        certs += [sub, zero]
        for cert in certs:
            assert cert.to_json() == reference_json(certificate_document(cert))
        binary, _ = make_builtin("multiclass:binary-constants")
        for items in ('{"x": 0, "y": 1, "eps": "1/3"}, {"x": 0, "y": 0, "eps": "0"}',
                      '{"x": 0, "y": 1}, {"x": 0, "y": 0}'):
            text = serialize_stream(parse_stream_document(f'{{"stream": [{items}]}}', binary))
            assert text == reference_json(json.loads(text))

    def test_hand_built_certificates_equal_json_dumps(self):
        # The engine writes exact ints at depths, instances and labels, and
        # tuples of them as member lists; a bool, a float or a string there,
        # an int node value, a node without candidates, a certificate of
        # depth 0, an empty root and member lists held as lists get json's
        # text too.
        half, pair, listed = F(1, 2), VersionSpace((0, 1)), VersionSpace([0, 1])
        nodes = {
            ((0, 1), True): CertificateNode(pair, True, True, half, ((Candidate(True, half), VersionSpace((1,))),)),
            ((0, 1), 2): CertificateNode(
                pair,
                2,
                0,
                3,
                ((Candidate(0, F(0)), VersionSpace((0,))), (Candidate('y"\u00e9', F(1, 4)), pair)),
            ),
            ((1,), 1): CertificateNode(VersionSpace((1,)), 1, 1.5, F(1, 3), ()),
        }
        certs = [
            ShatteringCertificate(GammaValue.of(F(1, 8)), pair, True, nodes),
            ShatteringCertificate(GammaValue.strict_zero(), VersionSpace((2,)), 0, {}),
            ShatteringCertificate(GammaValue.strict_zero(), VersionSpace(()), 0, {}),
            ShatteringCertificate(
                GammaValue.of(half),
                listed,
                1,
                {((0, 1), 1): CertificateNode(listed, 1, 0, half, ((Candidate(1, half), VersionSpace([1])),))},
            ),
        ]
        texts = [cert.to_json() for cert in certs]
        assert texts == [reference_json(certificate_document(cert)) for cert in certs]
        assert '"x": true' in texts[0] and '"y": true' in texts[0]

    def test_certificates_of_random_classes_at_proper_subspaces_equal_json_dumps(self):
        rng = random.Random(61)
        generators = (gen_multiclass, partial(gen_list, k=2), gen_setvalued, gen_regression)
        depths = set()
        for i in range(40):
            problem, cls = generators[i % len(generators)](rng)
            n = cls.num_hypotheses
            root = VersionSpace.of(rng.sample(range(n), rng.randint(1, n - 1)))
            for gamma in GRID_GAMMAS:
                cert = DimensionEngine(problem, cls, gamma).certificate(root)
                depths.add(cert.depth)
                assert cert.to_json() == reference_json(certificate_document(cert))
        assert {0, 1, 2} <= depths

    def test_certificates_with_numbers_past_the_int_digit_limit_equal_json_dumps(self):
        # Thresholds and node values whose numerators and denominators have
        # more digits than str() may write; format_rational writes them.
        digits = max(sys.get_int_max_str_digits(), 640) + 60
        near_one = 1 - F(1, 10**digits)
        grid = (F(-1), -near_one / 3, near_one / 3, F(1))
        loss = [[abs(y - z) / 2 for z in grid] for y in grid]
        problem = make_problem((0, 1), grid, grid, loss)
        problem, cls = validate_problem(problem, HypothesisClass(tuple(product(range(4), repeat=2))))
        certs = [
            DimensionEngine(problem, cls, gamma).certificate(VersionSpace.full(cls.num_hypotheses))
            for gamma in (GammaValue.strict_zero(), GammaValue.of(F(1, 8)))
        ]
        node = CertificateNode(VersionSpace((0, 1)), 1, 0, near_one, ((Candidate(1, near_one), VersionSpace((1,))),))
        certs.append(ShatteringCertificate(GammaValue.of(near_one), VersionSpace((0, 1)), 1, {((0, 1), 1): node}))
        for cert in certs:
            nodes = cert.nodes.values()
            big = [n.value for n in nodes] + [c.threshold for n in nodes for c, _ in n.candidates]
            assert any(q.denominator >= 10**digits for q in big)
            assert cert.to_json() == reference_json(certificate_document(cert))

    def test_encode_identifier_forms(self):
        assert encode_identifier("x0") == "x0"
        assert encode_identifier(F(1, 2)) == "1/2"
        assert encode_identifier((F(1), F(0))) == ["1", "0"]
        assert encode_identifier(3) == 3
