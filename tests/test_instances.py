"""Built-in families and the JSON instance/stream formats."""

import json
import sys
from fractions import Fraction
from itertools import product

import pytest

from smdim.core import (
    ThresholdedExample,
    ValidationError,
    VersionSpace,
    format_rational,
    validate_problem,
)
from smdim import instances
from smdim.dimensions import DimensionEngine, GammaValue
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
    vector_instance,
)

from test_dimensions import GRID_GAMMAS, dim_cold_grids

F = Fraction

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

    def test_family_name_maps_to_default_preset(self):
        assert make_builtin("multiclass") == make_builtin("multiclass:binary-constants")

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
        for entry in (True, "0", 0.5, None, [0]):
            doc = json.loads(P1_DOC)
            doc["hypotheses"][1] = [entry]
            with pytest.raises(ValidationError, match="^/hypotheses/1/0: expected an index$"):
                parse_instance_document(json.dumps(doc))
            for key in ("x", "y"):
                item = {"x": 0, "y": 0} | {key: entry}
                text = json.dumps({"stream": [{"x": 0, "y": 0}, item]})
                with pytest.raises(ValidationError, match=f"^/stream/1/{key}: expected an index$"):
                    parse_stream_document(text)

    def test_hypothesis_index_out_of_range_path(self):
        doc = json.loads(P1_DOC)
        doc["hypotheses"][1] = [7]
        with pytest.raises(ValidationError, match="/hypotheses/1/0"):
            parse_instance_document(json.dumps(doc))

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
        assert serialize_stream(parse_stream_document(canonical)) == canonical

    def test_thresholds_parse_exactly(self):
        text = '{"stream": [{"x": 0, "y": 1, "eps": "1/3"}]}'
        stream = parse_stream_document(text)
        assert stream[0].eps == F(1, 3)

    def test_missing_label_path(self):
        text = '{"stream": [{"x": 0, "y": 0}, {"x": 0, "y": 0}, {"x": 0}]}'
        with pytest.raises(ValidationError, match="/stream/2"):
            parse_stream_document(text)

    def test_negative_threshold_rejected(self):
        text = '{"stream": [{"x": 0, "y": 0, "eps": "-1/4"}]}'
        with pytest.raises(ValidationError, match="/stream/0/eps"):
            parse_stream_document(text)

    def test_out_of_range_index_with_problem(self):
        problem, _ = make_builtin("multiclass:binary-constants")
        text = '{"stream": [{"x": 0, "y": 9}]}'
        with pytest.raises(ValidationError, match="/stream"):
            parse_stream_document(text, problem)

    def test_invalid_json_reported(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_stream_document("{nope")

    @pytest.mark.parametrize(
        "entries, message",
        [
            ('{"x": 0, "y": 0}, {"x": 3, "y": 0}', r"round 2: instance index 3 out of range"),
            ('{"x": 0, "y": 0, "eps": "1"}, {"x": 0, "y": 1, "eps": "3/2"}',
             r"round 2: threshold 3/2 outside \[0, 1\]"),
            ('{"x": 0, "y": 0}, {"x": 0, "y": 1, "eps": "1"}',
             r"round 2: thresholds must be present on every stream element or on none"),
        ],
        ids=["instance", "threshold", "mixed"],
    )
    def test_stream_errors_carry_the_stream_path_and_round(self, entries, message):
        problem, _ = make_builtin("multiclass:binary-constants")
        with pytest.raises(ValidationError, match=f"^/stream: {message}$"):
            parse_stream_document(f'{{"stream": [{entries}]}}', problem)

    def test_tuples_lists_and_examples_serialize_alike(self):
        # serialize_stream once read .x and .eps, and raised AttributeError on a tuple.
        for rows in ([(0, 1), (0, 0)], [(0, 1, "1/2"), (0, 0, F(0))]):
            examples = [ThresholdedExample(*row[:2], *map(F, row[2:])) for row in rows]
            texts = {serialize_stream(stream) for stream in (rows, [list(r) for r in rows], examples)}
            assert len(texts) == 1
            assert parse_stream_document(texts.pop()) == tuple(examples)


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
        for items in ('{"x": 0, "y": 1, "eps": "1/3"}, {"x": 0, "y": 0, "eps": "0"}',
                      '{"x": 0, "y": 1}, {"x": 0, "y": 0}'):
            text = serialize_stream(parse_stream_document(f'{{"stream": [{items}]}}'))
            assert text == reference_json(json.loads(text))

    def test_encode_identifier_forms(self):
        assert encode_identifier("x0") == "x0"
        assert encode_identifier(F(1, 2)) == "1/2"
        assert encode_identifier((F(1), F(0))) == ["1", "0"]
        assert encode_identifier(3) == 3
