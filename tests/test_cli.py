"""Command-line behavior: output formats, exit codes, file handling."""

import json
import random
from fractions import Fraction

import pytest

from smdim import cli, learners
from smdim.core import HypothesisClass, ValidationError, make_problem, make_stream, validate_problem
from smdim.instances import make_builtin, serialize_instance, serialize_stream
from smdim.verify import CaseResult, run_verification


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_plain_single_gamma(self, capsys):
        code, out, err = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert (code, out, err) == (0, "1\n", "")

    def test_plain_multiple_gammas_one_per_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "1/4,1/2,2",
        )
        assert code == 0
        assert out == "1\n1\n0\n"

    def test_gamma_zero_means_strict(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "0",
        )
        assert (code, out) == (0, "1\n")

    def test_json_output_is_stable(self, capsys):
        argv = (
            "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "1/4,0", "--format", "json",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert doc["dimension"] == "smdim"
        assert doc["results"] == [
            {"gamma": "1/4", "strict": False, "value": 1},
            {"gamma": "0", "strict": True, "value": 1},
        ]

    def test_csv_output_uses_crlf(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "1/4", "--format", "csv",
        )
        assert code == 0
        assert out == "gamma,strict,value\r\n1/4,false,1\r\n"

    def test_ldim_and_ldimk(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "ldim"
        )
        assert (code, out) == (0, "1\n")
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "list", "--dimension", "ldimk", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"dimension": "ldimk", "k": 2, "value": 1}

    def test_seqfat_on_regression_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "regression", "--dimension", "seqfat",
            "--gamma", "1/2,1,2",
        )
        assert (code, out) == (0, "1\n1\n0\n")

    def test_msdim(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "setvalued", "--dimension", "msdim",
            "--gamma", "1/2",
        )
        assert (code, out) == (0, "1\n")

    def test_instance_file_equals_builtin(self, capsys, tmp_path):
        problem, cls = make_builtin("multiclass:binary-constants")
        path = tmp_path / "instance.json"
        path.write_text(serialize_instance(problem, cls), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "dim", "--instance", str(path), "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert (code, out) == (0, "1\n")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = (
            "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "1/4", "--format", "json",
        )
        _, stdout_text, _ = run_cli(capsys, *argv)
        target = tmp_path / "dim.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == stdout_text


class TestDimErrors:
    def test_missing_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim"
        )
        assert code == 2
        assert err.startswith("error:") and "--gamma" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(
            capsys, "dim", "--builtin", "nonesuch", "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert code == 2 and "unknown builtin" in err

    def test_repeated_builtin_parameter(self, capsys):
        code, out, err = run_cli(
            capsys, "dim", "--builtin", "multiclass:m=3,m=4", "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert code == 2 and out == "" and "'m' repeated" in err

    def test_multilabel_with_three_coordinates(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--builtin", "multilabel:k=3", "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert (code, out) == (0, "1\n")

    @pytest.mark.parametrize(
        "spec", ["multiclass:m=99999999999999999999", "multilabel:k=40", "list:n=40,k=20"]
    )
    def test_oversized_builtin_exits_2(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "dim", "--builtin", spec, "--dimension", "smdim", "--gamma", "1/4",
        )
        assert code == 2 and out == "" and err.startswith("error: builtin ")
        assert "over the budget of" in err

    def test_unparseable_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "dim", "--builtin", "multiclass", "--dimension", "smdim",
            "--gamma", "fast",
        )
        assert code == 2 and err.startswith("error:")

    def test_seqfat_rejects_strict(self, capsys):
        code, _, err = run_cli(
            capsys, "dim", "--builtin", "regression", "--dimension", "seqfat",
            "--gamma", "0",
        )
        assert code == 2 and "seqfat needs gamma > 0" in err

    def test_non_integer_memo_cap_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SMDIM_MEMO_CAP", "abc")
        code, _, err = run_cli(
            capsys, "dim", "--dimension", "smdim", "--gamma", "1/4",
            "--builtin", "multiclass",
        )
        assert code == 2 and err.startswith("error:") and "SMDIM_MEMO_CAP" in err

    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(
            capsys, "dim", "--instance", "/nonexistent/path.json",
            "--dimension", "smdim", "--gamma", "1/4",
        )
        assert code == 2 and err.startswith("error:")

    def test_non_utf8_instance_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff{}")
        code, _, err = run_cli(
            capsys, "dim", "--dimension", "smdim", "--gamma", "1/4",
            "--instance", str(path),
        )
        assert code == 2 and err.startswith("error:") and "utf-8" in err

    def test_over_long_integer_literal_exits_2(self, capsys, tmp_path):
        # json.loads refuses an int longer than sys.get_int_max_str_digits().
        huge = "9" * 5000
        instance = tmp_path / "instance.json"
        instance.write_text(
            '{"instances": ["x0"], "labels": [0, 1], "predictions": [0, 1], '
            f'"loss": [["0", "1"], ["1", "0"]], "hypotheses": [[0], [{huge}]]}}',
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "dim", "--instance", str(instance), "--dimension", "smdim",
            "--gamma", "1/4",
        )
        assert (code, out) == (2, "") and err.startswith("error: invalid JSON")
        stream = tmp_path / "stream.json"
        stream.write_text(f'{{"stream": [{{"x": 0, "y": {huge}}}]}}', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "ftl",
            "--stream", str(stream),
        )
        assert (code, out) == (2, "") and err.startswith("error: invalid JSON")

    def test_argparse_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["dim", "--builtin", "multiclass"])  # no --dimension
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli.main(["dim", "--dimension", "smdim", "--gamma", "1/4"])  # no source
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            cli.main([
                "dim", "--builtin", "multiclass", "--instance", "x.json",
                "--dimension", "smdim", "--gamma", "1/4",
            ])
        assert info.value.code == 2


def write_constants(tmp_path, loss, name="instance.json"):
    """Two constant hypotheses on one instance under a 2x2 loss matrix."""
    problem = make_problem(("x0",), (0, 1), (0, 1), loss)
    problem, cls = validate_problem(problem, HypothesisClass(((0,), (1,))))
    path = tmp_path / name
    path.write_text(serialize_instance(problem, cls), encoding="utf-8")
    return str(path)


def write_stream(tmp_path, examples, name="stream.json"):
    path = tmp_path / name
    path.write_text(serialize_stream(make_stream(examples)), encoding="utf-8")
    return str(path)


class TestLearn:
    def test_mrsoa_realizable_stream(self, capsys, tmp_path):
        stream = write_stream(tmp_path, [(0, 1), (0, 1), (0, 1)])
        code, out, _ = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "mrsoa",
            "--gamma", "1/4", "--stream", stream,
        )
        assert code == 0
        assert "rounds: 3\n" in out
        assert "cumulative expected loss: 1/2\n" in out
        assert "regret: 1/2\n" in out

    def test_unrealizable_stream_exits_2(self, capsys, tmp_path):
        stream = write_stream(tmp_path, [(0, 0, "0"), (0, 1, "0")])
        code, _, err = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "mrsoa",
            "--gamma", "1/4", "--stream", stream,
        )
        assert code == 2
        assert "round 2: stream not eps_t-realizable" in err

    def test_csv_transcript(self, capsys, tmp_path):
        stream = write_stream(tmp_path, [(0, 1), (0, 0)])
        code, out, _ = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "ftl",
            "--stream", stream, "--format", "csv",
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "round,instance,label,eps,mixture,expected_loss"
        assert lines[1] == "1,x0,1,,1;0,1"
        assert lines[2] == "2,x0,0,,0;1,1"

    def test_agnostic_json_report(self, capsys, tmp_path):
        stream = write_stream(tmp_path, [(0, 1), (0, 0), (0, 1), (0, 1)])
        code, out, _ = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4", "--stream", stream, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact"
        assert len(doc["rounds"]) == 4
        assert doc["hindsight_loss"] == "1"

    def test_agnostic_alpha_not_dividing_c(self, capsys, tmp_path):
        # The grid {0, 2/3, 4/3} ends above c = 1; that threshold keeps V.
        stream = write_stream(tmp_path, [(0, 1), (0, 0), (0, 1)])
        code, out, err = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4", "--alpha", "2/3", "--stream", stream,
        )
        assert (code, err) == (0, "")
        assert "rounds: 3\n" in out

    def test_agnostic_tiny_alpha_exits_2_before_building_the_grid(self, capsys, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(learners, "loss_grid", lambda alpha, c: built.append(alpha))
        stream = write_stream(tmp_path, [(0, 1), (0, 0), (0, 1)])
        code, out, err = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4", "--alpha", "1/1000000000", "--stream", stream,
        )
        assert (code, out, built) == (2, "", [])
        assert err.startswith("error: threshold grid of ")

    def test_agnostic_on_zero_loss_matrix(self, capsys, tmp_path):
        # c = 0: the default alpha is 1/T and the pool is the empty expert.
        instance = write_constants(tmp_path, [["0", "0"], ["0", "0"]])
        stream = write_stream(tmp_path, [(0, 1), (0, 0), (0, 1)])
        code, out, err = run_cli(
            capsys, "learn", "--instance", instance, "--learner", "agnostic",
            "--gamma", "1/4", "--stream", stream, "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["regret"] == "0"

    def test_non_utf8_stream_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "stream.json"
        path.write_bytes(b"\xff{}")
        code, _, err = run_cli(
            capsys, "learn", "--learner", "ftl", "--builtin", "multiclass",
            "--stream", str(path),
        )
        assert code == 2 and err.startswith("error:") and "utf-8" in err

    def test_agnostic_output_beyond_the_int_digit_limit(self, capsys, tmp_path):
        # The exact MW values of 30 label-only rounds run to thousands of
        # digits, past sys.get_int_max_str_digits() (4300 by default).
        rng = random.Random(0)
        stream = write_stream(tmp_path, [(0, rng.randint(0, 1)) for _ in range(30)])
        argv = (
            "learn", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4", "--stream", stream,
        )
        code, text, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert max(len(line) for line in text.splitlines()) > 4300
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert len(doc["rounds"]) == 30
        assert f"regret: {doc['regret']}\n" in text
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        rows = out.split("\r\n")
        assert len(rows) == 32 and rows[-1] == ""
        assert rows[30].split(",")[-1] == doc["rounds"][-1]["expected_loss"]

    def test_monte_carlo_line(self, capsys, tmp_path):
        stream = write_stream(tmp_path, [(0, 1)] * 3)
        code, out, _ = run_cli(
            capsys, "learn", "--builtin", "multiclass", "--learner", "mrsoa",
            "--gamma", "1/4", "--stream", stream, "--mode", "monte-carlo",
            "--seed", "9", "--trials", "100",
        )
        assert code == 0
        assert "100 trials, seed 9" in out


class TestAdversary:
    def test_mrsoa_meets_guarantee_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "adversary", "--builtin", "multiclass", "--learner", "mrsoa",
            "--gamma", "1/4",
        )
        assert code == 0
        assert "dimension: 1\n" in out
        assert "guaranteed regret: >= 1/4\n" in out
        assert "regret: 1/2\n" in out

    def test_rounds_beyond_certificate_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "adversary", "--builtin", "multiclass", "--learner", "uniform",
            "--gamma", "1/4", "-T", "5",
        )
        assert code == 2 and "at most 1 rounds" in err

    def test_several_gammas_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "adversary", "--builtin", "multiclass", "--learner", "mrsoa",
            "--gamma", "1/4,1/2",
        )
        assert (code, out) == (2, "")
        assert "adversary takes a single gamma" in err

    def test_agnostic_learner_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "adversary", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4",
        )
        assert (code, err) == (0, "")
        assert "rounds: 1\n" in out
        assert "guaranteed regret: >= 1/4\n" in out

    def test_agnostic_learner_takes_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "adversary", "--builtin", "multiclass", "--learner", "agnostic",
            "--gamma", "1/4", "--alpha", "1/2", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["rounds"]) == 1

    def test_agnostic_default_alpha_when_c_is_below_one_over_t(self, capsys, tmp_path):
        # c = 3/4 and the certificate has depth 1, so T = 1 and 1/T > c: the
        # default alpha is c.
        instance = write_constants(tmp_path, [["0", "3/4"], ["3/4", "0"]])
        code, out, err = run_cli(
            capsys, "adversary", "--instance", instance, "--learner", "agnostic",
            "--gamma", "1/4",
        )
        assert (code, err) == (0, "")
        assert "rounds: 1\n" in out
        assert "guaranteed regret: >= 1/4\n" in out

    def test_uniform_csv_transcript(self, capsys):
        code, out, _ = run_cli(
            capsys, "adversary", "--builtin", "hilbert", "--learner", "uniform",
            "--gamma", "1/2", "--format", "csv",
        )
        assert code == 0
        assert out.startswith("round,instance,label,eps,mixture,expected_loss\r\n")


class TestVerify:
    def test_plain_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--prop", "ldim", "--cases", "4")
        assert (code, err) == (0, "")
        assert out.endswith("4/4 cases passed\n")
        assert out.count("case ") == 4
        assert "FAIL" not in out

    def test_numeric_alias_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--prop", "6.4", "--cases", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["prop"] == "msdim"
        assert doc["failures"] == 0
        assert len(doc["cases"]) == 3

    @pytest.mark.parametrize(
        "cases, message",
        [
            (True, "cases must be an int, got True"),
            (2.0, "cases must be an int, got 2.0"),
            (0, "cases must be >= 1, got 0"),
        ],
    )
    def test_the_case_count_is_a_positive_int(self, cases, message):
        # cases=True once ran one case.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            run_verification("ldim", cases=cases)

    def test_unknown_prop_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--prop", "7.9")
        assert code == 2 and err.startswith("error:")

    def test_failures_exit_3(self, capsys, monkeypatch):
        def forced(prop, seed=0, cases=20):
            return [CaseResult(0, prop, False, "forced counterexample")]

        monkeypatch.setattr(cli, "run_verification", forced)
        code, out, err = run_cli(capsys, "verify", "--prop", "ldim", "--cases", "1")
        assert code == 3
        assert "case 0: FAIL - forced counterexample" in out
        assert "0/1 cases passed" in out
        assert "1 verification case(s) failed" in err


class TestSqrtLower:
    def test_three_rounds_exact_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", "3"
        )
        assert code == 0
        assert "eta=1\n" in out
        assert "expected regret over all sign streams: 3/4\n" in out
        assert "khinchine term eta*E|S|/2: 3/4\n" in out
        assert "satisfied: True\n" in out

    def test_zero_rounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", "0"
        )
        assert code == 0
        assert "expected regret over all sign streams: 0\n" in out
        assert "satisfied: True\n" in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"] == {
            "x": 0, "h_minus": 0, "h_plus": 1, "y_minus": 0, "y_plus": 1, "eta": "1",
        }
        assert doc["satisfied"] is True

    def test_several_gammas_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", "2",
            "--gamma", "1/4,1/2",
        )
        assert (code, out) == (2, "")
        assert "sqrt-lower takes a single gamma" in err

    def test_witnessless_instance_rejected(self, capsys, tmp_path):
        # single-hypothesis class: no two-point pattern exists
        doc = {
            "instances": ["x0"],
            "labels": [0, 1],
            "predictions": [0, 1],
            "loss": [["0", "1"], ["1", "0"]],
            "bound_c": "1",
            "hypotheses": [[0]],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "sqrt-lower", "--instance", str(path), "-T", "2"
        )
        assert code == 2 and "no two-point sign witness" in err

    @pytest.mark.parametrize(
        "rounds, expected, satisfied",
        [
            (2, Fraction(1, 2), True),
            (8, Fraction(1), True),
            # float(expected) is 0.5, so a float comparison would say true.
            (2, Fraction(1, 2) - Fraction(1, 10**20), False),
            # Its square reaches the target's, but the regret is negative.
            (8, Fraction(-1), False),
        ],
        ids=["T=2-equal", "T=8-equal", "T=2-just-below", "T=8-negative"],
    )
    def test_satisfied_is_decided_exactly_at_the_target(self, capsys, monkeypatch, rounds, expected, satisfied):
        # T/8 is a rational square, so with eta = 1 the target eta*sqrt(T/8)
        # is the rational sqrt(T/8): satisfied reads 8 * expected^2 >= eta^2 * T.
        monkeypatch.setattr(cli, "exact_expectation_over_signs", lambda *args: expected)
        code, out, _ = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", str(rounds), "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["witness"]["eta"] == "1"
        assert (doc["bound"], doc["satisfied"]) == ((rounds / 8) ** 0.5, satisfied)

    def test_negative_rounds_rejected(self, capsys):
        # Refused by the sign enumeration's own count rule.
        code, out, err = run_cli(
            capsys, "sqrt-lower", "--builtin", "multiclass", "-T", "-1"
        )
        assert (code, out) == (2, "")
        assert "rounds must be >= 0, got -1" in err


def binary_document(loss='[["0", "1"], ["1", "0"]]', hypotheses="[[0], [1]]", instances='["x0"]'):
    return (
        f'{{"instances": {instances}, "labels": [0, 1], "predictions": [0, 1], '
        f'"bound_c": "1", "loss": {loss}, "hypotheses": {hypotheses}}}'
    )


class TestHugeLiterals:
    # An exponent literal makes a number far past sys.get_int_max_str_digits()
    # from short text; the refusal must still be printed, with exit 2.
    @pytest.mark.parametrize(
        "argv, instance, stream",
        [
            (["learn", "--learner", "mrsoa"], None, '{"x": 0, "y": 0, "eps": "1e5000"}'),
            (["learn", "--learner", "mrsoa"], None, '{"x": 0, "y": 0, "eps": "-1e5000"}'),
            (["learn", "--learner", "mrsoa"], None, '{"x": 0, "y": 0, "eps": [1e5000]}'),
            (["learn", "--learner", "mrsoa"], None, '{"x": 1e5000, "y": 0}'),
            (["learn", "--learner", "mrsoa"], None, '{"x": 0, "y": {"a": -1e5000}}'),
            (["dim", "--dimension", "smdim"], binary_document('[["0", "1e5000"], ["1", "0"]]'), None),
            (["dim", "--dimension", "smdim"], binary_document('[["0", "-1e5000"], ["1", "0"]]'), None),
            (["dim", "--dimension", "smdim"], binary_document('[["0", [1e5000]], ["1", "0"]]'), None),
            (["dim", "--dimension", "smdim"], binary_document(hypotheses="[[0], [1e5000]]"), None),
            (["dim", "--dimension", "smdim"], binary_document(instances='[{"a": 1e5000}]'), None),
            (["dim", "--dimension", "smdim", "--gamma=-1e5000"], None, None),
            (["sqrt-lower", "-T", "2", "--alpha", "1e-5000"], None, None),
            (["sqrt-lower", "-T", "2", "--alpha", "1e5000"], None, None),
        ],
        ids=[
            "eps", "negative-eps", "eps-list", "stream-index", "stream-index-dict",
            "loss-above-bound", "negative-loss", "loss-list", "table-index", "identifier-dict",
            "negative-gamma", "tiny-alpha", "huge-alpha",
        ],
    )
    def test_refusal_exits_2_without_a_traceback(self, capsys, tmp_path, argv, instance, stream):
        argv = list(argv)
        if instance is None:
            argv += ["--builtin", "multiclass:binary-constants"]
        else:
            path = tmp_path / "instance.json"
            path.write_text(instance, encoding="utf-8")
            argv += ["--instance", str(path)]
        if stream is not None:
            path = tmp_path / "stream.json"
            path.write_text(f'{{"stream": [{stream}]}}', encoding="utf-8")
            argv += ["--stream", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error:")
