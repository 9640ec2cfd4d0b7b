"""The README's command-line examples and library snippet run as shown."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from smdim import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
EXAMPLES = [body for _, body in BLOCKS if body.startswith("$ smdim ")]
STREAM = next(body for lang, body in BLOCKS if lang == "json" and body.startswith('{"stream"'))
(SNIPPET,) = [body for lang, body in BLOCKS if lang == "python"]


def test_every_command_is_an_example():
    assert [block.split()[2] for block in EXAMPLES] == [
        "dim", "learn", "adversary", "sqrt-lower", "verify",
    ]


@pytest.mark.parametrize("block", EXAMPLES, ids=lambda block: block.split()[2])
def test_command_prints_what_the_readme_shows(block, capsys, tmp_path, monkeypatch):
    command, expected = block.split("\n", 1)
    (tmp_path / "stream.json").write_text(STREAM, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(command)[2:])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


def test_library_snippet_gives_the_values_in_its_comments():
    # Each expression statement's comment starts with the value it evaluates to.
    lines = SNIPPET.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(SNIPPET).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        shown = re.search(r"#\s*(\d+|Fraction\(\d+, \d+\))", lines[node.lineno - 1])
        assert shown, lines[node.lineno - 1]
        assert value == eval(shown.group(1), {"Fraction": Fraction})
        checked.append(value)
    assert checked == [1, Fraction(1, 2)]
