"""The README's Python example and command block run as written, in order,
and print what their ``#`` comments say."""

import ast
import re
import shlex
from pathlib import Path

from sigtorus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def _statements(block):
    """(code, comment) of every nonblank line of a fenced block."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            yield code.strip(), comment.strip()


def test_python_example_values():
    """An expression with a comment evaluates to the value whose repr it gives."""
    (block,) = [text for lang, text in BLOCKS if lang == "python"]
    namespace, checked = {}, 0
    for code, comment in _statements(block):
        if comment and isinstance(ast.parse(code).body[0], ast.Expr):
            assert repr(eval(code, namespace)) == comment, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def test_command_block_outputs(tmp_path, monkeypatch, capsys):
    """Every command exits 0, and a commented one prints the comment as a line."""
    (block,) = [text for lang, text in BLOCKS if text.startswith("sigtorus ")]
    monkeypatch.chdir(tmp_path)
    checked = 0
    for command, comment in _statements(block):
        program, *argv = shlex.split(command)
        assert program == "sigtorus"
        exit_code = main(argv)
        out = capsys.readouterr().out
        assert exit_code == 0, command
        if comment:
            assert comment in out.splitlines(), (command, out[-500:])
            checked += 1
    assert checked == 5
