"""The README's examples run as written: each Python block executes, and each
`icawgn ...` line of its shell blocks exits 0 with a non-empty table."""

import re
import shlex
from pathlib import Path

import pytest

import icawgn
from icawgn.cli import main

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", _README, flags=re.M | re.S)
_PYTHON = [code for lang, code in _BLOCKS if lang == "python"]
_COMMANDS = [line.split()[1:] for lang, code in _BLOCKS if lang == "sh"
             for line in code.splitlines() if line.startswith("icawgn ")]


def test_every_public_name_is_in_the_readme():
    # Each name of icawgn.__all__ opens a code span somewhere in the README.
    missing = [name for name in icawgn.__all__ if not re.search(rf"`{re.escape(name)}\b", _README)]
    assert not missing, missing


def test_readme_has_examples():
    assert len(_PYTHON) >= 3 and len(_COMMANDS) >= 6


@pytest.mark.parametrize("code", _PYTHON, ids=lambda code: code.split("\n")[0][:40])
def test_python_block_runs(code, capsys):
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", _COMMANDS, ids=shlex.join)
def test_command_prints_a_table(argv, capsys):
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header and rows
