"""Tests for the package surface: what importing it loads, and README's examples."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from eqpart.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def loaded_modules(statement):
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"{statement}; import sys; print('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(proc.stdout.split())


def test_import_eqpart_loads_no_submodule():
    loaded = loaded_modules("import eqpart")
    assert "eqpart" in loaded
    assert not {m for m in loaded if m.startswith("eqpart.")}


def test_cli_loads_no_numpy():
    loaded = loaded_modules("from eqpart.cli import main")
    assert "eqpart.cli" in loaded
    assert not {m for m in loaded if m == "numpy" or m.startswith("numpy.")}


def test_cli_loads_only_what_solve_needs():
    # bench, oracle and reductions load in the handlers that call them;
    # main maps their errors by core's base classes
    loaded = loaded_modules("import eqpart.cli")
    assert not loaded & {"eqpart.bench", "eqpart.oracle", "eqpart.reductions",
                         "statistics", "fractions", "csv"}
    from eqpart import core, oracle
    assert issubclass(oracle.OracleCapError, core.PartitionError)


SOLVE_IN_PROCESS = ("import os, sys; from eqpart.cli import main; sys.stdout = open(os.devnull, 'w'); "
                    "code = main({argv!r}); sys.stdout = sys.__stdout__; assert code == 0")


@pytest.mark.parametrize("argv", [None, ["solve", "--verify"],
                                  ["solve", "--verify", "--format", "json", "--stats"],
                                  ["verify", "--init", "random", "--seed", "3"]],
                         ids=["import", "solve", "solve-json", "verify"])
def test_cli_solve_loads_no_dataclasses_inspect_or_typing(argv, tmp_path):
    # core's records are plain classes: neither importing the CLI nor a
    # solve or verify through it loads these, beyond what a bare
    # interpreter's site already has
    if argv is None:
        statement = "import eqpart.cli"
    else:
        path = tmp_path / "in.txt"
        path.write_text("1 2 3 8 5 13\n")
        statement = SOLVE_IN_PROCESS.format(argv=[*argv, "--input", str(path)])
    added = loaded_modules(statement) - loaded_modules("pass")
    assert "eqpart.core" in added
    assert not added & {"dataclasses", "inspect", "typing"}


def fence(heading):
    """Body of the first code fence after a `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def cli_examples():
    """(command line, shown output lines) for each `$ echo ... | eqpart ...`
    and `$ eqpart ...` line."""
    examples = []
    for block in fence("CLI").split("\n\n"):
        command, *shown = block.strip().splitlines()
        if command.startswith(("$ echo ", "$ eqpart ")):
            examples.append(pytest.param(command[2:], shown, id=command[2:]))
    return examples


@pytest.mark.parametrize("command, shown", cli_examples())
def test_readme_cli_example(command, shown, capsys, monkeypatch):
    words = shlex.split(command)
    if words[0] == "echo":
        assert words[2:4] == ["|", "eqpart"], command
        stdin = io.BytesIO((words[1] + "\n").encode())
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": stdin})())
        words = words[3:]
    assert main(words[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if "..." not in shown:
        assert len(out) == len(shown)
    for expected, actual in zip(shown, out):
        if expected == "...":
            break
        head, dots, tail = expected.partition("...")
        if dots:
            assert actual.startswith(head) and actual.endswith(tail), (expected, actual)
        else:
            assert actual == expected


def test_readme_cli_examples_found():
    commands = [example.values[0] for example in cli_examples()]
    assert len(commands) >= 5
    assert any(c.startswith("eqpart bench ") and c.endswith("--format csv") for c in commands)


def test_readme_library_example():
    exec(compile(fence("Library"), "README.md", "exec"), {})
