"""The console contract: one row per check of an `eqpart` run, exit code and text.

Each row runs `cli.main` in process on a small literal input or on an input
file (see `paths`), and holds the run's exit code and its checks.
A check names a stream and how its text must appear in it:

- "line": a whole line of the stream (what `grep -x` checks);
- "has": a substring of the stream (`grep -F`, `grep -q`);
- "match": a line the pattern matches in full (`grep -Ex`);
- "is": the whole stream.

A check of the same run that `test_cli.py` already makes, at the same
strictness or stricter, is not repeated here.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

INITS = ("alternating", "split", "random", "greedy")
PASS = ("out", "line", "verified: PASS")


def _draws(draw, n=1 << 14):
    r = random.Random(1)
    return " ".join(draw(r) for _ in range(n))


def _digit(r):
    return str(r.randint(0, 9))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """name -> path of each seeded input file.

    2^14 uniform ints, ints of either sign, two-decimal floats and {0..9}
    digits, 2^13 digits twice, the ints behind a UTF-8 byte-order mark, and
    eight small ints.  The digits' sum is odd, so every init ends at |d| = 1
    and the certificate's gap pass walks all ten value groups; the doubled
    digits end at d = 0, which the certificate passes at once.
    """
    texts = {
        "big": _draws(lambda r: str(r.randint(1, 10**9))),
        "signed": _draws(lambda r: str(r.randint(-10**9, 10**9))),
        "floats": _draws(lambda r: f"{r.randint(1, 10**6) / 100:.2f}"),
        "digits": _draws(_digit),
        "twice": " ".join([_draws(_digit, 1 << 13)] * 2),
    }
    texts["bom"] = "\ufeff" + texts["big"]
    texts["eight"] = "15 20 1 26 8 21 6 18"
    root = tmp_path_factory.mktemp("console")
    paths = {name: root / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text + "\n", encoding="utf-8")
    return paths


def _solves(command, inputs):
    """A verified run of command on each input file under each init, seed 1."""
    return [([command, "--verify", "--init", init, "--seed", "1", "--input", f"{{{name}}}"],
             None, 0, [PASS])
            for name in inputs for init in INITS]


# (argv, stdin, exit code, checks); "{name}" in argv is the path of that input
ROWS = [
    (["solve", "--verify"], "1 2 3 8", 0, [PASS]),
    # a pinned cardinality: verified, and the oracle's optimum at the same k
    (["solve", "--cardinality", "2", "--verify", "--oracle"], "1 2 3 4 5", 0,
     [PASS, ("out", "line", "exact_min: 1 (globally optimal)")]),
    (["oracle", "--format", "json"], "5 5", 0,
     [("out", "line", '{"exact_min": 0, "local_optima": [0], "num_partitions_enumerated": 1}')]),
    (["verify", "--format", "json"], "1 2 3 8", 0, [("out", "has", '"verified": true')]),
    (["solve-traditional", "--verify", "--format", "json"], "1 2 3", 0,
     [("out", "has", '"verified": true')]),
    (["solve", "--input", "{eight}", "--format", "json"], None, 0, [("out", "has", '"objective"')]),
    # an int has no size limit: 2^62 and 1 solve exactly
    (["solve"], "4611686018427387904 1", 0,
     [("out", "line", "objective: 4611686018427387903"), ("err", "is", "")]),
    # each init's last sweep rejects most cursors by their gap
    *_solves("solve", ["big"]),
    # split init's counters as the element-by-element partner scan counted them
    (["solve", "--init", "split", "--stats", "--input", "{big}"], None, 0,
     [("out", "match", "stats: traverses=1 swaps=4114 sign_changes=0 "
                       "candidate_evaluations=20498 wall_time_ns=[0-9]+")]),
    # counters of sweeps that take runs of O(1) accepts in bulk, as the
    # visits one at a time counted them: with side 1 the smallest value
    # alone, each cursor swaps with the one before it; the padded negative
    # inputs are distinct partners for the zeros
    (["solve", "--init", "split", "--cardinality", "1", "--stats", "--input", "{big}"], None, 0,
     [("out", "match", "stats: traverses=1 swaps=16383 sign_changes=0 "
                       "candidate_evaluations=16384 wall_time_ns=[0-9]+")]),
    (["solve-traditional", "--init", "split", "--stats", "--input", "{signed}"], None, 0,
     [("out", "match", "stats: traverses=1 swaps=7956 sign_changes=0 "
                       "candidate_evaluations=24915 wall_time_ns=[0-9]+")]),
    # the dummy zeros are every partner of the split start, one tie group,
    # which no run crosses
    (["solve-traditional", "--init", "split", "--stats", "--input", "{big}"], None, 0,
     [("out", "match", "stats: traverses=2 swaps=11593 sign_changes=1 "
                       "candidate_evaluations=77130 wall_time_ns=[0-9]+")]),
    # the descent and the certificate on exact scaled ints
    *_solves("solve", ["floats"]),
    (["solve-traditional", "--verify", "--input", "{floats}"], None, 0, [PASS]),
    # solve-traditional pads N dummy zeros, one value group, which the sweep
    # jumps; the digits are ten more groups of about 1600
    *_solves("solve-traditional", ["big", "digits"]),
    *_solves("solve", ["digits", "twice"]),
    # a leading UTF-8 byte-order mark is dropped
    (["solve", "--verify", "--input", "{bom}"], None, 0, [PASS]),
]

CHECKS = {
    "line": lambda text, stream: text in stream.splitlines(),
    "has": lambda text, stream: text in stream,
    "match": lambda pattern, stream: any(re.fullmatch(pattern, line)
                                         for line in stream.splitlines()),
    "is": lambda text, stream: stream == text,
}


@pytest.mark.parametrize("argv, stdin_text, code, checks", ROWS,
                         ids=[" ".join(row[0]) for row in ROWS])
def test_console_row(capsys, monkeypatch, paths, argv, stdin_text, code, checks):
    argv = [arg.format(**paths) for arg in argv]
    got, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    streams = {"out": out, "err": err}
    assert got == code, err
    for stream, kind, text in checks:
        assert CHECKS[kind](text, streams[stream]), (stream, kind, text, streams[stream][-400:])


def test_bench_out_reports_a_float_slope(capsys, tmp_path):
    path = tmp_path / "bench.json"
    code, _, err = run_cli(capsys, ["bench", "--sizes", "16,32,64,128", "--reps", "1",
                                    "--format", "json", "--out", str(path)])
    assert (code, err) == (0, "")
    assert isinstance(json.loads(path.read_text())["slope"], float)


def test_stdout_closed_after_one_byte_exits_1_without_a_traceback(paths):
    # the reader takes one byte of a 2^14-value answer, more than a pipe
    # holds, and closes: the child's next write fails
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with subprocess.Popen([sys.executable, "-m", "eqpart.cli", "solve",
                           "--input", str(paths["big"])],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.read(1)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert b"Traceback" not in err
