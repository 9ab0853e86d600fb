"""Tests for input parsing and the command-line surface."""

import errno
import importlib
import itertools
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eqpart
from eqpart import cli, core
from eqpart.cli import InputFormatError, main, parse_input
from eqpart.core import Instance, InternalConsistencyError, Mode, PartitionError
import ab_output
from conftest import run_cli


# ------------------------------------------------------------------- parsing


def test_parse_mixed_separators():
    inst = parse_input(b"1 2\n3, 8\n")
    assert inst.values == (1, 2, 3, 8)
    assert inst.mode is Mode.EXACT_INT


def test_parse_comment_lines():
    inst = parse_input(b"# a comment\n5\n5\n")
    assert inst.values == (5, 5)


def test_parse_auto_float_mode():
    inst = parse_input(b"1.5 2")
    assert inst.mode is Mode.FLOAT64
    assert inst.values == (1.5, 2.0)
    inst = parse_input(b"1e3 2")
    assert inst.values == (1000.0, 2.0)


def test_parse_int_mode_rejects_fraction():
    with pytest.raises(InputFormatError, match="line 1, column 1"):
        parse_input(b"1.5", Mode.EXACT_INT)
    with pytest.raises(InputFormatError, match="line 2, column 3"):
        parse_input(b"1 2\n3 4e2 5", Mode.EXACT_INT)


def test_parse_rejects_garbage_with_position():
    with pytest.raises(InputFormatError, match="line 2, column 4"):
        parse_input(b"1 2\n3, x8\n")


def test_parse_empty_input():
    with pytest.raises(InputFormatError, match="empty"):
        parse_input(b"# only a comment\n   \n")


def test_parse_integer_overflow():
    # an int has no size limit short of int()'s 4300 digits
    assert parse_input(str(1 << 63).encode(), Mode.EXACT_INT).values == (1 << 63,)


@pytest.mark.parametrize(
    "token, message",
    [("9" * 5000, "integer token of 5000 characters is too long"),
     ("-" + "0" * 5000 + "9" * 20, "integer token of 5021 characters is too long"),
     ("7" * 4301, "integer token of 4301 characters is too long"),
     ("0" * 5000 + "1", "integer token of 5001 characters is too long"),
     ("8" * 5000 + ".5", "'8888888888888888888888888888888888888888'... (5002 characters) "
                         "is not finite"),
     ("1" * 5000 + "x", "'1111111111111111111111111111111111111111'... (5001 characters) "
                        "is not a number")],
)
def test_parse_integer_past_int_digit_limit(capsys, monkeypatch, token, message):
    # int() refuses more than 4300 digits, leading zeros included; the
    # positioned error still names the token, cut to its first 40
    # characters and its length, and the CLI exits 1
    with pytest.raises(InputFormatError, match="line 2, column 3: "):
        parse_input(f"1 2\n3 {token} 4\n".encode())
    code, out, err = run_cli(capsys, ["solve"], f"1 {token}", monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, column 3: ") and err.endswith(message + "\n")
    assert len(err) < 160  # the 5000-character token is not echoed whole


def test_parse_negative_and_signed():
    assert parse_input(b"-3 +4").values == (-3, 4)


_INT_TOKEN = re.compile(r"[+-]?\d+")
_FLOAT_TOKEN = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


def _echo(tok):
    """A token as error messages show it: quoted, and past 40 characters
    cut to its first 40 and followed by its length."""
    return repr(tok) if len(tok) <= 40 else f"{tok[:40]!r}... ({len(tok)} characters)"


def reference_parse_input(data: bytes, mode: Mode | None = None) -> Instance:
    """The per-line tokenizer parse_input replaced, kept as the reference."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not valid UTF-8: {exc}") from exc
    tokens = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        for m in re.finditer(r"[^\s,]+", line):
            tokens.append((m.group(), ln, m.start() + 1))
    if not tokens:
        raise InputFormatError("empty input: no numbers found")
    if mode is None:
        all_int = all(_INT_TOKEN.fullmatch(tok) for tok, _, _ in tokens)
        mode = Mode.EXACT_INT if all_int else Mode.FLOAT64
    values = []
    for tok, ln, col in tokens:
        if mode is Mode.EXACT_INT:
            if not _INT_TOKEN.fullmatch(tok):
                raise InputFormatError(
                    f"line {ln}, column {col}: {_echo(tok)} is not an integer"
                )
            try:
                v = int(tok)
            except ValueError:  # past int()'s digit limit, leading zeros included
                raise InputFormatError(
                    f"line {ln}, column {col}: integer token of {len(tok)} characters "
                    "is too long"
                ) from None
        else:
            if not _FLOAT_TOKEN.fullmatch(tok):
                raise InputFormatError(f"line {ln}, column {col}: {_echo(tok)} is not a number")
            v = float(tok)
            if not math.isfinite(v):
                raise InputFormatError(f"line {ln}, column {col}: {_echo(tok)} is not finite")
        values.append(v)
    return Instance(tuple(values), mode)


def _parse_outcome(parse, data, mode):
    try:
        inst = parse(data, mode)
    except Exception as exc:
        return type(exc), str(exc)
    return inst.mode, [(type(v), repr(v)) for v in inst.values]


_WIDE_INTS = [str(v) for v in ((1 << 62) - 1, -(1 << 62) + 1, 1 << 62, -1 << 62)]
_PARSE_PIECES = st.sampled_from([
    "0", "7", "-3", "+4", "-0", "1_0", "2.5", ".5", "5.", "-0.0", "1e3", "2E-2", "1e+5",
    "1e999", "-1e999", "1e-400", "inf", "nan", "x", "+", "-", ".", "e", "\u0663", "\uff15",
    "\u0661\u0662", "\u0663.\u0665", "\u00b2", *_WIDE_INTS, "9" * 25, "8" * 4301, "0" * 4301 + "8",
    " ", "  ", "\t", ",", ", ", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", "\xa0",
    "\n# a comment, 1.5 x\n", "\n   # indented comment\n", "#", " #7 ",
])
# invalid UTF-8, and a byte-order mark: dropped at the start, a bad token after
_SPLICED_BYTES = st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xe2\x80", b"\x80",
                                  b"\xef\xbb\xbf"])


@given(st.lists(_PARSE_PIECES, max_size=14), _SPLICED_BYTES, st.integers(0, 14),
       st.sampled_from([None, Mode.EXACT_INT, Mode.FLOAT64]))
@settings(max_examples=400, deadline=None)
def test_parse_matches_line_scan_reference(pieces, bad, at, mode):
    # values (with their types), mode, or exception type and message all agree
    data = "".join(pieces).encode()
    data = data[:at] + bad + data[at:]
    assert _parse_outcome(parse_input, data, mode) == _parse_outcome(
        reference_parse_input, data, mode
    )


# parse_input's bytes path takes input of these bytes alone, outside float
# mode, and reads what json.loads accepts of it; the rest (leading zeros, a
# misplaced '-', 4301 digits) and its neighbours, which the text path splits
# on or refuses, go there
_GATE_PIECES = st.sampled_from([
    b"0", b"7", b"42", b"007", b"000", b"1000000000", b"9" * 4300, b"0" * 4299 + b"5",
    b"9" * 4301, b"0" * 4300 + b"5", b" ", b"  ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b",
    b"\x0c", b",", b", ", b",,", b"-", b"-0", b"--1",
])
_GATE_NEIGHBOURS = st.sampled_from([
    b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x85", "\x85".encode(), b"\xa0", "\xa0".encode(),
    "\u3000".encode(), b"\xef\xbb\xbf", b"#", b"+", b"_", "\u0663".encode(),
])


@given(st.lists(_GATE_PIECES, max_size=14),
       st.lists(st.tuples(st.integers(0, 14), _GATE_NEIGHBOURS), max_size=2),
       st.sampled_from([None, Mode.EXACT_INT, Mode.FLOAT64]))
@example(pieces=[], neighbours=[], mode=None)
@example(pieces=[b" \t\r\n\x0b\x0c,"], neighbours=[], mode=Mode.EXACT_INT)
@example(pieces=[b" \n\t\r\n  "], neighbours=[], mode=None)
@example(pieces=[b"7", b"\n", b"9" * 4301], neighbours=[], mode=None)
@example(pieces=[b"7", b"\n", b"-", b"9" * 4301], neighbours=[], mode=None)
@example(pieces=[b"7", b"\n", b"8"], neighbours=[(1, b"\x1c")], mode=None)
@example(pieces=[b"1", b"0"], neighbours=[(1, b"_")], mode=None)  # int() takes 1_0
@example(pieces=[b"5", b"\n", b"-12", b"\n", b"0", b"\n"], neighbours=[], mode=None)
@example(pieces=[b"5", b"\r\n", b"12", b"\r\n", b"-3", b"\r\n"], neighbours=[], mode=None)
@example(pieces=[b"\n", b"5", b"\n", b"\n", b"12", b"\n\n"], neighbours=[], mode=None)
@example(pieces=[b"5", b", ", b"12", b", ", b"-3"], neighbours=[], mode=Mode.EXACT_INT)
@example(pieces=[b"007", b"\n", b"12", b"\n"], neighbours=[], mode=None)
@settings(max_examples=400, deadline=None)
def test_parse_bytes_path_matches_line_scan_reference(pieces, neighbours, mode):
    # values (with their types), mode, or exception type and message all agree
    for at, piece in neighbours:
        pieces.insert(at, piece)
    data = b"".join(pieces)
    assert _parse_outcome(parse_input, data, mode) == _parse_outcome(
        reference_parse_input, data, mode
    )


_OLD_FLOAT_TOKEN = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def test_float_token_pattern_accepts_what_the_old_one_did():
    # the old pattern could split one digit run between \d+ and \d*, so a
    # failed match took quadratic time; the rewrite must accept exactly the
    # same tokens: every string of up to 6 characters over digits (ASCII
    # and not), the other characters of a float token, and two others
    alphabet = "09.eE+-x\u0663_"
    strings = ["".join(p) for k in range(7) for p in itertools.product(alphabet, repeat=k)]
    accepted = set(filter(_OLD_FLOAT_TOKEN.fullmatch, strings))
    assert len(accepted) == 13554
    assert set(filter(cli._FLOAT_TOKEN.fullmatch, strings)) == accepted


def test_long_bad_float_token_fails_fast():
    # a 10^5-digit run that ends in a character no number holds: exit 1,
    # well inside the timeout (the old pattern took minutes on it)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "eqpart.cli", "solve"],
                          input="1.5 " + "1" * 10**5 + "x\n", env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: line 1, column 5: '1111111111111111111111111111111111111111'"
                           "... (100001 characters) is not a number\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_1_with_one_line(fmt):
    # the reader of the child's stdout is closed before the child gets its
    # input, so its first write fails: exit 1 and one error line, no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "eqpart.cli", "solve", "--format", fmt],
                                stdin=subprocess.PIPE, stdout=write_end, stderr=subprocess.PIPE,
                                env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(b"1 2 3 8\n", timeout=30)
    assert proc.returncode == 1
    assert err.decode().splitlines() == ["error: cannot write stdout: Broken pipe"]


# ----------------------------------------------------------------- CLI runs


def test_solve_text_output(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["solve", "--verify", "--oracle", "--stats"], "1 2 3 8", monkeypatch
    )
    assert code == 0
    assert "objective: 4" in out
    assert "verified: PASS" in out
    assert "exact_min: 4 (globally optimal)" in out
    assert "traverses=" in out


def test_verify_is_exact_past_2_53(capsys, monkeypatch):
    # the first value is 2^60 + 65: a float |d| - 0.0 threshold read an
    # equal-|d| swap as an improvement and printed FAIL, exit 3
    code, out, _ = run_cli(capsys, ["solve", "--verify", "--oracle"],
                           "1152921504606847041 4 15 5 35 27 3 36 7 14", monkeypatch)
    assert code == 0
    assert "verified: PASS" in out
    assert "exact_min: 1152921504606846933 (globally optimal)" in out


_TOP = str((1 << 62) - 1)


@pytest.mark.parametrize(
    "argv, stdin_text, message",
    [(["solve"], "1e308 1e308 1e308 1e308",
      "error: sum of |values| = inf is too large for float mode (4 * sum must be finite)"),
     (["bench", "--family", "geometric", "--p1", "1e6", "--sizes", "16,32,64,128"], None,
      "error: largest geometric term 1e+06 * 1e+06^63 is not a finite float")],
)
def test_float_range_exit_2(capsys, monkeypatch, argv, stdin_text, message):
    # the float cases ended in an OverflowError traceback; a sum past the
    # float range is no one token's fault, so it is Instance's own message
    code, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert code == 2
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize(
    "argv, stdin_text, code, message",
    [*[pytest.param([cmd, "--verify"], f"{_TOP} {_TOP}", 0, "", id=cmd)
       for cmd in ("solve", "verify", "solve-traditional")],
     # the oracle refuses the odd N, not the sum
     pytest.param(["oracle"], f"{_TOP} {_TOP} 1", 2,
                  "error: equal-cardinality solving needs even N >= 2, got N=3\n", id="oracle")],
)
def test_int_sum_past_2_62_is_no_error(capsys, monkeypatch, argv, stdin_text, code, message):
    got, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert (got, err) == (code, message)
    if code == 0:
        assert out.splitlines()[0] == "objective: 0" and "verified: PASS" in out.splitlines()


_NINES = "9" * 4300  # the longest token int() converts


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_objective_past_int_str_limit_prints_exactly(capsys, monkeypatch, command, fmt):
    # |(-x) - x| has 4301 digits, one past the limit of str(int); the render
    # lifts the limit and restores it, so parsing keeps it
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, [command, "--format", fmt], f"-{_NINES} {_NINES}",
                             monkeypatch)
    assert (code, err) == (0, "")
    key = "objective" if command == "solve" else "exact_min"
    first = f'{{"{key}": ' if fmt == "json" else f"{key}: "
    assert out.startswith(first + "1" + "9" * 4299 + "8" + (", " if fmt == "json" else "\n"))
    assert sys.get_int_max_str_digits() == limit


def test_solve_odd_n_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve"], "1 2 3", monkeypatch)
    assert code == 2
    assert "even N" in err


def test_solve_malformed_exit_1(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve", "--mode", "int"], "1.5 2", monkeypatch)
    assert code == 1
    assert "line 1" in err
    # a byte-order mark is dropped only at the start of the input
    code, out, err = run_cli(capsys, ["solve"], "1 \ufeff2 3 8", monkeypatch)
    assert (code, out) == (1, "")
    assert err == "error: line 1, column 3: '\\ufeff2' is not a number\n"


def test_solve_traditional(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["solve-traditional", "--verify"], "1 2 3", monkeypatch)
    assert code == 0
    assert "objective: 0" in out
    assert "verified: PASS" in out


def test_solve_traditional_float_oracle(capsys, monkeypatch):
    # the brute force rounded 2*s1 - total and printed 0.10000000000000003
    # next to "locally optimal only", below the answer it had just checked
    code, out, _ = run_cli(capsys, ["solve-traditional", "--oracle"], "0.1 0.2", monkeypatch)
    assert code == 0
    assert "objective: 0.1\n" in out
    assert "exact_min: 0.1 (globally optimal)" in out


def test_json_schema_and_round_trip(capsys, monkeypatch):
    values = [5, 9, 1, 14, 20, 3]
    code, out, _ = run_cli(
        capsys,
        ["solve", "--format", "json", "--verify", "--oracle"],
        " ".join(map(str, values)),
        monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"objective", "set1", "set2", "metrics", "verified", "exact_min"}
    assert payload["verified"] is True
    # the emitted sets partition the input multiset and re-sum to the objective
    assert Counter(payload["set1"]) + Counter(payload["set2"]) == Counter(values)
    assert abs(sum(payload["set1"]) - sum(payload["set2"])) == payload["objective"]
    assert payload["objective"] >= payload["exact_min"]
    assert set(payload["metrics"]) == {
        "traverses", "swaps", "sign_changes", "candidate_evaluations", "wall_time_ns",
    }


def test_verify_is_linear_at_large_n(capsys, monkeypatch):
    # 2^17 values: an all-pairs check would take about 20 minutes, the gap pass well under
    # a second
    rng = random.Random(17)
    values = [rng.randint(-10**9, 10**9) for _ in range(1 << 17)]
    code, out, _ = run_cli(
        capsys, ["solve", "--verify", "--format", "json"], " ".join(map(str, values)), monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert Counter(payload["set1"]) + Counter(payload["set2"]) == Counter(values)


def test_json_solve_traditional(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["solve-traditional", "--format", "json"], "1 2 3", monkeypatch
    )
    payload = json.loads(out)
    assert payload["objective"] == 0
    assert sorted(payload["set1"] + payload["set2"]) == [1, 2, 3]


def test_cardinality_flag(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["solve", "--cardinality", "1", "--init", "greedy", "--format", "json"],
        "1 2 3 4",
        monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["set1"]) == 1
    assert payload["objective"] == 2


@pytest.mark.parametrize(
    "command, values, k, objective, exact_min",
    [("solve", "1 2 3 4 100 7", 1, 83, 83),
     ("solve", "1 2 3 4", 1, 2, 2),
     ("solve", "1 2 3 4 10", 2, 6, 2),
     ("verify", "1 2 3 4 10", 2, 6, 2)],
)
def test_cardinality_oracle_is_the_pinned_optimum(capsys, monkeypatch, command, values, k,
                                                  objective, exact_min):
    code, out, _ = run_cli(
        capsys, [command, "--cardinality", str(k), "--oracle", "--format", "json"],
        values, monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["set1"]) == k
    assert (payload["objective"], payload["exact_min"]) == (objective, exact_min)
    code, out, _ = run_cli(capsys, [command, "--cardinality", str(k), "--oracle"],
                           values, monkeypatch)
    status = "globally optimal" if objective == exact_min else "locally optimal only"
    assert code == 0 and f"exact_min: {exact_min} ({status})" in out


def test_cardinality_out_of_range_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve", "--cardinality", "9"], "1 2 3 4", monkeypatch)
    assert code == 2


@pytest.mark.parametrize("argv", [["solve", "--cardinality", "1"],
                                  ["solve", "--cardinality", "0"],
                                  ["solve", "--cardinality", "2"],
                                  ["solve", "--oracle", "--cardinality", "1"],
                                  ["verify", "--cardinality", "1"]], ids=" ".join)
def test_cardinality_on_a_single_value_names_n(capsys, monkeypatch, argv):
    # the message used to name the empty range "1..0"
    code, out, err = run_cli(capsys, argv, "1", monkeypatch)
    k = argv[-1]
    assert (code, out) == (2, "")
    assert err == (f"error: cannot pin cardinality {k} at N=1: "
                   "one value cannot fill two nonempty sides\n")


def test_single_value_without_cardinality_keeps_its_message(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve"], "1", monkeypatch)
    assert (code, err) == (2, "error: equal-cardinality solving needs even N >= 2, got N=1\n")


def test_verify_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify"], "4 4 4 4", monkeypatch)
    assert code == 0
    assert "verified: PASS" in out


def test_oracle_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["oracle"], "# c\n5\n5\n", monkeypatch)
    assert code == 0
    assert "exact_min: 0" in out
    assert "partitions_enumerated: 1" in out


def test_traditional_oracle_cap_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["solve-traditional", "--oracle"],
                             "\n".join(map(str, range(1, 26))), monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: N=25 exceeds the enumeration cap of 24\n"


@pytest.mark.parametrize("argv, n, message", [
    (["solve", "--oracle"], 26,
     "N=26 exceeds the enumeration cap of 24 (C(26,13)/2 bipartitions is too many)"),
    (["solve-traditional", "--oracle"], 25, "N=25 exceeds the enumeration cap of 24"),
    (["oracle"], 26,
     "N=26 exceeds the enumeration cap of 24 (C(26,13)/2 bipartitions is too many)"),
], ids=["solve", "solve-traditional", "oracle"])
def test_oracle_cap_refuses_before_the_solve(capsys, monkeypatch, argv, n, message):
    from eqpart import reductions

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the oracle's cap was checked")

    monkeypatch.setattr(cli, "solve", unreachable)
    monkeypatch.setattr(reductions, "solve_traditional", unreachable)
    code, out, err = run_cli(capsys, argv, " ".join(map(str, range(1, n + 1))), monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["solve", "verify", "solve-traditional"])
def test_render_runs_after_the_solve_is_freed(capsys, monkeypatch, command, fmt):
    # the render reads the value lists, metrics and verdict alone: the
    # report, and solve_traditional's result, are freed before it runs
    from eqpart import reductions
    refs = []

    def keep(solver):
        def solve_and_keep(*args, **kwargs):
            out = solver(*args, **kwargs)
            refs.append(weakref.ref(out))
            if isinstance(out, reductions.TraditionalResult):
                refs.append(weakref.ref(out.extended_report))
            return out
        return solve_and_keep

    monkeypatch.setattr(cli, "solve", keep(cli.solve))
    monkeypatch.setattr(reductions, "solve_traditional", keep(reductions.solve_traditional))
    print_unlimited, alive = cli._print_unlimited, []

    def checked(render):
        def render_after_check():
            alive.extend(ref() is not None for ref in refs)
            return render()
        print_unlimited(render_after_check)

    monkeypatch.setattr(cli, "_print_unlimited", checked)
    code, out, err = run_cli(capsys, [command, "--format", fmt], "1 2 3 8", monkeypatch)
    assert (code, err) == (0, "") and out
    assert alive == [False] * (2 if command == "solve-traditional" else 1)


@pytest.mark.parametrize("argv, stdin_text", [
    (["solve"], "1 2 3 8"),
    (["verify", "--init", "random", "--seed", "5"], " ".join(map(str, range(-20, 40, 3)))),
    (["solve", "--cardinality", "3", "--oracle", "--stats"], "4 -1 7 0 3 3 12"),
    (["solve", "--init", "greedy"], "0.5 2.25 1e3 7 1.5 9"),
], ids=["solve", "verify", "pinned", "float"])
def test_json_solve_never_derives_index_sides(capsys, monkeypatch, argv, stdin_text):
    # JSON prints values alone, from the report's membership: a derivation
    # of the index sides that raises changes neither the exit nor the bytes
    argv = [*argv, "--format", "json"]
    want = run_cli(capsys, argv, stdin_text, monkeypatch)

    def derive(*args):
        raise AssertionError("index sides derived")

    # cli's own name only: --oracle reaches core's through pairswap_witness
    monkeypatch.setattr(cli, "side_indices", derive)
    monkeypatch.setattr(core.SolveReport, "original_set1", property(derive))
    monkeypatch.setattr(core.SolveReport, "original_set2", property(derive))
    got = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert got[0] == 0 and got[2] == ""
    assert _mask_wall_time(got[1]) == _mask_wall_time(want[1])
    with pytest.raises(AssertionError, match="index sides derived"):
        run_cli(capsys, [*argv[:-2], "--format", "text"], stdin_text, monkeypatch)


def _mask_wall_time(text):
    """Wall times in text, JSON and CSV output replaced by #."""
    text = re.sub(r'(wall_time_ns"?(?:=|: ))[\d.]+', r"\1#", text)
    return re.sub(r"^((?:[^,\n]*,){6})\d+,", r"\1#,", text, flags=re.M)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_input_file_matches_stdin(capsys, monkeypatch, tmp_path, fmt):
    path = tmp_path / "in.txt"
    path.write_text(EXACT_INT)
    argv = ["solve", "--verify", "--format", fmt]
    from_file = run_cli(capsys, [*argv, "--input", str(path)])
    from_stdin = run_cli(capsys, argv, EXACT_INT, monkeypatch)
    assert from_file[0] == 0 and from_file[2] == ""
    assert _mask_wall_time(from_file[1]) == _mask_wall_time(from_stdin[1])
    # a leading UTF-8 byte-order mark, as some editors write, changes nothing
    path.write_bytes(b"\xef\xbb\xbf" + EXACT_INT.encode())
    with_bom = run_cli(capsys, [*argv, "--input", str(path)])
    assert (with_bom[0], with_bom[2]) == (0, "")
    assert _mask_wall_time(with_bom[1]) == _mask_wall_time(from_stdin[1])


def test_missing_input_file_exit_1_names_the_path_once(capsys, tmp_path):
    path = tmp_path / "absent.txt"
    code, out, err = run_cli(capsys, ["solve", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {path}: {os.strerror(errno.ENOENT)}\n"


# Exact bytes of every non-bench subcommand in both formats, wall time masked.
# The int input's answer is a local optimum above the exact one (3 vs 1); the
# float input is the same instance in tenths.
EXACT_INT = "15 20 1 26 8 21 6 18"
EXACT_FLOAT = "1.5 2 0.1 2.6 0.8 2.1 0.6 1.8"
SOLVE_INT_TEXT = (
    "objective: 3\n"
    "set1: 15 20 6 18  (indices 0 1 6 7)\n"
    "set2: 1 26 8 21  (indices 2 3 4 5)\n"
    "verified: PASS\n"
    "exact_min: 1 (locally optimal only)\n"
    "stats: traverses=2 swaps=3 sign_changes=1 candidate_evaluations=12 wall_time_ns=#\n"
)
SOLVE_INT_JSON = (
    '{"objective": 3, "set1": [15, 20, 6, 18], "set2": [1, 26, 8, 21], "metrics": '
    '{"traverses": 2, "swaps": 3, "sign_changes": 1, "candidate_evaluations": 12, '
    '"wall_time_ns": #}, "verified": true, "exact_min": 1}\n'
)
SOLVE_FLOAT_TEXT = (
    "objective: 0.2999999999999998\n"
    "set1: 1.5 2.0 0.6 1.8  (indices 0 1 6 7)\n"
    "set2: 0.1 2.6 0.8 2.1  (indices 2 3 4 5)\n"
    "verified: PASS\n"
    "exact_min: 0.10000000000000006 (locally optimal only)\n"
    "stats: traverses=2 swaps=3 sign_changes=1 candidate_evaluations=12 wall_time_ns=#\n"
)
SOLVE_FLOAT_JSON = (
    '{"objective": 0.2999999999999998, "set1": [1.5, 2.0, 0.6, 1.8], '
    '"set2": [0.1, 2.6, 0.8, 2.1], "metrics": {"traverses": 2, "swaps": 3, '
    '"sign_changes": 1, "candidate_evaluations": 12, "wall_time_ns": #}, '
    '"verified": true, "exact_min": 0.10000000000000006}\n'
)
ALL_FLAGS = ["--verify", "--oracle", "--stats"]
EXACT_CASES = (
    [([cmd, *ALL_FLAGS, *fmt], text, expected)
     for cmd in ("solve", "verify")
     for fmt, text, expected in [([], EXACT_INT, SOLVE_INT_TEXT),
                                 (["--format", "json"], EXACT_INT, SOLVE_INT_JSON),
                                 ([], EXACT_FLOAT, SOLVE_FLOAT_TEXT),
                                 (["--format", "json"], EXACT_FLOAT, SOLVE_FLOAT_JSON)]]
    + [(["solve-traditional", *ALL_FLAGS], EXACT_INT,
        "objective: 3\n"
        "set1: 20 1 8 21 6  (indices 1 2 4 5 6)\n"
        "set2: 15 26 18  (indices 0 3 7)\n"
        "verified: PASS\n"
        "exact_min: 1 (locally optimal only)\n"
        "stats: traverses=1 swaps=2 sign_changes=0 candidate_evaluations=22 wall_time_ns=#\n"),
       (["solve-traditional", *ALL_FLAGS, "--format", "json"], EXACT_INT,
        '{"objective": 3, "set1": [20, 1, 8, 21, 6], "set2": [15, 26, 18], "metrics": '
        '{"traverses": 1, "swaps": 2, "sign_changes": 0, "candidate_evaluations": 22, '
        '"wall_time_ns": #}, "verified": true, "exact_min": 1}\n'),
       (["solve-traditional", *ALL_FLAGS], EXACT_FLOAT,
        "objective: 0.30000000000000004\n"
        "set1: 2.0 0.1 0.8 2.1 0.6  (indices 1 2 4 5 6)\n"
        "set2: 1.5 2.6 1.8  (indices 0 3 7)\n"
        "verified: PASS\n"
        "exact_min: 0.10000000000000006 (locally optimal only)\n"
        "stats: traverses=1 swaps=2 sign_changes=0 candidate_evaluations=22 wall_time_ns=#\n"),
       (["solve-traditional", *ALL_FLAGS, "--format", "json"], EXACT_FLOAT,
        '{"objective": 0.30000000000000004, "set1": [2.0, 0.1, 0.8, 2.1, 0.6], '
        '"set2": [1.5, 2.6, 1.8], "metrics": {"traverses": 1, "swaps": 2, "sign_changes": 0, '
        '"candidate_evaluations": 22, "wall_time_ns": #}, "verified": true, '
        '"exact_min": 0.10000000000000006}\n'),
       (["oracle"], EXACT_INT,
        "exact_min: 1\nlocal_optima: 1 3 5\npartitions_enumerated: 35\n"),
       (["oracle", "--format", "json"], EXACT_INT,
        '{"exact_min": 1, "local_optima": [1, 3, 5], "num_partitions_enumerated": 35}\n'),
       (["oracle"], EXACT_FLOAT,
        "exact_min: 0.10000000000000006\nlocal_optima: 0.10000000000000006 0.2999999999999998\n"
        "partitions_enumerated: 35\n"),
       (["oracle", "--format", "json"], EXACT_FLOAT,
        '{"exact_min": 0.10000000000000006, "local_optima": [0.10000000000000006, '
        '0.2999999999999998], "num_partitions_enumerated": 35}\n')]
)


@pytest.mark.parametrize(
    "argv, stdin_text, expected", EXACT_CASES,
    ids=[" ".join(argv) + (" int" if text == EXACT_INT else " float")
         for argv, text, _ in EXACT_CASES],
)
def test_exact_output_bytes(capsys, monkeypatch, argv, stdin_text, expected):
    code, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert (code, re.sub(r'(wall_time_ns"?(?:=|: ))\d+', r"\1#", out), err) == (0, expected, "")


# tests/ab_output.py --digest --slice; a change meant to change output
# changes it and says why in CHANGES.md
OUTPUT_SLICE_DIGEST = "3252633c9a6311435951d5e2cf0d4648c00157ed89d3038a6fd5851ba3876196"


def test_output_corpus_slice_is_pinned():
    # exit codes, stdout and stderr of 400 seeded runs of the output corpus
    # (every command, format, init and input shape, the error inputs), with
    # wall_time_ns masked, equal to what they were when the digest was taken
    runs = ab_output.tier1_slice(ab_output.corpus())
    assert len(runs) == 400
    assert ab_output.digest(runs, ab_output.results(runs)) == OUTPUT_SLICE_DIGEST


@pytest.mark.parametrize("argv", [["solve", "--verify"], ["verify"],
                                  ["solve-traditional", "--verify"]], ids=" ".join)
def test_failed_verification_exits_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "is_locally_optimal_pairswap", lambda state: False)
    code, out, _ = run_cli(capsys, argv, "1 2 3 8", monkeypatch)
    assert code == 3 and "\nverified: FAIL\n" in out
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"], "1 2 3 8", monkeypatch)
    assert code == 3 and json.loads(out)["verified"] is False


def test_random_init_needs_seed(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve", "--init", "random"], "1 2 3 4", monkeypatch)
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("command", ["solve", "verify", "solve-traditional"])
@pytest.mark.parametrize("stdin_text", ["4611686018427387903 4611686018427387903", "1 x"])
def test_flags_are_checked_before_the_input_is_read(capsys, monkeypatch, command, stdin_text):
    # the missing seed is named before the input is read, so also on input
    # that breaks a sum guard or does not parse
    code, out, err = run_cli(capsys, [command, "--init", "random"], stdin_text, monkeypatch)
    assert (code, out, err) == (2, "", "error: RANDOM initialization requires a seed\n")


def test_bench_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, ["bench", "--sizes", "16,32,64,128", "--reps", "2", "--seed", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,seed,traverses,swaps,candidate_evals,wall_time_ns,objective"
    assert len(lines) == 1 + 4 * 2


def test_bench_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bench", "--sizes", "16,32,64,128", "--reps", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["slope"] < 3
    assert len(payload["runs"]) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bench_out_writes_what_stdout_prints(capsys, tmp_path, fmt):
    path = tmp_path / f"bench.{fmt}"
    argv = ["bench", "--sizes", "16,32,64,128", "--reps", "1", "--format", fmt]
    code, out, err = run_cli(capsys, [*argv, "--out", str(path)])
    assert (code, err) == (0, "")
    assert re.fullmatch(rf"wrote {re.escape(str(path))} \(slope -?\d+\.\d{{3}}\)\n", out)
    _, printed, _ = run_cli(capsys, argv)
    assert _mask_wall_time(path.read_text()) == _mask_wall_time(printed)


def test_bench_out_into_a_missing_directory_exit_1(capsys, tmp_path):
    path = tmp_path / "missing" / "bench.csv"
    code, out, err = run_cli(capsys, ["bench", "--sizes", "16,32,64,128", "--reps", "1",
                                      "--out", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: {os.strerror(errno.ENOENT)}\n"


def test_bench_zero_reps_exit_2(capsys):
    code, out, err = run_cli(capsys, ["bench", "--sizes", "16,32,64,128", "--reps", "0"])
    assert (code, out, err) == (2, "", "error: repetitions must be positive\n")


@pytest.mark.parametrize("flag, value, token", [
    ("--sizes", "16,32,x,64", "'x'"),
    ("--sizes", "16," + "x" * 5000, f"{'x' * 40!r}... (5000 characters)"),  # cut
    ("--reps", "x", "'x'"),
], ids=["sizes", "sizes-long", "reps"])
def test_bench_bad_number_names_its_flag_exit_2(capsys, flag, value, token):
    # argparse rejects the token before any run, as it does every flag's bad value
    with pytest.raises(SystemExit) as exc:
        main(["bench", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == f"eqpart bench: error: argument {flag}: invalid int value: {token}"


def test_bench_default_geometric_run_makes_swaps(capsys):
    # the family's default ratio, 1.001, gives distinct terms; a ratio of 1
    # would give N copies of 10^6: one sweep, 0 swaps, objective 0
    code, out, _ = run_cli(
        capsys, ["bench", "--family", "geometric", "--sizes", "16,32,64,128", "--reps", "1"]
    )
    assert code == 0
    swaps = [int(line.split(",")[4]) for line in out.splitlines()[1:]]
    assert len(swaps) == 4 and min(swaps) > 0


def test_bench_split_init_aborts_exit_3(capsys, work_bound_breach):
    code, _, err = run_cli(
        capsys,
        ["bench", "--sizes", "64,128,256,512", "--reps", "1", "--seed", "0",
         "--init", "split"],
    )
    assert code == 3
    assert "seed" in err


def test_bench_guard_trip_exits_3_naming_the_seed(capsys, guard_trip):
    code, out, err = run_cli(
        capsys, ["bench", "--sizes", "16,32,64,128", "--reps", "1", "--seed", "4"],
    )
    assert code == 3 and out == ""
    assert err == ("internal error: nontermination guard tripped after 3 traverses "
                   "(family=uniform_int, n=16, seed=4)\n")


def test_nontermination_guard_exits_3(capsys, monkeypatch):
    # a guard trip is an internal error: exit 3, one stderr line, no output
    monkeypatch.setattr(core, "traverse_guard", lambda n: 1)
    code, out, err = run_cli(capsys, ["solve"], "15 20 1 26 8 21 6 18", monkeypatch)
    assert code == 3 and out == ""
    assert err == "internal error: nontermination guard tripped after 1 traverses\n"


def _error_classes():
    """PartitionError and every subclass any eqpart module defines, and ValueError."""
    for info in pkgutil.iter_modules(eqpart.__path__):
        importlib.import_module(f"eqpart.{info.name}")
    classes, todo = [], [PartitionError]
    while todo:
        classes.append(todo.pop())
        todo.extend(classes[-1].__subclasses__())
    return classes + [ValueError]


def test_error_classes_cover_every_module():
    names = {cls.__name__ for cls in _error_classes()}
    assert names >= {"PartitionError", "InputFormatError", "InvalidCardinalityError",
                     "OverflowGuardError", "InternalConsistencyError", "OracleCapError",
                     "ValueError"}


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_base_class(capsys, monkeypatch, error):
    def handler(args):
        raise error("the message")

    monkeypatch.setattr(cli, "_cmd_oracle", handler)
    code, out, err = run_cli(capsys, ["oracle"])
    if issubclass(error, InputFormatError):
        assert (code, err) == (1, "error: the message\n")
    elif issubclass(error, InternalConsistencyError):
        assert (code, err) == (3, "internal error: the message\n")
    else:
        assert (code, err) == (2, "error: the message\n")
    assert out == ""


def test_bench_huge_integer_family_message_is_short(capsys):
    # near-equal with integral 1e300 parameters draws 301-digit integers,
    # which the descent solves exactly; the fit's slope is a float
    code, out, err = run_cli(
        capsys, ["bench", "--family", "near-equal", "--p1", "1e300", "--p2", "1e300",
                 "--sizes", "16,32,64,128", "--reps", "1", "--format", "json"],
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert isinstance(report["slope"], float)
    assert all(type(run["objective"]) is int for run in report["runs"])


@pytest.mark.parametrize(
    "family, p1, p2, message",
    [("uniform-int", "10", "1", "error: empty range [10, 1]"),
     ("uniform-float", "10", "1", "error: empty range [10, 1]"),
     ("uniform-float", "0.5", "0.25", "error: empty range [0.5, 0.25]"),
     ("near-equal", "100", "-1", "error: epsilon must be non-negative"),
     ("geometric", "-2", "1", "error: ratio and scale must be positive"),
     ("uniform-int", "1", "inf", "error: p2 must be finite, got inf"),
     ("uniform-int", "-inf", "10", "error: p1 must be finite, got -inf"),
     ("uniform-int", "0.5", "3.7", "error: uniform_int bounds must be integers, got [0.5, 3.7]")],
)
def test_bench_rejects_empty_family_ranges_exit_2(capsys, family, p1, p2, message):
    # --p1=VALUE: argparse would read a separate "-inf" as an option
    code, out, err = run_cli(
        capsys, ["bench", "--family", family, f"--p1={p1}", f"--p2={p2}",
                 "--sizes", "16,32,64,128", "--reps", "1"],
    )
    assert code == 2
    assert out == "" and err == message + "\n"


def test_float_mode_flag(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["solve", "--mode", "float", "--format", "json"], "1 2 3 8", monkeypatch
    )
    payload = json.loads(out)
    assert payload["objective"] == pytest.approx(4.0)
    assert isinstance(payload["set1"][0], float)


# Float inputs that tripped the nontermination guard (exit 3) or printed
# "verified: FAIL" when float mode kept a rounded d and re-derived it with
# fsum each sweep; the descent now runs on exact ints for floats too.
GUARD_REPRO = "0.9 0.3 7 0.3 7 7 0.6 0.9 21 0.2 0.6 0.1"
VERIFY_REPRO = (
    "0.6000000000000001 0.1 1e-09 1e-09 0.8999999999999999 3.0000000000000004e-09 0.2 0.1 "
    "1e-09 1e-09 0.3 0.1 0.2 21.0 0.2 0.6000000000000001 3.0000000000000004e-09 "
    "0.30000000000000004 0.2 0.3 1e-09 7.0 0.8999999999999999 7.0 0.8999999999999999 0.2 "
    "0.2 0.2 1e-09 0.30000000000000004 3.0000000000000004e-09 0.1 1e-09 0.1 "
    "0.6000000000000001 0.1 3.0000000000000004e-09 0.2"
)


@pytest.mark.parametrize(
    "argv, stdin_text",
    [(["solve", "--verify", "--stats"], GUARD_REPRO),
     (["solve-traditional", "--verify", "--stats"], "0.1 0.2 0.2"),
     (["solve", "--verify", "--stats"], VERIFY_REPRO),
     (["solve", "--verify", "--oracle", "--cardinality", "2", "--stats"],
      "0.3 21.0 0.9 0.1 0.3 0.3 21.0 7.0 0.3")],
)
def test_float_repros_verify_within_n_plus_2_sweeps(capsys, monkeypatch, argv, stdin_text):
    code, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert (code, err) == (0, "")
    assert "verified: PASS" in out.splitlines()
    if "--oracle" in argv:
        assert "(globally optimal)" in out
    n = len(stdin_text.split()) * (2 if argv[0] == "solve-traditional" else 1)
    assert int(re.search(r"traverses=(\d+)", out).group(1)) <= n + 2


@pytest.mark.parametrize("init", ["alternating", "greedy"])
def test_two_decimal_prices_terminate(capsys, monkeypatch, init):
    # 2048 two-decimal prices: d alternated between two values one cent
    # apart until the 2N+4 float guard tripped after 4100 sweeps
    rng = random.Random(3)
    for _ in range(1 << 17):
        rng.random()
    prices = " ".join(repr(round(rng.uniform(0, 1000), 2)) for _ in range(2048))
    code, out, _ = run_cli(capsys, ["solve", "--seed", "1", "--init", init, "--format", "json",
                                    "--verify"], prices, monkeypatch)
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True
    assert payload["metrics"]["traverses"] <= 2048 + 2
