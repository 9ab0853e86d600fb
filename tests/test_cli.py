"""Tests for input parsing and the command-line surface."""

import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from eqpart.cli import InputFormatError, main, parse_input
from eqpart.core import SUM_GUARD, Instance, Mode


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
    with pytest.raises(InputFormatError, match="guard"):
        parse_input(str(1 << 63).encode(), Mode.EXACT_INT)


def test_parse_negative_and_signed():
    assert parse_input(b"-3 +4").values == (-3, 4)


_INT_TOKEN = re.compile(r"[+-]?\d+")
_FLOAT_TOKEN = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def reference_parse_input(data: bytes, mode: Mode | None = None) -> Instance:
    """The per-line tokenizer parse_input replaced, kept as the reference."""
    try:
        text = data.decode("utf-8")
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
                    f"line {ln}, column {col}: {tok!r} is not an integer"
                )
            v = int(tok)
            if abs(v) >= SUM_GUARD:
                raise InputFormatError(
                    f"line {ln}, column {col}: {tok!r} exceeds the 2^62 integer guard"
                )
        else:
            if not _FLOAT_TOKEN.fullmatch(tok):
                raise InputFormatError(f"line {ln}, column {col}: {tok!r} is not a number")
            v = float(tok)
            if not math.isfinite(v):
                raise InputFormatError(f"line {ln}, column {col}: {tok!r} is not finite")
        values.append(v)
    return Instance(tuple(values), mode)


def _parse_outcome(parse, data, mode):
    try:
        inst = parse(data, mode)
    except Exception as exc:
        return type(exc), str(exc)
    return inst.mode, [(type(v), repr(v)) for v in inst.values]


_GUARD_EDGES = [str(v) for v in (SUM_GUARD - 1, -(SUM_GUARD - 1), SUM_GUARD, -SUM_GUARD)]
_PARSE_PIECES = st.sampled_from([
    "0", "7", "-3", "+4", "-0", "1_0", "2.5", ".5", "5.", "-0.0", "1e3", "2E-2", "1e+5",
    "1e999", "-1e999", "1e-400", "inf", "nan", "x", "+", "-", ".", "e", "\u0663", "\uff15",
    "\u0661\u0662", "\u0663.\u0665", "\u00b2", *_GUARD_EDGES, "9" * 25, "8" * 4301,
    " ", "  ", "\t", ",", ", ", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", "\xa0",
    "\n# a comment, 1.5 x\n", "\n   # indented comment\n", "#", " #7 ",
])
_BAD_UTF8 = st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xe2\x80", b"\x80"])


@given(st.lists(_PARSE_PIECES, max_size=14), _BAD_UTF8, st.integers(0, 14),
       st.sampled_from([None, Mode.EXACT_INT, Mode.FLOAT64]))
@settings(max_examples=400, deadline=None)
def test_parse_matches_line_scan_reference(pieces, bad, at, mode):
    # values (with their types), mode, or exception type and message all agree
    data = "".join(pieces).encode()
    data = data[:at] + bad + data[at:]
    assert _parse_outcome(parse_input, data, mode) == _parse_outcome(
        reference_parse_input, data, mode
    )


# ----------------------------------------------------------------- CLI runs


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys

        buf = io.BytesIO(stdin_text.encode())
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": buf})())
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


@pytest.mark.parametrize(
    "argv, stdin_text, message",
    [(["solve"], "1e308 1e308 1e308 1e308",
      "error: sum of |values| = inf is too large for float mode (4 * sum must be finite)"),
     (["bench", "--family", "geometric", "--p1", "1e6", "--sizes", "16,32,64,128"], None,
      "error: largest geometric term 1e+06 * 1e+06^63 is not a finite float")],
)
def test_float_range_exit_2(capsys, monkeypatch, argv, stdin_text, message):
    # both ended in an OverflowError traceback
    code, out, err = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert code == 2
    assert out == "" and err == message + "\n"


def test_solve_odd_n_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve"], "1 2 3", monkeypatch)
    assert code == 2
    assert "even N" in err


def test_solve_malformed_exit_1(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve", "--mode", "int"], "1.5 2", monkeypatch)
    assert code == 1
    assert "line 1" in err


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
    # 2^17 values: an all-pairs check would take about 20 minutes, the merge well under a second
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


def test_verify_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify"], "4 4 4 4", monkeypatch)
    assert code == 0
    assert "verified: PASS" in out


def test_oracle_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["oracle"], "# c\n5\n5\n", monkeypatch)
    assert code == 0
    assert "exact_min: 0" in out
    assert "partitions_enumerated: 1" in out


def test_oracle_cap_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["oracle"], " ".join(str(i) for i in range(26)), monkeypatch
    )
    assert code == 2
    assert "cap" in err


def test_random_init_needs_seed(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["solve", "--init", "random"], "1 2 3 4", monkeypatch)
    assert code == 2
    assert "seed" in err


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


def test_bench_split_init_aborts_exit_3(capsys, work_bound_breach):
    code, _, err = run_cli(
        capsys,
        ["bench", "--sizes", "64,128,256,512", "--reps", "1", "--seed", "0",
         "--init", "split"],
    )
    assert code == 3
    assert "seed" in err


@pytest.mark.parametrize(
    "family, p1, p2, message",
    [("uniform-int", "10", "1", "error: empty range [10, 1]"),
     ("uniform-float", "10", "1", "error: empty range [10, 1]"),
     ("uniform-float", "0.5", "0.25", "error: empty range [0.5, 0.25]"),
     ("near-equal", "100", "-1", "error: epsilon must be non-negative"),
     ("geometric", "-2", "1", "error: ratio and scale must be positive"),
     ("uniform-int", "1", "inf", "error: p2 must be finite, got inf"),
     ("uniform-int", "-inf", "10", "error: p1 must be finite, got -inf")],
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
