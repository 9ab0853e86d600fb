"""Tests for the generators and the scaling harness."""

import csv
import dataclasses
import hashlib
import io
import json

import pytest

from eqpart.bench import (
    CSV_HEADER,
    GeneratorSpec,
    RunRecord,
    ScalingReport,
    ScalingRow,
    export_report,
    generate,
    run_one,
    run_suite,
)
from eqpart.core import InitStrategy, InternalConsistencyError, Mode, SolverConfig

SMALL_SIZES = (16, 32, 64, 128)


def small_specs(seed=1):
    return [GeneratorSpec("uniform_int", n, seed, 1, 10**6) for n in SMALL_SIZES]


def test_generate_degenerate_range():
    inst = generate(GeneratorSpec("uniform_int", 6, 0, 1, 1))
    assert inst.values == (1, 1, 1, 1, 1, 1)
    assert inst.mode is Mode.EXACT_INT


def test_generate_near_equal_bounds():
    spec = GeneratorSpec("near_equal", 50, 3, 10**6, 1)
    inst = generate(spec)
    assert all(10**6 - 1 <= v <= 10**6 + 1 for v in inst.values)
    assert inst.mode is Mode.EXACT_INT


def test_generate_uniform_float():
    inst = generate(GeneratorSpec("uniform_float", 40, 9, 0.0, 1.0))
    assert inst.mode is Mode.FLOAT64
    assert all(0.0 <= v <= 1.0 for v in inst.values)


def test_generate_geometric():
    inst = generate(GeneratorSpec("geometric", 5, 0, 2, 3))
    assert inst.values == (3, 6, 12, 24, 48)
    big = generate(GeneratorSpec("geometric", 80, 0, 2, 1))
    assert big.mode is Mode.EXACT_INT  # terms past 2^62 stay exact
    assert big.values == tuple(1 << k for k in range(80))


def test_generate_determinism():
    spec = GeneratorSpec("uniform_int", 64, 42, 1, 10**9)
    assert generate(spec).values == generate(spec).values


def test_generate_near_equal_fractional_epsilon_draws_floats():
    inst = generate(GeneratorSpec("near_equal", 200, 5, 10**6, 0.5))
    assert inst.mode is Mode.FLOAT64
    assert all(10**6 - 0.5 <= v <= 10**6 + 0.5 for v in inst.values)
    assert len(set(inst.values)) > 1


# Every family with integral and fractional parameters.  The digest pins the
# drawn values and modes, so a rewrite of generate must keep every draw.
GENERATE_CASES = [
    ("uniform_int", 1, 10**6), ("uniform_int", -50, 50), ("uniform_int", 3.0, 9.0),
    ("uniform_float", 1, 10**6), ("uniform_float", 0.0, 1.0), ("uniform_float", -2.5, 7.25),
    ("near_equal", 10**6, 100), ("near_equal", 10**6, 0.5), ("near_equal", 2.5, 1),
    ("near_equal", 0.75, 0.25), ("near_equal", 7, 0),
    ("geometric", 1.001, 10**6), ("geometric", 2, 3), ("geometric", 1.5, 0.25),
    ("geometric", 3, 1),
]
GENERATE_DIGEST = "095487d561f0614423455cc6e547cdd0e1a2a639daf656836dc37d14d7cd4916"


def test_generate_output_is_pinned():
    digest = hashlib.sha256()
    for family, p1, p2 in GENERATE_CASES:
        for n in (2, 7, 64):
            for seed in (0, 1, 2):
                inst = generate(GeneratorSpec(family, n, seed, p1, p2))
                digest.update(repr((inst.mode.value, inst.values)).encode())
    assert digest.hexdigest() == GENERATE_DIGEST


def test_spec_validation():
    with pytest.raises(ValueError, match=r"empty range \[5, 1\]"):
        GeneratorSpec("uniform_int", 10, 0, 5, 1)
    with pytest.raises(ValueError, match=r"empty range \[1.0, 0.5\]"):
        GeneratorSpec("uniform_float", 10, 0, 1.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        GeneratorSpec("near_equal", 10, 0, 10, -1)
    with pytest.raises(ValueError, match="positive"):
        GeneratorSpec("geometric", 10, 0, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        GeneratorSpec("geometric", 10, 0, 2, -3)
    with pytest.raises(ValueError, match="unknown family"):
        GeneratorSpec("nope", 10, 0, 1, 2)
    with pytest.raises(ValueError, match="at least 2"):
        GeneratorSpec("uniform_int", 1, 0, 1, 2)


def test_single_partition_instance_runs_one_traverse():
    rec = run_one(GeneratorSpec("uniform_int", 2, 5, 1, 10**6), SolverConfig())
    assert rec.traverses == 1
    assert rec.swaps == 0


def test_run_suite_shape_and_determinism():
    report = run_suite(small_specs(), SolverConfig(), repetitions=3)
    assert [row.n for row in report.rows] == sorted(SMALL_SIZES)
    assert len(report.runs) == len(SMALL_SIZES) * 3
    assert report.slope is not None
    again = run_suite(small_specs(), SolverConfig(), repetitions=3)
    strip = lambda r: dataclasses.replace(r, wall_time_ns=0)
    assert [strip(r) for r in report.runs] == [strip(r) for r in again.runs]


def test_run_suite_needs_four_sizes():
    with pytest.raises(ValueError):
        run_suite(small_specs()[:3], SolverConfig(), repetitions=1)


def test_invariant_breach_aborts_with_seed(work_bound_breach):
    cfg = SolverConfig(init_strategy=InitStrategy.SPLIT_HALF)
    with pytest.raises(InternalConsistencyError, match="seed=0"):
        run_one(GeneratorSpec("uniform_int", 64, 0, 1, 10**6), cfg)


def test_guard_trip_aborts_with_seed(guard_trip):
    # solve's own guard error, re-raised naming the run to replay
    with pytest.raises(InternalConsistencyError) as exc:
        run_one(GeneratorSpec("uniform_int", 64, 7, 1, 10**6), SolverConfig())
    assert str(exc.value) == ("nontermination guard tripped after 3 traverses "
                              "(family=uniform_int, n=64, seed=7)")
    assert type(exc.value.__cause__) is InternalConsistencyError


@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(init_strategy=InitStrategy.SPLIT_HALF),
     SolverConfig(init_strategy=InitStrategy.RANDOM, seed=5)],
    ids=["split", "random"],
)
def test_run_suite_work_gate_holds_for_poorly_mixed_starts(cfg):
    # run_one's 2N per-sweep gate, well beyond criterion 4's N <= 16 corpus
    sizes = [2**k for k in range(8, 12)]
    specs = [GeneratorSpec("uniform_int", n, n, 1, 10**9) for n in sizes]
    specs += [GeneratorSpec("uniform_float", n, n, 0.0, 1.0) for n in sizes]
    specs += [GeneratorSpec("near_equal", n, n, 10**6, 100) for n in sizes]
    specs += [GeneratorSpec("geometric", n, n, 1.01, 1.0) for n in sizes]
    report = run_suite(specs, cfg, repetitions=2)
    assert len(report.runs) == 2 * len(specs)


def test_export_empty_report():
    empty = ScalingReport(runs=(), rows=(), slope=None)
    assert export_report(empty, "csv").decode() == ",".join(CSV_HEADER) + "\n"


def test_export_single_row():
    report = run_suite(small_specs(), SolverConfig(), repetitions=1)
    one = ScalingReport(runs=report.runs[:1], rows=report.rows[:1], slope=None)
    lines = export_report(one, "csv").decode().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_HEADER)


def test_csv_round_trip():
    report = run_suite(small_specs(), SolverConfig(), repetitions=2)
    rows = list(csv.reader(io.StringIO(export_report(report, "csv").decode())))
    assert tuple(rows[0]) == CSV_HEADER
    runs = [RunRecord(int(row[0]), row[1], *map(int, row[2:])) for row in rows[1:]]
    assert tuple(runs) == report.runs


def test_json_round_trip():
    report = run_suite(small_specs(), SolverConfig(), repetitions=2)
    payload = json.loads(export_report(report, "json"))
    assert tuple(RunRecord(**r) for r in payload["runs"]) == report.runs
    assert tuple(ScalingRow(**r) for r in payload["rows"]) == report.rows
    assert payload["slope"] == report.slope


def test_float_objective_round_trips():
    specs = [GeneratorSpec("uniform_float", n, 4, 0.0, 1.0) for n in SMALL_SIZES]
    report = run_suite(specs, SolverConfig(), repetitions=1)
    rows = list(csv.reader(io.StringIO(export_report(report, "csv").decode())))[1:]
    assert [row[7] for row in rows] == [repr(r.objective) for r in report.runs]
    assert [float(row[7]) for row in rows] == [r.objective for r in report.runs]
    payload = json.loads(export_report(report, "json"))
    assert [r["objective"] for r in payload["runs"]] == [r.objective for r in report.runs]


def test_unknown_format_rejected():
    report = ScalingReport(runs=(), rows=(), slope=None)
    with pytest.raises(ValueError):
        export_report(report, "xml")
