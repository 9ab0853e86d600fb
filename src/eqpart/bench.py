"""Seeded instance generators and the complexity-scaling harness.

run_suite solves every (size, repetition) cell, records per-run counters,
reduces them to per-size medians, and fits the log-log slope of median
candidate evaluations against N.  Every individual run is checked against
the sweep-count ceiling and the 2N work-per-sweep bound; a breach aborts
with the offending seed so the run can be replayed.

The 2N per-sweep bound holds for every init, split and random included: the
sweep keeps a floor (the highest larger-side index below the cursor) that
only moves up, each cursor scans its partners upward from the floor and
stops at the first one whose post-swap difference is zero or keeps d's
sign, and ties below the floor are reached by per-sweep pointers that only
move up.  So a skipped cursor costs 1, a scanning cursor about one
evaluation per index the floor passes plus one, and a sweep about N + N
(see core.run_traverse).
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    Instance,
    Mode,
    PartitionError,
    SolverConfig,
    solve,
    traverse_guard,
)

FAMILIES = ("uniform_int", "uniform_float", "near_equal", "geometric")

CSV_HEADER = (
    "n",
    "family",
    "seed",
    "traverses",
    "swaps",
    "candidate_evals",
    "wall_time_ns",
    "objective",
)


class BenchInvariantError(PartitionError):
    """A benchmarked run broke a complexity invariant; message carries the seed."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance recipe: same spec and seed give the same values.

    p1/p2 are the family parameters: (lo, hi) for the uniform families,
    (base, epsilon) for near_equal, (ratio, scale) for geometric.
    """

    family: str
    n: int
    seed: int
    p1: float | int
    p2: float | int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.family in ("uniform_int", "uniform_float") and self.p1 > self.p2:
            raise ValueError(f"empty range [{self.p1}, {self.p2}]")
        if self.family == "near_equal" and self.p2 < 0:
            raise ValueError("epsilon must be non-negative")
        if self.family == "geometric":
            if self.p1 <= 0 or self.p2 <= 0:
                raise ValueError("ratio and scale must be positive")
            try:
                top = float(self.p2 * max(self.p1, 1) ** (self.n - 1))
            except OverflowError:
                top = math.inf
            if not math.isfinite(top):
                raise ValueError(
                    f"largest geometric term {self.p2:g} * {self.p1:g}^{self.n - 1} "
                    "is not a finite float"
                )


def generate(spec: GeneratorSpec) -> Instance:
    """Materialize the instance a spec describes."""
    import random

    rng = random.Random(spec.seed)
    if spec.family == "uniform_int":
        lo, hi = int(spec.p1), int(spec.p2)
        return Instance(tuple(rng.randint(lo, hi) for _ in range(spec.n)), Mode.EXACT_INT)
    if spec.family == "uniform_float":
        lo, hi = float(spec.p1), float(spec.p2)
        return Instance(tuple(rng.uniform(lo, hi) for _ in range(spec.n)), Mode.FLOAT64)
    if spec.family == "near_equal":
        base, eps = spec.p1, spec.p2
        if isinstance(base, int) and isinstance(eps, int):
            return Instance(
                tuple(rng.randint(base - eps, base + eps) for _ in range(spec.n)),
                Mode.EXACT_INT,
            )
        return Instance(
            tuple(rng.uniform(base - eps, base + eps) for _ in range(spec.n)),
            Mode.FLOAT64,
        )
    # geometric progression scale * ratio^k; floats unless integral and small
    ratio, scale = spec.p1, spec.p2
    vals = [scale * ratio**k for k in range(spec.n)]
    if all(isinstance(v, int) for v in vals) and sum(abs(v) for v in vals) < (1 << 62):
        return Instance(tuple(vals), Mode.EXACT_INT)
    return Instance(tuple(float(v) for v in vals), Mode.FLOAT64)


@dataclass(frozen=True)
class RunRecord:
    n: int
    family: str
    seed: int
    traverses: int
    swaps: int
    candidate_evals: int
    wall_time_ns: int
    objective: float | int


@dataclass(frozen=True)
class ScalingRow:
    n: int
    median_candidate_evals: float
    median_traverses: float
    median_swaps: float
    median_wall_time_ns: float


@dataclass(frozen=True)
class ScalingReport:
    runs: tuple
    rows: tuple
    slope: Optional[float]


def _fit_slope(rows: Sequence[ScalingRow]) -> Optional[float]:
    """Least-squares slope of log(median evals) against log(n)."""
    if len(rows) < 2:
        return None
    xs = [math.log(r.n) for r in rows]
    ys = [math.log(max(r.median_candidate_evals, 1.0)) for r in rows]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (k * sxy - sx * sy) / (k * sxx - sx * sx)


def _reduce(runs: Sequence[RunRecord]) -> tuple:
    by_n: dict = {}
    for r in runs:
        by_n.setdefault(r.n, []).append(r)
    rows = tuple(
        ScalingRow(
            n=n,
            median_candidate_evals=statistics.median(r.candidate_evals for r in group),
            median_traverses=statistics.median(r.traverses for r in group),
            median_swaps=statistics.median(r.swaps for r in group),
            median_wall_time_ns=statistics.median(r.wall_time_ns for r in group),
        )
        for n, group in sorted(by_n.items())
    )
    return rows


def run_one(spec: GeneratorSpec, cfg: SolverConfig) -> RunRecord:
    """Solve one generated instance and assert its complexity invariants."""
    instance = generate(spec)
    report = solve(instance, cfg)
    m = report.metrics
    guard = traverse_guard(spec.n, instance.mode)
    if m.traverses > guard:
        raise BenchInvariantError(
            f"traverse bound breached: {m.traverses} > {guard} "
            f"(family={spec.family}, n={spec.n}, seed={spec.seed})"
        )
    if m.max_traverse_evaluations > 2 * spec.n:
        raise BenchInvariantError(
            f"per-traverse work bound breached: {m.max_traverse_evaluations} > {2 * spec.n} "
            f"(family={spec.family}, n={spec.n}, seed={spec.seed})"
        )
    return RunRecord(
        n=spec.n,
        family=spec.family,
        seed=spec.seed,
        traverses=m.traverses,
        swaps=m.swaps,
        candidate_evals=m.candidate_evaluations,
        wall_time_ns=m.wall_time_ns,
        objective=report.objective,
    )


def run_suite(
    specs: Iterable[GeneratorSpec],
    cfg: SolverConfig = SolverConfig(),
    repetitions: int = 1,
) -> ScalingReport:
    """Run every spec for `repetitions` seeds and build the scaling report.

    Repetition r of a spec uses seed spec.seed + r, so a suite is fully
    reproducible from its specs.  Slope fitting needs at least 4 distinct
    sizes among the specs.
    """
    specs = tuple(specs)
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    sizes = {s.n for s in specs}
    if len(sizes) < 4:
        raise ValueError(f"slope fitting needs >= 4 distinct sizes, got {sorted(sizes)}")
    runs = []
    for spec in specs:
        for rep in range(repetitions):
            rep_spec = GeneratorSpec(spec.family, spec.n, spec.seed + rep, spec.p1, spec.p2)
            runs.append(run_one(rep_spec, cfg))
    runs = tuple(runs)
    rows = _reduce(runs)
    return ScalingReport(runs=runs, rows=rows, slope=_fit_slope(rows))


def export_report(report: ScalingReport, fmt: str = "csv") -> bytes:
    """Serialize a report: CSV carries the per-run table under the fixed
    header; JSON mirrors runs plus the derived rows and slope."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in report.runs:
            writer.writerow(
                [r.n, r.family, r.seed, r.traverses, r.swaps,
                 r.candidate_evals, r.wall_time_ns, repr(r.objective) if isinstance(r.objective, float) else r.objective]
            )
        return buf.getvalue().encode()
    if fmt == "json":
        payload = {
            "runs": [asdict(r) for r in report.runs],
            "rows": [asdict(r) for r in report.rows],
            "slope": report.slope,
        }
        return json.dumps(payload, indent=2).encode()
    raise ValueError(f"unknown format {fmt!r}")
