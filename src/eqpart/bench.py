"""Seeded instance generators and the complexity-scaling harness.

run_suite solves every (size, repetition) cell, records per-run counters,
reduces them to per-size medians, and fits the log-log slope of median
candidate evaluations against N.  solve enforces the sweep-count ceiling
itself; run_one checks the 2N work-per-sweep bound.  A breach of either, or
any other internal error of a solve, aborts with the offending family, size
and seed so the run can be replayed.

The 2N per-sweep bound holds for every init, split and random included;
core.run_traverse's docstring gives the argument.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Iterable, Optional, Sequence

from .core import (
    Instance,
    InternalConsistencyError,
    Mode,
    SolverConfig,
    solve,
)

# family -> default (p1, p2): a range, a spread around a base, and a ratio
# near 1, so a geometric run has distinct terms, finite to N of about 7e5
FAMILIES = {"uniform_int": (1, 10**6), "uniform_float": (1, 10**6),
            "near_equal": (10**6, 100), "geometric": (1.001, 10**6)}


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance recipe: same spec and seed give the same values.

    p1/p2 are the family parameters: (lo, hi) for the uniform families,
    (base, epsilon) for near_equal, (ratio, scale) for geometric; FAMILIES
    holds each family's defaults.
    """

    family: str
    n: int
    seed: int
    p1: float | int
    p2: float | int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.family == "uniform_int" and (self.p1 != int(self.p1) or self.p2 != int(self.p2)):
            raise ValueError(f"uniform_int bounds must be integers, got [{self.p1}, {self.p2}]")
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

    if spec.family == "geometric":
        # scale * ratio^k: exact ints when ratio and scale are ints, else floats
        return Instance.from_values(spec.p2 * spec.p1**k for k in range(spec.n))
    # every other family draws from one range: integers when both ends are ints
    if spec.family == "uniform_int":
        lo, hi = int(spec.p1), int(spec.p2)
    elif spec.family == "uniform_float":
        lo, hi = float(spec.p1), float(spec.p2)
    else:  # near_equal: base +- epsilon
        lo, hi = spec.p1 - spec.p2, spec.p1 + spec.p2
    rng = random.Random(spec.seed)
    if isinstance(lo, int) and isinstance(hi, int):
        return Instance(tuple(rng.randint(lo, hi) for _ in range(spec.n)), Mode.EXACT_INT)
    return Instance(tuple(rng.uniform(lo, hi) for _ in range(spec.n)), Mode.FLOAT64)


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


CSV_HEADER = tuple(f.name for f in fields(RunRecord))

# the RunRecord counters that ScalingRow reduces to per-size medians
_COUNTERS = ("candidate_evals", "traverses", "swaps", "wall_time_ns")


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


def _fit_slope(rows: Sequence[ScalingRow]) -> float:
    """Least-squares slope of log(median evals) against log(n), over at
    least two sizes (run_suite asks for four)."""
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
    return tuple(
        ScalingRow(n, **{f"median_{c}": statistics.median(getattr(r, c) for r in group)
                         for c in _COUNTERS})
        for n, group in sorted(by_n.items())
    )


def run_one(spec: GeneratorSpec, cfg: SolverConfig) -> RunRecord:
    """Solve one generated instance and assert its complexity invariants."""
    where = f"(family={spec.family}, n={spec.n}, seed={spec.seed})"
    instance = generate(spec)
    try:
        report = solve(instance, cfg)  # raises past the sweep-count ceiling
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"{exc} {where}") from exc
    m = report.metrics
    if m.max_traverse_evaluations > 2 * spec.n:
        raise InternalConsistencyError(
            f"per-traverse work bound breached: {m.max_traverse_evaluations} > {2 * spec.n} "
            + where
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
    runs = tuple(run_one(replace(spec, seed=spec.seed + rep), cfg)
                 for spec in specs for rep in range(repetitions))
    rows = _reduce(runs)
    return ScalingReport(runs=runs, rows=rows, slope=_fit_slope(rows))


def export_report(report: ScalingReport, fmt: str = "csv") -> bytes:
    """Serialize a report: CSV carries the per-run table under the fixed
    header; JSON mirrors runs plus the derived rows and slope."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(map(astuple, report.runs))
        return buf.getvalue().encode()
    if fmt == "json":
        return json.dumps(asdict(report), indent=2).encode()
    raise ValueError(f"unknown format {fmt!r}")
