"""Reductions layered on the equal-cardinality solver.

The free-cardinality (traditional) partition problem reduces to the
equal-cardinality one by appending N dummy zeros: a swap with a dummy acts
as a single-element transfer, so the solved partition is locally optimal
under both pair swaps and transfers.  Dummies are identified by index, never
by value, so genuine zero inputs survive the strip.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

from .core import (Instance, InvalidCardinalityError, Mode, SolveReport, SolverConfig,
                   SortedInstance, _solve_sorted, normalize_and_sort, side_indices, solve)
# perfbench/test_perfbench.py calls the transfer check by this module's name
from .oracle import is_locally_optimal_transfer  # noqa: F401


@dataclass(frozen=True)
class TraditionalResult:
    """Free-cardinality partition of the original instance.

    part1/part2 are disjoint original-index tuples covering 0..N-1; either
    may be empty.  extended_report is the equal-cardinality solve over the
    zero-padded instance that produced this result.
    """

    part1: tuple
    part2: tuple
    objective: float | int
    instance: Instance
    extended_report: SolveReport


def to_equal_cardinality(instance: Instance) -> Instance:
    """Append N zeros; the 2N-element result always has even size."""
    n = len(instance)
    if n < 1:
        raise InvalidCardinalityError("need at least one element")
    return Instance(instance.values + (0,) * n, instance.mode)  # float mode makes 0.0


def solve_traditional(
    instance: Instance, cfg: SolverConfig = SolverConfig()
) -> TraditionalResult:
    """Solve the free-cardinality problem via the dummy-zero reduction.

    Dummies occupy extended original indices N..2N-1, so the first N flags
    of the report's membership are the inputs': the parts are derived from
    them alone, and zeros that were genuine inputs stay.

    Only the N inputs are sorted.  A stable sort of to_equal_cardinality's
    2N values puts the dummies, the highest indices, right after the last
    input <= 0, so they are spliced in there; the extended report is the
    one solve of the padded instance gives, and its metrics.wall_time_ns
    covers this whole call.
    """
    t0 = time.perf_counter_ns()
    n = len(instance)
    si = normalize_and_sort(instance)
    values, perm = si.sorted_values, si.perm
    p = bisect.bisect_right(values, 0)
    zero = 0 if si.mode is Mode.EXACT_INT else 0.0
    extended = SortedInstance(values[:p] + (zero,) * n + values[p:],
                              perm[:p] + tuple(range(n, 2 * n)) + perm[p:], si.mode)
    report = _solve_sorted(extended, cfg, None, t0)
    part1 = side_indices(report.membership, True, n)
    part2 = side_indices(report.membership, False, n)
    report.metrics.wall_time_ns = time.perf_counter_ns() - t0
    return TraditionalResult(
        part1=part1,
        part2=part2,
        objective=report.objective,
        instance=instance,
        extended_report=report,
    )


def solve_with_cardinality(
    instance: Instance, k: int, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Solve with side-1 cardinality pinned to k (any input parity).

    The sweep only ever swaps, so the output keeps card1 == k.  Strategies
    adapt: SPLIT_HALF takes the first k sorted elements, ALTERNATING spreads
    k slots round-robin at ratio k:(N-k), GREEDY and RANDOM respect the caps.
    """
    return solve(instance, cfg, card1=k)
