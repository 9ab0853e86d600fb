"""Reductions layered on the equal-cardinality solver.

The free-cardinality (traditional) partition problem reduces to the
equal-cardinality one by appending N dummy zeros: a swap with a dummy acts
as a single-element transfer, so the solved partition is locally optimal
under both pair swaps and transfers.  Dummies are identified by index, never
by value, so genuine zero inputs survive the strip.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .core import Instance, InvalidCardinalityError, SolveReport, SolverConfig, solve
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

    Dummies occupy extended original indices N..2N-1, so stripping keeps
    exactly the original indices; zeros that were genuine inputs stay.  The
    report's index tuples ascend, so each side's originals are a prefix.
    """
    n = len(instance)
    extended = to_equal_cardinality(instance)
    report = solve(extended, cfg)
    set1, set2 = report.original_set1, report.original_set2
    part1 = set1[:bisect.bisect_left(set1, n)]
    part2 = set2[:bisect.bisect_left(set2, n)]
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
