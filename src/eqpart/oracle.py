"""Exhaustive ground-truth solvers for small instances.

Everything here enumerates or scans all pairs.  The only logic shared with
the production solver is setup: the sort, the initial partition and the
state constructor (PartitionState.from_membership, with its exact sums).
The searches, swap differences and local-optimality tests are written out
again here, so these routines serve as the independent check of its output.  The
equal-cardinality enumeration caps at N = 24 (C(24,12)/2 is about 1.35M
bipartitions) and refuses larger inputs outright.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .core import (
    Instance,
    InvalidCardinalityError,
    Metrics,
    PartitionError,
    PartitionState,
    SolveReport,
    SolverConfig,
    _sum_values,
    init_partition,
    normalize_and_sort,
)

ENUMERATION_CAP = 24


class OracleCapError(PartitionError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    exact_min: float | int
    local_optima: tuple
    num_partitions_enumerated: int


def _check_enumerable(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise InvalidCardinalityError(f"equal-cardinality enumeration needs even N >= 2, got {n}")
    if n > ENUMERATION_CAP:
        raise OracleCapError(
            f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP} "
            f"(C({n},{n // 2})/2 bipartitions is too many)"
        )


def pairswap_witness(state: PartitionState, tolerance: float = 0.0):
    """First (side1_index, side2_index) pair, in index order, whose swap drops
    |d| below |d| - tolerance; None if the state is pair-swap locally optimal.

    The all-pairs O(N^2) reference for core.is_locally_optimal_pairswap.
    """
    abs_d = abs(state.d)
    for a in state.set1_indices():
        for b in state.set2_indices():
            if abs(state.d - 2 * state.values[a] + 2 * state.values[b]) < abs_d - tolerance:
                return a, b
    return None


def enumerate_equal_partitions(instance: Instance) -> Iterator[PartitionState]:
    """Yield every unordered equal-cardinality bipartition exactly once.

    Sorted index 0 is pinned to side 1, which kills the label symmetry.
    """
    n = len(instance)
    _check_enumerable(n)
    si = normalize_and_sort(instance)
    for rest in combinations(range(1, n), n // 2 - 1):
        in_set1 = [False] * n
        for i in (0,) + rest:
            in_set1[i] = True
        yield PartitionState.from_membership(si.sorted_values, in_set1, si.mode)


def exact_min_diff(instance: Instance):
    """Minimum |S1 - S2| over all equal-cardinality bipartitions."""
    return min(abs(s.d) for s in enumerate_equal_partitions(instance))


def local_optima_set(instance: Instance, tolerance: float = 0.0) -> tuple:
    """Sorted objective values of all pair-swap locally optimal bipartitions."""
    vals = {
        abs(s.d)
        for s in enumerate_equal_partitions(instance)
        if pairswap_witness(s, tolerance) is None
    }
    return tuple(sorted(vals))


def oracle_result(instance: Instance) -> OracleResult:
    count = 0
    optima = set()
    best = None
    for s in enumerate_equal_partitions(instance):
        count += 1
        obj = abs(s.d)
        if best is None or obj < best:
            best = obj
        if pairswap_witness(s) is None:
            optima.add(obj)
    return OracleResult(
        exact_min=best,
        local_optima=tuple(sorted(optima)),
        num_partitions_enumerated=count,
    )


def exact_min_diff_unconstrained(instance: Instance):
    """Brute-force optimum of the free-cardinality partition problem.

    Scans all 2^(N-1) unordered bipartitions (element 0 pinned to side 1);
    sides may be empty.
    """
    n = len(instance)
    if n < 1:
        raise InvalidCardinalityError("need at least one element")
    if n > ENUMERATION_CAP:
        raise OracleCapError(f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP}")
    values = instance.values
    total = _sum_values(values, instance.mode)
    best = None
    for mask in range(1 << (n - 1)):
        s1 = values[0]
        for i in range(n - 1):
            if mask >> i & 1:
                s1 += values[i + 1]
        obj = abs(2 * s1 - total)
        if best is None or obj < best:
            best = obj
    return best


def reference_local_search(
    instance: Instance, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Naive cross-check solver: apply the globally best improving swap over
    all cross-side pairs until none is left.

    Locally optimal by construction.  Shares only the initialization with
    the production solver; the search itself is the obvious quadratic scan.
    May reach a different local optimum than the production solver.
    """
    t0 = time.perf_counter_ns()
    si = normalize_and_sort(instance)
    state = init_partition(si, cfg)
    metrics = Metrics()
    while True:
        best_pair = None
        best_val = abs(state.d)
        for a in state.set1_indices():
            for b in state.set2_indices():
                metrics.candidate_evaluations += 1
                val = abs(state.d - 2 * state.values[a] + 2 * state.values[b])
                if val < best_val:
                    best_pair, best_val = (a, b), val
        if best_pair is None:
            break
        a, b = best_pair
        xa, xb = state.values[a], state.values[b]
        state.s1 = state.s1 - xa + xb
        state.s2 = state.s2 + xa - xb
        state.d = state.s1 - state.s2
        state.in_set1[a] = False
        state.in_set1[b] = True
        metrics.swaps += 1
    set1 = tuple(sorted(si.perm[i] for i in state.set1_indices()))
    set2 = tuple(sorted(si.perm[i] for i in state.set2_indices()))
    metrics.wall_time_ns = time.perf_counter_ns() - t0
    return SolveReport(
        partition=state,
        objective=abs(state.d),
        metrics=metrics,
        original_set1=set1,
        original_set2=set2,
        sorted_instance=si,
    )


def binomial_half(n: int) -> int:
    """C(n, n/2) / 2: the number of unordered equal-cardinality bipartitions."""
    return math.comb(n, n // 2) // 2
