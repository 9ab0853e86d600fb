"""Exhaustive ground-truth solvers for small instances.

Everything here enumerates or scans all pairs.  The only logic shared with
the production solver is setup: the cardinality rule, the sort, the initial
partition and the exact side sums (core._side_diff, which the state
constructor PartitionState.from_membership uses too).  The searches, swap differences and local-optimality tests are written out
again here, so these routines serve as the independent check of its output.  The
equal-cardinality enumeration caps at N = 24 (C(24,12)/2 is about 1.35M
bipartitions) and refuses larger inputs outright.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Optional

from .core import (
    Instance,
    InvalidCardinalityError,
    Metrics,
    PartitionError,
    PartitionState,
    SolveReport,
    SolverConfig,
    _side_diff,
    init_partition,
    normalize_and_sort,
    side1_cardinality,
)

ENUMERATION_CAP = 24


class OracleCapError(PartitionError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    exact_min: float | int
    local_optima: tuple
    num_partitions_enumerated: int


def _check_enumerable(n: int, card1: Optional[int]) -> int:
    """Side-1 size to enumerate (core.side1_cardinality), within the cap."""
    card1 = side1_cardinality(n, card1)
    if n > ENUMERATION_CAP:
        count = f"C({n},{card1})/2" if 2 * card1 == n else f"C({n},{card1})"
        raise OracleCapError(
            f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP} "
            f"({count} bipartitions is too many)"
        )
    return card1


def pairswap_witness(state: PartitionState, tolerance: float = 0.0):
    """First (side1_index, side2_index) pair, in index order, whose swap drops
    |d| below |d| - tolerance; None if the state is pair-swap locally optimal.

    The all-pairs O(N^2) reference for core.is_locally_optimal_pairswap.
    """
    bound = abs(state.d) - tolerance if tolerance else abs(state.d)
    for a in state.set1_indices():
        for b in state.set2_indices():
            if abs(state.d - 2 * state.values[a] + 2 * state.values[b]) < bound:
                return a, b
    return None


def enumerate_equal_partitions(
    instance: Instance, card1: Optional[int] = None
) -> Iterator[PartitionState]:
    """Yield every unordered equal-cardinality bipartition exactly once.

    Sorted index 0 is pinned to side 1, which kills the label symmetry.
    With card1 = k, yield every side-1 set of size k instead; index 0 is
    pinned only when 2k == N, the one case where the labels are symmetric.
    """
    n = len(instance)
    k = _check_enumerable(n, card1)
    si = normalize_and_sort(instance)
    pinned = (0,) if 2 * k == n else ()
    for rest in combinations(range(len(pinned), n), k - len(pinned)):
        in_set1 = [False] * n
        for i in pinned + rest:
            in_set1[i] = True
        yield PartitionState.from_membership(si.sorted_values, in_set1, si.mode)


def exact_min_diff(instance: Instance):
    """Minimum |S1 - S2| over all equal-cardinality bipartitions."""
    return min(abs(s.d) for s in enumerate_equal_partitions(instance))


def local_optima_set(instance: Instance) -> tuple:
    """Sorted objective values of all pair-swap locally optimal bipartitions."""
    vals = {
        abs(s.d)
        for s in enumerate_equal_partitions(instance)
        if pairswap_witness(s) is None
    }
    return tuple(sorted(vals))


def oracle_result(instance: Instance, card1: Optional[int] = None) -> OracleResult:
    """Exact optimum and local optima over the partitions that
    enumerate_equal_partitions(instance, card1) yields."""
    count = 0
    optima = set()
    best = None
    for s in enumerate_equal_partitions(instance, card1):
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
    sides may be empty.  Each is scored from its two exactly summed sides,
    as the solver scores its answer, so no float answer falls below it.
    """
    n = len(instance)
    if n < 1:
        raise InvalidCardinalityError("need at least one element")
    if n > ENUMERATION_CAP:
        raise OracleCapError(f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP}")
    values, mode = instance.values, instance.mode
    return min(
        abs(_side_diff(values, (True, *rest), mode))
        for rest in product((True, False), repeat=n - 1)
    )


def reference_local_search(
    instance: Instance, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Naive cross-check solver: apply the globally best improving swap over
    all cross-side pairs until none is left.

    Locally optimal by construction.  Shares only the initialization with
    the production solver; the search itself is the obvious quadratic scan.
    May reach a different local optimum than the production solver.  d
    becomes the very value the swap was chosen on, so |d| strictly falls and
    the search ends in float mode too.
    """
    t0 = time.perf_counter_ns()
    si = normalize_and_sort(instance)
    state = init_partition(si, cfg)
    metrics = Metrics()
    while True:
        best_pair = None
        best_d = state.d
        for a in state.set1_indices():
            for b in state.set2_indices():
                metrics.candidate_evaluations += 1
                new_d = state.d - 2 * state.values[a] + 2 * state.values[b]
                if abs(new_d) < abs(best_d):
                    best_pair, best_d = (a, b), new_d
        if best_pair is None:
            break
        a, b = best_pair
        state.d = best_d
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
