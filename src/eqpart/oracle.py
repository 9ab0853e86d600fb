"""Exhaustive ground-truth solvers for small instances.

Everything here enumerates or scans all pairs.  The only logic shared with
the production solver is setup: the cardinality rule and the sort.  The
arithmetic, the enumeration and the local-optimality tests are written out
again, so these routines serve as the independent check of its output
(pair swaps, and transfers on a free-cardinality result): values become
exact numerators over the lcm of their as_integer_ratio denominators (core
uses a power-of-two scale of its own), and d is rounded to input units only
when reported.  The equal-cardinality enumeration caps at N = 24
(C(24,12)/2 is about 1.35M bipartitions) and refuses larger inputs outright.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, compress, product
from typing import Iterator, Optional

from .core import (
    Instance,
    InvalidCardinalityError,
    Mode,
    PartitionError,
    PartitionState,
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


@functools.lru_cache(maxsize=1)  # an enumeration checks every state's same values
def _numerators(values: tuple) -> tuple:
    """(numerators, denominator) with values[i] == numerators[i] / denominator
    exactly: the values over the lcm of their as_integer_ratio denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*(q for _, q in ratios))
    return tuple(p * (den // q) for p, q in ratios), den


def _in_units(d: int, den: int, mode: Mode):
    """d / den in input units: an int, or the correctly rounded float."""
    return d / den if mode is Mode.FLOAT64 else d


def _diff(nums, in_set1) -> int:
    """Exact s1 - s2 over the numerators, side 1 marked by in_set1."""
    return 2 * sum(compress(nums, in_set1)) - sum(nums)


def pairswap_witness(state: PartitionState, tolerance: float = 0.0):
    """First (side1_index, side2_index) pair, in index order, whose swap drops
    |d| below |d| - tolerance; None if the state is pair-swap locally optimal.

    The all-pairs O(N^2) reference for core.is_locally_optimal_pairswap.
    Exact: d is summed afresh from the values, and tolerance joins them over
    the common denominator.  tolerance is in input units, so on a solver
    state (values times scale) it counts scale times.
    """
    *nums, tol = _numerators((*state.values, tolerance))[0]
    d = _diff(nums, state.in_set1)
    side2 = state.set2_indices()
    for a in state.set1_indices():
        for b in side2:
            if abs(d - 2 * nums[a] + 2 * nums[b]) < abs(d) - tol * state.scale:
                return a, b
    return None


def is_locally_optimal_transfer(result) -> bool:
    """True iff no single element move between the sides of a
    reductions.TraditionalResult shrinks |d|: moving x out of side 1 sends d
    to d - 2x, out of side 2 to d + 2x.  Exact, on the numerators."""
    nums = _numerators(result.instance.values)[0]
    signed = [nums[i] for i in result.part1] + [-nums[i] for i in result.part2]
    d = sum(signed)
    return all(abs(d - 2 * x) >= abs(d) for x in signed)


def enumerate_equal_partitions(
    instance: Instance, card1: Optional[int] = None
) -> Iterator[PartitionState]:
    """Yield every unordered equal-cardinality bipartition exactly once, in
    input units.

    Sorted index 0 is pinned to side 1, which kills the label symmetry.
    With card1 = k, yield every side-1 set of size k instead; index 0 is
    pinned only when 2k == N, the one case where the labels are symmetric.
    """
    n = len(instance)
    k = _check_enumerable(n, card1)
    si = normalize_and_sort(instance)
    nums, den = _numerators(si.sorted_values)
    pinned = (0,) if 2 * k == n else ()
    for rest in combinations(range(len(pinned), n), k - len(pinned)):
        in_set1 = [False] * n
        for i in pinned + rest:
            in_set1[i] = True
        d = _in_units(_diff(nums, in_set1), den, si.mode)
        yield PartitionState(si.sorted_values, in_set1, d, si.mode)


def local_optima_set(instance: Instance) -> tuple:
    """Sorted objective values of all pair-swap locally optimal bipartitions."""
    return oracle_result(instance).local_optima


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
    return OracleResult(exact_min=best, local_optima=tuple(sorted(optima)),
                        num_partitions_enumerated=count)


def exact_min_diff_unconstrained(instance: Instance):
    """Brute-force optimum of the free-cardinality partition problem.

    Scans all 2^(N-1) unordered bipartitions (element 0 pinned to side 1);
    sides may be empty.  Each is scored exactly and the minimum rounded once,
    as the solver rounds its answer, so no float answer falls below it.
    """
    n = len(instance)
    if n < 1:
        raise InvalidCardinalityError("need at least one element")
    if n > ENUMERATION_CAP:
        raise OracleCapError(f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP}")
    nums, den = _numerators(instance.values)
    best = min(abs(_diff(nums, (True, *rest))) for rest in product((True, False), repeat=n - 1))
    return _in_units(best, den, instance.mode)
