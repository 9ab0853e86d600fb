"""Independent output checker for the benchmark.

Shares no code with eqpart: it re-derives every property of a solver output
from the input values alone, so a bug in eqpart cannot hide itself here.
The checks are

* cover: the two sides are exactly the input multiset, at the required
  cardinalities;
* objective: the reported |S1 - S2| equals a fresh recomputation, exactly
  for integers and within 1e-9 * sum(|x|) for floats (eqpart's documented
  drift contract);
* pair-swap local optimality: no exchange of one element per side shrinks
  |S1 - S2| (by more than the same float tolerance), decided in
  O(N log N) by binary search of the best partner in the sorted other side;
* transfer local optimality (free-cardinality results only): no single
  element moved across shrinks |S1 - S2|.

Every check raises CheckError with a message naming what failed.
"""

from __future__ import annotations

import math

import numpy as np

# int64 arithmetic below is exact while every |d - 2a + 2b| stays below 2^63.
_INT_LIMIT = 1 << 60


class CheckError(AssertionError):
    """An output failed one of the checks."""


def float_tolerance(values) -> float:
    """eqpart's drift contract: 1e-9 times the sum of absolute values."""
    return 1e-9 * math.fsum(abs(x) for x in values)


def _side_sum(side, exact: bool):
    return sum(side) if exact else math.fsum(side)


def _min_swap_abs(side1: np.ndarray, side2: np.ndarray, d, exact: bool):
    """min over a in side1, b in side2 of |d - 2a + 2b|.

    For each a the best b is the one nearest a - d/2; binary search in the
    sorted side2 finds it, and the two neighbours of the insertion point
    (widened by one for the rounding of the float search key) are scored
    exactly.
    """
    b_sorted = np.sort(side2)
    key = side1.astype(np.float64) - float(d) / 2.0
    pos = np.searchsorted(b_sorted.astype(np.float64), key)
    best = None
    for shift in (-2, -1, 0, 1):
        idx = np.clip(pos + shift, 0, len(b_sorted) - 1)
        if exact:
            cand = np.abs(np.int64(d) - 2 * side1 + 2 * b_sorted[idx])
        else:
            cand = np.abs(float(d) - 2.0 * side1 + 2.0 * b_sorted[idx])
        m = cand.min()
        best = m if best is None else min(best, m)
    return best


def _as_array(side, exact: bool) -> np.ndarray:
    return np.asarray(side, dtype=np.int64 if exact else np.float64)


def check_partition(values, side1_idx, side2_idx, objective, card1=None,
                    transfers=False) -> None:
    """Check one solver output given as original-index sides.

    values: the input sequence (all ints for exact mode, else floats).
    card1: required size of side 1; None means N/2 with N even, and with
    transfers=True any sizes are accepted.
    """
    n = len(values)
    exact = all(isinstance(x, int) for x in values)
    if sorted(list(side1_idx) + list(side2_idx)) != list(range(n)):
        raise CheckError("sides do not cover the input indices exactly once")
    if not transfers:
        want = n // 2 if card1 is None else card1
        if card1 is None and n % 2:
            raise CheckError(f"equal cardinality asked for odd N={n}")
        if len(side1_idx) != want or len(side2_idx) != n - want:
            raise CheckError(
                f"cardinalities {len(side1_idx)}/{len(side2_idx)}, want {want}/{n - want}"
            )
    side1 = [values[i] for i in side1_idx]
    side2 = [values[i] for i in side2_idx]
    _check_values(values, side1, side2, objective, transfers)


def check_value_sides(values, side1, side2, objective) -> None:
    """Check an equal-cardinality output given as the two sides' values."""
    if len(side1) != len(values) // 2 or len(side1) + len(side2) != len(values):
        raise CheckError(f"cardinalities {len(side1)}/{len(side2)} for N={len(values)}")
    exact = all(isinstance(x, int) for x in values)
    got = np.sort(np.concatenate([_as_array(side1, exact), _as_array(side2, exact)]))
    if not np.array_equal(got, np.sort(_as_array(values, exact))):
        raise CheckError("sides are not the input multiset")
    _check_values(values, side1, side2, objective, False)


def _check_values(values, side1, side2, objective, transfers) -> None:
    """Objective and local-optimality checks on the two sides' values."""
    exact = all(isinstance(x, int) for x in values)
    if exact and sum(abs(x) for x in values) >= _INT_LIMIT:
        raise CheckError("integer input too large for the int64 checker")
    tol = 0 if exact else float_tolerance(values)
    d = _side_sum(side1, exact) - _side_sum(side2, exact)
    if exact:
        if objective != abs(d):
            raise CheckError(f"objective {objective!r} != recomputed {abs(d)}")
    elif not abs(objective - abs(d)) <= tol:
        raise CheckError(f"objective {objective!r} != recomputed {abs(d)!r} within {tol:g}")
    a = _as_array(side1, exact)
    b = _as_array(side2, exact)
    if len(a) and len(b):
        best = _min_swap_abs(a, b, d, exact)
        if best < abs(d) - tol:
            raise CheckError(f"a pair swap reaches |d| = {best!r} < {abs(d)!r}")
    if transfers:
        moves = []
        if len(a):
            moves.append(np.abs(d - 2 * a).min())
        if len(b):
            moves.append(np.abs(d + 2 * b).min())
        if moves and min(moves) < abs(d) - tol:
            raise CheckError(f"a transfer reaches |d| = {min(moves)!r} < {abs(d)!r}")

