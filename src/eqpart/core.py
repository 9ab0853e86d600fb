"""Core types and the windowed pair-swap descent for balanced number partitioning.

Splits a multiset of N numbers into two subsets of fixed cardinality so that
the absolute difference of the subset sums is locally minimal under single
pair swaps: no exchange of one element from each side can strictly shrink
|S1 - S2|.  The solver sorts the input once, then sweeps a cursor over the
sorted indices; at each cursor in the larger-sum side it scans the maximal
run of opposing-side elements immediately below the cursor for the partner
whose swap most shrinks the difference.  A sign flip of S1 - S2 restarts the
sweep; a completed sweep (or an exact zero) terminates.

Two numeric modes: exact 64-bit-guarded integers (all comparisons exact) and
float64 (incrementally maintained difference, exactly-rounded recomputation
at every sweep start and at emission).
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Optional

# Exact-integer guard: every |x| and sum(|x|) must stay below this so that
# d - 2a + 2b arithmetic stays inside machine-integer range everywhere.
SUM_GUARD = 1 << 62


class Mode(enum.Enum):
    EXACT_INT = "int"
    FLOAT64 = "float"


class InitStrategy(enum.Enum):
    ALTERNATING = "alternating"
    SPLIT_HALF = "split"
    RANDOM = "random"
    GREEDY = "greedy"


class TraverseOutcome(enum.Enum):
    COMPLETED = "completed"
    SIGN_FLIPPED = "sign_flipped"
    ZERO_REACHED = "zero_reached"


class PartitionError(Exception):
    """Base class for all solver errors."""


class InvalidCardinalityError(PartitionError):
    """N odd/too small in equal mode, or requested cardinality out of range."""


class OverflowGuardError(PartitionError):
    """Exact-integer inputs exceed the overflow guard."""


class ContractViolationError(PartitionError):
    """A swap primitive was called with both indices in the same side."""


class InternalConsistencyError(PartitionError):
    """An internal invariant broke, such as the nontermination guard or a
    maintained d that disagrees with its recomputation."""


@dataclass(frozen=True)
class Instance:
    """Input multiset with original positions preserved."""

    values: tuple
    mode: Mode

    def __post_init__(self):
        # Bulk checks first; the loops only run to name the first bad value.
        values = self.values
        if self.mode is Mode.EXACT_INT:
            if set(map(type, values)) <= {int} and (
                not values or -SUM_GUARD < min(values) <= max(values) < SUM_GUARD
            ):
                return
            for x in values:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise OverflowGuardError(
                        f"exact-integer mode requires int values, got {x!r}"
                    )
                if abs(x) >= SUM_GUARD:
                    raise OverflowGuardError(f"|{x}| exceeds the 2^62 guard")
        else:
            try:
                floats = tuple(map(float, values))
                finite = all(map(math.isfinite, floats))
            except (TypeError, ValueError, OverflowError):
                finite = False
            if not finite:
                for x in values:
                    if not math.isfinite(float(x)):
                        raise ValueError(f"non-finite value {x!r}")
            object.__setattr__(self, "values", floats)

    @staticmethod
    def from_values(values) -> "Instance":
        """Build an instance in exact mode when all values are ints, else float."""
        values = tuple(values)
        all_int = all(isinstance(x, int) and not isinstance(x, bool) for x in values)
        return Instance(values, Mode.EXACT_INT if all_int else Mode.FLOAT64)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SortedInstance:
    """Ascending view of an instance plus the permutation back to input order.

    sorted_values[i] == instance.values[perm[i]]; ties keep input order.
    """

    sorted_values: tuple
    perm: tuple
    mode: Mode

    def __len__(self) -> int:
        return len(self.sorted_values)


@dataclass(frozen=True)
class SolverConfig:
    init_strategy: InitStrategy = InitStrategy.ALTERNATING
    seed: Optional[int] = None
    traverse_guard_factor: int = 1
    collect_trace: bool = False

    def __post_init__(self):
        if self.traverse_guard_factor < 1:
            raise ValueError("traverse_guard_factor must be a positive integer")
        if self.init_strategy is InitStrategy.RANDOM and self.seed is None:
            raise ValueError("RANDOM initialization requires a seed")


@dataclass
class Metrics:
    """Per-run instrumentation counters.

    max_traverse_evaluations is the peak candidate_evaluations of any single
    traverse, kept so work-per-traverse bounds can be checked after the fact.
    """

    traverses: int = 0
    swaps: int = 0
    sign_changes: int = 0
    candidate_evaluations: int = 0
    wall_time_ns: int = 0
    max_traverse_evaluations: int = 0


@dataclass(frozen=True)
class SwapEvent:
    """One applied swap: cursor/partner are sorted indices."""

    cursor: int
    partner: int
    d_before: float | int
    d_after: float | int
    outcome: TraverseOutcome


@dataclass
class PartitionState:
    """Membership of each sorted index plus the maintained difference.

    in_set1[i] is True when sorted index i belongs to side 1.  d, the side-1
    sum minus the side-2 sum, is the one number the descent maintains; in
    exact mode it matches a from-scratch recomputation bit for bit at all
    times, in float mode at every traverse start (see recompute_sums).
    """

    values: tuple
    in_set1: list
    d: float | int
    mode: Mode

    def set1_indices(self) -> tuple:
        return tuple(itertools.compress(range(len(self.in_set1)), self.in_set1))

    def set2_indices(self) -> tuple:
        m = self.in_set1
        return tuple(itertools.filterfalse(m.__getitem__, range(len(m))))

    @classmethod
    def from_membership(cls, values: tuple, in_set1: list, mode: Mode) -> "PartitionState":
        """State for side 1 = the indices marked in in_set1, d from exact sums."""
        return cls(values, in_set1, _side_diff(values, in_set1, mode), mode)


@dataclass(frozen=True)
class SolveReport:
    """Final partition plus instrumentation.

    maintained_drift is |incrementally maintained d - recomputed d| at
    emission; always 0 in exact mode.
    """

    partition: PartitionState
    objective: float | int
    metrics: Metrics
    original_set1: tuple
    original_set2: tuple
    sorted_instance: SortedInstance
    trace: tuple = ()
    maintained_drift: float = 0.0


def _sum_values(values, mode: Mode):
    """Exact sum: integer arithmetic in exact mode, fsum (exactly rounded)
    in float mode."""
    if mode is Mode.EXACT_INT:
        return sum(values)
    return math.fsum(values)


def _side_diff(values, in_set1, mode: Mode):
    """s1 - s2 of the sides marked by in_set1, each side summed exactly."""
    s1 = _sum_values(itertools.compress(values, in_set1), mode)
    return s1 - _sum_values(itertools.compress(values, map(operator.not_, in_set1)), mode)


def normalize_and_sort(instance: Instance) -> SortedInstance:
    """Ascending stable sort; ties keep ascending original index."""
    values = instance.values
    if len(values) == 0:
        raise InvalidCardinalityError("instance is empty")
    total = sum(map(abs, values))
    if instance.mode is Mode.EXACT_INT and total >= SUM_GUARD:
        raise OverflowGuardError(f"sum of |values| = {total} exceeds the 2^62 guard")
    if not math.isfinite(4 * total):  # bounds the side sums, d and every d - 2*x_a + 2*x_b
        raise OverflowGuardError(
            f"sum of |values| = {total} is too large for float mode (4 * sum must be finite)"
        )
    order = sorted(range(len(values)), key=values.__getitem__)
    return SortedInstance(
        # one C-level gather; itemgetter returns a bare value for one index
        sorted_values=operator.itemgetter(*order)(values) if len(order) > 1 else tuple(values),
        perm=tuple(order),
        mode=instance.mode,
    )


def _initial_membership(si: SortedInstance, cfg: SolverConfig, card1: int) -> list:
    n = len(si)
    xs = si.sorted_values
    in_set1 = [False] * n
    if cfg.init_strategy is InitStrategy.ALTERNATING:
        # Bresenham spread of card1 slots over n indices; reduces to
        # "odd sorted positions" (1-based) when card1 == n // 2.
        for i in range(n):
            if (i * card1) % n < card1:
                in_set1[i] = True
    elif cfg.init_strategy is InitStrategy.SPLIT_HALF:
        for i in range(card1):
            in_set1[i] = True
    elif cfg.init_strategy is InitStrategy.RANDOM:
        rng = random.Random(cfg.seed)
        for i in rng.sample(range(n), card1):
            in_set1[i] = True
    elif cfg.init_strategy is InitStrategy.GREEDY:
        # Largest first into the currently lighter side, capped at the
        # target cardinalities; ties go to side 1.  Balance comparisons use
        # min-shifted values so the start point is invariant under affine
        # input transforms (raw sums are not, once cardinalities diverge).
        lo = xs[0]
        s1 = s2 = 0
        c1 = c2 = 0
        for i in range(n - 1, -1, -1):
            to_set1 = (s1 <= s2 and c1 < card1) or c2 >= n - card1
            if to_set1:
                in_set1[i] = True
                s1 += xs[i] - lo
                c1 += 1
            else:
                s2 += xs[i] - lo
                c2 += 1
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown strategy {cfg.init_strategy}")
    return in_set1


def side1_cardinality(n: int, card1: Optional[int]) -> int:
    """Side-1 size for N elements: N/2 when card1 is None (N must be even
    and at least 2), else card1, which must lie in 1..N-1."""
    if card1 is None:
        if n < 2 or n % 2 != 0:
            raise InvalidCardinalityError(
                f"equal-cardinality solving needs even N >= 2, got N={n}"
            )
        return n // 2
    if not 1 <= card1 <= n - 1:
        raise InvalidCardinalityError(f"cardinality {card1} out of range 1..{n - 1}")
    return card1


def init_partition(
    si: SortedInstance, cfg: SolverConfig, card1: Optional[int] = None
) -> PartitionState:
    """Build the starting partition with side1_cardinality(N, card1) elements
    on side 1."""
    card1 = side1_cardinality(len(si), card1)
    return PartitionState.from_membership(
        si.sorted_values, _initial_membership(si, cfg, card1), si.mode
    )


def _pair_diff(state: PartitionState, cursor: int, partner: int):
    """Signed d after swapping cursor/partner (opposite sides, unchecked).

    Evaluated left to right as d - 2*x_a + 2*x_b, x_a the side-1 value: the
    one formula for a post-swap difference, shared by the partner scan, the
    swap itself and the local-optimality check, so all three round alike.
    """
    if state.in_set1[cursor]:
        return state.d - 2 * state.values[cursor] + 2 * state.values[partner]
    return state.d - 2 * state.values[partner] + 2 * state.values[cursor]


def find_best_swap(state: PartitionState, n: int, floor: int, ties: dict, metrics: Metrics):
    """Best strictly improving partner for sorted index n, or None.

    Elements outside the larger-sum side (and any cursor when d is zero)
    cannot start an improving swap, so they are skipped in O(1); the skip
    costs one candidate evaluation.  Otherwise the window is bounded by
    `floor`, the highest index below n on the cursor's side (-1 if none),
    which run_traverse keeps for its sweep.  A same-side element bounds the
    window because its value dominates every opposing value below it,
    except for opposing elements tied with it: a same-side tie proves
    nothing about them (swapping equal values never changes d).  So the
    window is the opposing run (floor, n-1] plus the tie group, the
    opposing elements below floor whose value equals values[floor].

    The window is scanned upward.  The post-swap d is monotone in the
    partner's value, float rounding included (one rounded addition of a
    constant to a monotone term), so |d'| is V-shaped over the window: the
    scan stops after the first partner whose d' is zero or has d's sign, and
    keeps the first strict minimum, i.e. the smallest partner index on ties.
    All tie-group members share one d', so only the lowest opposing member
    is evaluated.  `ties` holds the sweep's pointer per value group (keyed
    by the group's first index, found by bisection), which walks up to it;
    each step costs one candidate evaluation.  Within a sweep, elements
    below the floor only move from the opposing to the larger side, so each
    pointer only moves up: the tie groups cost O(N) per sweep in total.

    Returns (partner, new_abs_diff) for the minimizer when it strictly beats
    |d|.
    """
    d = state.d
    in_set1 = state.in_set1
    side = in_set1[n]
    if (d > 0) != side or d == 0:
        metrics.candidate_evaluations += 1
        return None

    values = state.values
    positive = d > 0
    evals = 0
    best_idx = None
    best_val = None
    window = range(floor + 1, n)
    if floor > 0 and values[floor - 1] == values[floor]:
        group = bisect.bisect_left(values, values[floor], 0, floor)
        q = ties.get(group, group)
        while q < floor and in_set1[q] == side:
            q += 1
            evals += 1
        ties[group] = q
        if q < floor:
            window = itertools.chain((q,), window)
    for j in window:
        evals += 1
        new_d = _pair_diff(state, n, j)
        val = abs(new_d)
        if best_val is None or val < best_val:
            best_idx, best_val = j, val
        if new_d == 0 or (new_d > 0) == positive:
            break
    metrics.candidate_evaluations += evals

    if best_idx is not None and best_val < abs(d):
        return best_idx, best_val
    return None


def apply_swap(state: PartitionState, n: int, partner: int) -> TraverseOutcome:
    """Exchange memberships of n and partner and update d incrementally.

    Classifies the new difference as the sweep's outcome so far:
    ZERO_REACHED when it vanished, SIGN_FLIPPED when the sign strictly
    crossed, COMPLETED (the sweep may go on) otherwise.
    """
    if state.in_set1[n] == state.in_set1[partner]:
        raise ContractViolationError(f"indices {n} and {partner} are in the same side")
    a, b = (n, partner) if state.in_set1[n] else (partner, n)
    old_d = state.d
    state.d = _pair_diff(state, a, b)
    state.in_set1[a] = False
    state.in_set1[b] = True
    if state.d == 0:
        return TraverseOutcome.ZERO_REACHED
    if (old_d > 0) != (state.d > 0):
        return TraverseOutcome.SIGN_FLIPPED
    return TraverseOutcome.COMPLETED


def recompute_sums(state: PartitionState) -> PartitionState:
    """Recompute d from scratch and refresh the state in place.

    Float mode uses exactly-rounded summation to cancel incremental drift.
    Exact mode instead asserts the maintained d is already identical; a
    mismatch means a bug, not input trouble.
    """
    d = _side_diff(state.values, state.in_set1, state.mode)
    if state.mode is Mode.EXACT_INT and d != state.d:
        raise InternalConsistencyError(f"maintained d {state.d} != recomputed {d}")
    state.d = d
    return state


def run_traverse(
    state: PartitionState,
    cfg: SolverConfig,
    metrics: Metrics,
    trace: Optional[list] = None,
) -> TraverseOutcome:
    """One cursor sweep from the lowest sorted index upward.

    Applies the best improving swap at each cursor.  A sign flip ends the
    sweep immediately (the caller restarts); a zero difference is terminal;
    otherwise the sweep completes after the top index.

    The sweep keeps `floor`, the highest larger-side index below the cursor
    (-1 at the start): it becomes n when a larger-side cursor does not swap
    and max(floor, partner) after a swap, because the cursor leaves the
    larger side and the partner joins it.  It also keeps the tie-group
    pointers of find_best_swap.  Per sweep this costs at most about 2N
    candidate evaluations: each skipped cursor costs 1; a scanning cursor
    that neither flips nor zeroes d swaps with the last partner it scanned
    (everything before it has the opposite sign), so it costs one evaluation
    per index the floor passes, plus one; a cursor that does not swap moves
    the floor up to itself; and the tie-group pointers only move up.
    The sweep reads nothing from cfg.
    """
    metrics.traverses += 1
    if state.mode is Mode.FLOAT64:
        recompute_sums(state)
    evals_before = metrics.candidate_evaluations
    outcome = TraverseOutcome.COMPLETED
    floor = -1
    ties: dict = {}
    for n in range(len(state.values)):
        hit = find_best_swap(state, n, floor, ties, metrics)
        if hit is None:
            if state.in_set1[n] == (state.d > 0):
                floor = n
            continue
        partner, _ = hit
        floor = max(floor, partner)
        d_before = state.d
        outcome = apply_swap(state, n, partner)
        metrics.swaps += 1
        if trace is not None:
            trace.append(SwapEvent(n, partner, d_before, state.d, outcome))
        if outcome is TraverseOutcome.SIGN_FLIPPED:
            metrics.sign_changes += 1
        if outcome is not TraverseOutcome.COMPLETED:
            break
    this_traverse = metrics.candidate_evaluations - evals_before
    if this_traverse > metrics.max_traverse_evaluations:
        metrics.max_traverse_evaluations = this_traverse
    return outcome


def traverse_guard(n: int, mode: Mode, factor: int = 1) -> int:
    """Sweep-count ceiling: N+2 exact, 2N+4 float, times the config factor."""
    base = n + 2 if mode is Mode.EXACT_INT else 2 * n + 4
    return factor * base


def solve(
    instance: Instance,
    cfg: SolverConfig = SolverConfig(),
    card1: Optional[int] = None,
) -> SolveReport:
    """Find a pair-swap locally optimal partition.

    Repeats sweeps until one completes without a sign flip (or the
    difference hits zero).  The sweep count is hard-capped by the
    nontermination guard; exceeding it raises InternalConsistencyError
    because the termination argument bounds sweeps well below the guard.
    """
    t0 = time.perf_counter_ns()
    si = normalize_and_sort(instance)
    state = init_partition(si, cfg, card1)
    metrics = Metrics()
    trace = [] if cfg.collect_trace else None
    guard = traverse_guard(len(si), si.mode, cfg.traverse_guard_factor)
    while True:
        if metrics.traverses >= guard:
            raise InternalConsistencyError(
                f"nontermination guard tripped after {metrics.traverses} traverses"
            )
        outcome = run_traverse(state, cfg, metrics, trace)
        if outcome is not TraverseOutcome.SIGN_FLIPPED:
            break
    maintained_d = state.d
    recompute_sums(state)
    drift = abs(maintained_d - state.d) if si.mode is Mode.FLOAT64 else 0.0
    member = [False] * len(si)  # side 1 scattered back to input order
    for i in itertools.compress(si.perm, state.in_set1):
        member[i] = True
    set1 = tuple(itertools.compress(range(len(si)), member))
    set2 = tuple(itertools.filterfalse(member.__getitem__, range(len(si))))
    metrics.wall_time_ns = time.perf_counter_ns() - t0
    return SolveReport(
        partition=state,
        objective=abs(state.d),
        metrics=metrics,
        original_set1=set1,
        original_set2=set2,
        sorted_instance=si,
        trace=tuple(trace) if trace is not None else (),
        maintained_drift=drift,
    )


def is_locally_optimal_pairswap(state: PartitionState, tolerance: float = 0.0) -> bool:
    """True iff no cross-side swap drops |d| below |d| - tolerance.

    Linear after sorting each side by value (already sorted for solver
    states, which timsort sees in one pass).

    For a side-1 element a, the post-swap difference _pair_diff(state, a, b)
    = (d - 2*x_a) + 2*x_b is monotone nondecreasing in x_b, float rounding
    included: it is one rounded addition of 2*x_b to a constant, and
    rounding is monotone.  So over side 2 in ascending order |d'| falls
    until d' crosses zero and rises after it, and only the two partners
    around the crossing (the last with d' < 0 and the first with d' >= 0)
    can be a's best swap.  As x_a grows, d - 2*x_a can only shrink, so every
    d' can only shrink and the crossing only moves right: one pointer over
    side 2 serves all of side 1.  oracle.pairswap_witness is the all-pairs
    reference this must agree with, and names a violating pair.
    """
    key = state.values.__getitem__
    side1 = sorted(state.set1_indices(), key=key)
    side2 = sorted(state.set2_indices(), key=key)
    # exact when tolerance is 0: an int |d| past 2^53 must not round
    threshold = abs(state.d) - tolerance if tolerance else abs(state.d)
    p = 0
    for a in side1:
        while p < len(side2) and _pair_diff(state, a, side2[p]) < 0:
            p += 1
        for b in side2[max(p - 1, 0):p + 1]:
            if abs(_pair_diff(state, a, b)) < threshold:
                return False
    return True
