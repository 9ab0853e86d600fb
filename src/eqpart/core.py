"""Core types and the windowed pair-swap descent for balanced number partitioning.

Splits a multiset of N numbers into two subsets of fixed cardinality so that
the absolute difference of the subset sums is locally minimal under single
pair swaps: no exchange of one element from each side can strictly shrink
|S1 - S2|.  The solver sorts the input once, then sweeps a cursor over the
sorted indices; at each cursor in the larger-sum side it picks, from the
maximal run of opposing-side elements immediately below the cursor, the
partner whose swap most shrinks the difference.  A sign flip of S1 - S2
restarts the sweep; a completed sweep (or an exact zero) terminates.

One numeric path: the descent runs on exact Python ints, the input's own
or, for floats, the input times one power of two (scaled_ints), which solve
reports; only the objective is in input units.  Instance alone decides which
inputs are accepted (ints of any size, floats with a finite 4 * sum).
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
import random
import time


def excerpt(x) -> str:
    """repr(x) for an error message.  A str, or the repr of anything else,
    longer than 40 characters is cut to its first 40 and followed by its
    full length, so one huge input cannot flood the message."""
    try:
        text = x if isinstance(x, str) else repr(x)
    except ValueError:  # str() of an int past the interpreter's digit limit
        if not isinstance(x, int):
            raise
        return f"an integer of {x.bit_length()} bits"
    if len(text) <= 40:
        return repr(x)
    head = repr(text[:40]) if isinstance(x, str) else text[:40]
    return f"{head}... ({len(text)} characters)"


class Mode(enum.Enum):
    """The input's kind; the descent runs on ints for both (see scaled_ints)."""

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


# the sweep's outcomes as module globals: no class-attribute lookup per swap
_COMPLETED, _SIGN_FLIPPED, _ZERO_REACHED = TraverseOutcome


class PartitionError(Exception):
    """Base class for all solver errors."""


class InvalidCardinalityError(PartitionError):
    """N odd/too small in equal mode, or requested cardinality out of range."""


class OverflowGuardError(PartitionError):
    """A non-int (or a bool) in exact-integer mode, or a float input whose
    4 * sum(|x|) leaves the float range."""


class InternalConsistencyError(PartitionError):
    """An internal invariant broke, such as the nontermination guard or a
    maintained d that disagrees with its recomputation."""


class _Record:
    """Base of core's record types: plain classes with __slots__ and an
    explicit __init__ each, not dataclasses, so importing core loads no
    dataclasses or inspect.  __match_args__ names the fields in order; they
    give == (same class, equal fields), a repr naming them, and pickling by
    constructor call.  To change a field, build a new record."""

    __slots__ = ()
    __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class _Frozen(_Record):
    """A record whose fields its __init__ sets once, through _set; equal
    values hash alike."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


_set = object.__setattr__  # a frozen record's __init__ sets its fields past __setattr__


class Instance(_Frozen):
    """Input multiset with original positions preserved, and the one check of
    which numbers are accepted: ints (not bools) of any size, or values
    float() makes finite, with 4 * sum(|x|) finite so every d in input units
    is.  The error names the first bad value, else the float sum."""

    __slots__ = __match_args__ = ("values", "mode")

    def __init__(self, values: tuple, mode: Mode):
        # Bulk checks first; the loops only run to name the first bad value.
        if mode is Mode.EXACT_INT:
            if not set(map(type, values)) <= {int}:
                for x in values:
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise OverflowGuardError(
                            f"exact-integer mode requires int values, got {excerpt(x)}"
                        )
        else:
            try:
                floats = tuple(map(float, values))
                total = sum(map(abs, floats))  # not finite if any value is not
            except (TypeError, ValueError, OverflowError):
                total = math.inf  # the loop names the value float() refuses
            if not math.isfinite(4 * total):
                for x in values:
                    try:
                        x_float = float(x)
                    except (TypeError, ValueError, OverflowError) as exc:
                        raise ValueError(f"{excerpt(x)} is not a float") from exc
                    if not math.isfinite(x_float):
                        raise ValueError(f"non-finite value {excerpt(x)}")
                raise OverflowGuardError(
                    f"sum of |values| = {total} is too large for float mode (4 * sum must be finite)"
                )
            values = floats
        _set(self, "values", values)
        _set(self, "mode", mode)

    @staticmethod
    def from_values(values) -> "Instance":
        """Build an instance in exact mode when all values are ints, else float."""
        values = tuple(values)
        all_int = all(isinstance(x, int) and not isinstance(x, bool) for x in values)
        return Instance(values, Mode.EXACT_INT if all_int else Mode.FLOAT64)

    def __len__(self) -> int:
        return len(self.values)


class SortedInstance(_Frozen):
    """Ascending view of an instance plus the permutation back to input order.

    sorted_values[i] == instance.values[perm[i]]; ties keep input order.
    """

    __slots__ = __match_args__ = ("sorted_values", "perm", "mode")

    def __init__(self, sorted_values: tuple, perm: tuple, mode: Mode):
        _set(self, "sorted_values", sorted_values)
        _set(self, "perm", perm)
        _set(self, "mode", mode)

    def __len__(self) -> int:
        return len(self.sorted_values)


class SolverConfig(_Frozen):
    __slots__ = __match_args__ = ("init_strategy", "seed", "collect_trace")
    traverse_guard_factor = 1  # a constant, not an option

    def __init__(self, init_strategy: InitStrategy = InitStrategy.ALTERNATING,
                 seed: int | None = None, collect_trace: bool = False):
        if init_strategy is InitStrategy.RANDOM and seed is None:
            raise ValueError("RANDOM initialization requires a seed")
        _set(self, "init_strategy", init_strategy)
        _set(self, "seed", seed)
        _set(self, "collect_trace", collect_trace)


class Metrics(_Record):
    """Per-run instrumentation counters.

    max_traverse_evaluations is the peak candidate_evaluations of any single
    traverse, kept so work-per-traverse bounds can be checked after the fact.
    The other fields, in order, are the CLI's JSON metrics.
    """

    __slots__ = __match_args__ = ("traverses", "swaps", "sign_changes", "candidate_evaluations",
                                  "wall_time_ns", "max_traverse_evaluations")

    def __init__(self, traverses: int = 0, swaps: int = 0, sign_changes: int = 0,
                 candidate_evaluations: int = 0, wall_time_ns: int = 0,
                 max_traverse_evaluations: int = 0):
        self.traverses = traverses
        self.swaps = swaps
        self.sign_changes = sign_changes
        self.candidate_evaluations = candidate_evaluations
        self.wall_time_ns = wall_time_ns
        self.max_traverse_evaluations = max_traverse_evaluations


class SwapEvent(_Frozen):
    """One applied swap of sorted indices; d in the descent's exact ints."""

    __slots__ = __match_args__ = ("cursor", "partner", "d_before", "d_after", "outcome")

    def __init__(self, cursor: int, partner: int, d_before: int, d_after: int,
                 outcome: TraverseOutcome):
        _set(self, "cursor", cursor)
        _set(self, "partner", partner)
        _set(self, "d_before", d_before)
        _set(self, "d_after", d_after)
        _set(self, "outcome", outcome)


class PartitionState(_Record):
    """Membership of each sorted index plus the maintained difference.

    in_set1[i] is True when sorted index i belongs to side 1; d is the side-1
    sum minus the side-2 sum.  Every state core builds is exact: ints (float
    input times scale, see scaled_ints) and an int d.  A float d marks an
    input-unit state, d the exact difference rounded once, which only
    oracle.enumerate_equal_partitions yields; the verifier rescales it.
    """

    __slots__ = __match_args__ = ("values", "in_set1", "d", "scale")

    def __init__(self, values: tuple, in_set1: list, d: float | int, scale: int = 1):
        self.values = values
        self.in_set1 = in_set1
        self.d = d
        self.scale = scale

    def set1_indices(self) -> tuple:
        return side_indices(self.in_set1)

    def set2_indices(self) -> tuple:
        return side_indices(self.in_set1, False)

    @classmethod
    def from_membership(cls, values: tuple, in_set1: list, mode: Mode) -> "PartitionState":
        """The exact state init_partition builds for side 1 = the indices
        marked in in_set1: ints as they are, floats as scaled_ints(values)."""
        values, scale = (values, 1) if mode is Mode.EXACT_INT else scaled_ints(values)
        return cls(values, in_set1, _side_diff(values, in_set1), scale)


class SolveReport(_Frozen):
    """Final partition plus instrumentation.  partition is the descent's own
    exact state, as is the trace's d; objective is |d| / scale rounded once
    for float input, |d| for ints.  Input-unit values are
    sorted_instance.sorted_values.

    membership[i] is True when input index i is on side 1.  original_set1
    and original_set2, the ascending input indices of each side, are derived
    from it on each read, not cached: a caller that reads them twice keeps
    the tuple, and one that reads the values alone, as compress(values,
    membership), never builds them."""

    __match_args__ = ("partition", "objective", "metrics", "membership", "sorted_instance",
                      "trace")
    __slots__ = __match_args__ + ("__weakref__",)

    def __init__(self, partition: PartitionState, objective: float | int, metrics: Metrics,
                 membership: list, sorted_instance: SortedInstance, trace: tuple = ()):
        _set(self, "partition", partition)
        _set(self, "objective", objective)
        _set(self, "metrics", metrics)
        _set(self, "membership", membership)
        _set(self, "sorted_instance", sorted_instance)
        _set(self, "trace", trace)

    original_set1 = property(lambda self: side_indices(self.membership))
    original_set2 = property(lambda self: side_indices(self.membership, False))


def side_indices(flags, side: bool = True, n: int | None = None) -> tuple:
    """The ascending indices i < n (default len(flags)) whose flags[i] is
    side: every index side, sorted or input order, is derived here."""
    indices = range(len(flags) if n is None else n)
    return tuple(itertools.compress(indices, flags) if side
                 else itertools.filterfalse(flags.__getitem__, indices))


def scaled_ints(values) -> tuple:
    """(ints, scale) with values[i] * scale == ints[i] exactly, for floats.

    A finite x is a multiple of 2^(e - 53), e = frexp(x)[1].  scale = 2^k
    with k = max(53 - e, 0) for the smallest nonzero |x|; no larger |x| has
    a finer ulp, so every x * 2^k is an integer.  k is not always the least
    that works ((1.0, 3.0) gets 2^52).  Where 2^k or some |x| * 2^k passes
    the float range (subnormals, very wide ranges), as_integer_ratio scales.
    """
    smallest = min(filter(None, map(abs, values)), default=1.0)
    k = max(53 - math.frexp(smallest)[1], 0)
    scale = 1 << k
    try:
        return tuple(map(int, map(math.ldexp(1.0, k).__mul__, values))), scale
    except OverflowError:  # ldexp past the range, or int() of an infinite product
        return tuple(p * (scale // q) for p, q in map(float.as_integer_ratio, values)), scale


def _side_diff(values, in_set1):
    """s1 - s2 of the sides marked by in_set1: 2*s1 - (s1 + s2)."""
    return 2 * sum(itertools.compress(values, in_set1)) - sum(values)


def normalize_and_sort(instance: Instance) -> SortedInstance:
    """Ascending stable sort; ties keep ascending original index.  The
    values are as Instance accepted them: no range check here."""
    values = instance.values
    if len(values) == 0:
        raise InvalidCardinalityError("instance is empty")
    order = sorted(range(len(values)), key=values.__getitem__)
    return SortedInstance(
        # one C-level gather; itemgetter returns a bare value for one index
        sorted_values=operator.itemgetter(*order)(values) if len(order) > 1 else tuple(values),
        perm=tuple(order),
        mode=instance.mode,
    )


def _initial_membership(xs: tuple, cfg: SolverConfig, card1: int) -> list:
    n = len(xs)
    in_set1 = [False] * n
    if cfg.init_strategy is InitStrategy.ALTERNATING:
        # Bresenham spread of card1 slots over n indices; reduces to
        # "odd sorted positions" (1-based) when card1 == n // 2.  The
        # pattern repeats every n // g indices, since (n // g) * card1 is a
        # multiple of n: [True, False] * (n // 2) at card1 == n // 2.
        g = math.gcd(n, card1)
        in_set1 = [(i * card1) % n < card1 for i in range(n // g)] * g
    elif cfg.init_strategy is InitStrategy.SPLIT_HALF:
        in_set1 = [True] * card1 + [False] * (n - card1)
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
        t = 0  # side-1 less side-2 sum of the shifted values placed so far
        left1, left2 = card1, n - card1  # slots left on each side
        for i in range(n - 1, -1, -1):
            if (t <= 0 and left1) or not left2:
                in_set1[i] = True
                t += xs[i] - lo
                left1 -= 1
            else:
                t -= xs[i] - lo
                left2 -= 1
    else:  # a value that is not an InitStrategy, such as the str "split"
        raise ValueError(f"unknown strategy {cfg.init_strategy}")
    return in_set1


def side1_cardinality(n: int, card1: int | None) -> int:
    """Side-1 size for N elements: N/2 when card1 is None (N must be even
    and at least 2), else card1, which must lie in 1..N-1."""
    if card1 is None:
        if n < 2 or n % 2 != 0:
            raise InvalidCardinalityError(
                f"equal-cardinality solving needs even N >= 2, got N={n}"
            )
        return n // 2
    if not 1 <= card1 <= n - 1:
        raise InvalidCardinalityError(
            f"cardinality {card1} out of range 1..{n - 1}" if n >= 2 else
            f"cannot pin cardinality {card1} at N={n}: one value cannot fill two nonempty sides")
    return card1


def init_partition(
    si: SortedInstance, cfg: SolverConfig, card1: int | None = None
) -> PartitionState:
    """Build the descent's starting state, on ints (see PartitionState), with
    side1_cardinality(N, card1) elements on side 1."""
    card1 = side1_cardinality(len(si), card1)
    exact = si.mode is Mode.EXACT_INT
    values, scale = (si.sorted_values, 1) if exact else scaled_ints(si.sorted_values)
    in_set1 = _initial_membership(values, cfg, card1)
    return PartitionState(values, in_set1, _side_diff(values, in_set1), scale)


def recompute_sums(state: PartitionState) -> PartitionState:
    """Recompute a solver state's d exactly from its membership and check it
    against the maintained d; a mismatch means a bug, not input trouble."""
    d = _side_diff(state.values, state.in_set1)
    if d != state.d:
        raise InternalConsistencyError(f"maintained d {state.d} != recomputed {d}")
    return state


# run_traverse takes a run of O(1) accepts in bulk only when e guarantees at
# least this many.  Picked by measurement: at 8 the bulk step's set-up cost
# more than the visits it replaced in random-init descents (about 1.2x at
# N = 2048); 32 gave up part of split init's gain at N = 256.
_RUN_MIN = 16


def _take_run(values, in_set1, larger, n, floor, e, trace, sign):
    """Take the run of O(1) accepts from larger-side cursor n on as
    run_traverse's visits would, while e guarantees _RUN_MIN of them, a
    window of cells at a time in C-level passes; the window doubles from
    _RUN_MIN cells and holds no more than e guarantees accepts.  The caller
    checks that n's own step is one.  Returns the last cursor taken, the
    floor and e."""
    span, after, size = values[-1] - values[0], n, _RUN_MIN
    while e > 2 * _RUN_MIN * span and not (floor > 0 and values[floor - 1] == values[floor]):
        window = in_set1[after:after + min(size, (e - 1) // (2 * span))]
        if window.count(larger) == len(window):  # no smaller-side cell in it
            cs, xs = range(after, after + len(window)), values[after:after + len(window)]
        else:
            cs = list(itertools.compress(range(after, after + len(window)),
                                         window if larger else map(operator.not_, window)))
            xs = list(map(values.__getitem__, cs))
        ps = values[floor + 1:floor + 1 + len(cs)]
        # step i takes partner floor + 1 + i while that value is below the
        # cursor's, and while no tie group sits at its floor, floor + i
        no_gain = map(operator.ge, ps, xs)
        tied_next = map(operator.eq, values[floor:floor + len(cs) - 1], ps)
        k = min(next(itertools.compress(itertools.count(), no_gain), len(cs)),
                next(itertools.compress(itertools.count(1), tied_next), len(cs)))
        if not k:
            break
        xs, ps, n = xs[:k], ps[:k], cs[k - 1]
        # every cell from after to n is a taken cursor or on the smaller
        # side; the partners, set second, may include taken cursors
        in_set1[after:n + 1] = [not larger] * (n + 1 - after)
        in_set1[floor + 1:floor + 1 + k] = [larger] * k
        if trace is not None:
            es = list(itertools.accumulate(map(operator.sub, xs, ps),
                                           lambda prev, gain: prev - 2 * gain, initial=e))
            trace.extend(map(SwapEvent, cs[:k], range(floor + 1, floor + 1 + k),
                             map(operator.mul, itertools.repeat(sign), es),
                             map(operator.mul, itertools.repeat(sign), es[1:]),
                             itertools.repeat(_COMPLETED, k)))
        e -= 2 * (sum(xs) - sum(ps))
        after, floor, size = n + 1, floor + k, 2 * size
        if k < len(cs):
            break
    return n, floor, e


def run_traverse(
    state: PartitionState,
    cfg: SolverConfig,
    metrics: Metrics,
    trace: list | None = None,
) -> TraverseOutcome:
    """One cursor sweep from the lowest sorted index upward.

    Each cursor on the larger-sum side swaps with its best strictly
    improving opposing partner below, if any.  A sign flip ends the sweep at
    once (the caller restarts); a zero difference is terminal; otherwise the
    sweep completes after the top index.  A swap that lets the sweep go on
    keeps d's sign, so the larger side holds for the whole sweep.  Every
    other cursor (smaller side, or d zero) cannot start an improving swap
    and is skipped, counted as one candidate evaluation.

    The partner window is bounded by `floor`, the highest larger-side index
    below the cursor (-1 at the start).  It becomes n when a cursor does
    not swap and max(floor, partner) after a swap, because the cursor
    leaves the larger side and the partner joins it.  A same-side element
    bounds the window because its value dominates every opposing value
    below it, except for opposing elements tied with it: a same-side tie
    proves nothing about them (swapping equal values never changes d).  So
    the window is the opposing run (floor, n-1] plus the tie group, the
    opposing elements below floor whose value equals values[floor].  All
    tie-group members score alike, so only the lowest opposing member is
    evaluated; the sweep's one pointer `tie` walks up to it at one candidate
    evaluation per step.  The floor only moves up, so its value group only
    changes to a higher one, never back: the first time the floor has a tie
    below it in a new group, values[tie] differs from values[floor], and
    `tie` is reset by one bisection to the group's first index.  Below the
    floor, elements only move from the opposing to the larger side within a
    sweep, so within a group the pointer only moves up, at most to the floor.

    The sweep keeps e = |d|, the larger side's excess, and scores every
    swap of cursor value x_n and partner value x_j by one formula, e' =
    e - 2*x_n + 2*x_j (d' for d > 0, -d' for d < 0), c = e - 2*x_n hoisted.
    e' is exact and monotone in x_j, and the window ascends (the tie member
    first, standing at index floor, then the run), so |e'| is V-shaped over
    it.  A scan up from the window's bottom, lo, would stop at the first e'
    >= 0, index j, and keep the first strict minimum: j, or the first index
    of the value group below j (the last e' < 0), which wins a tie.  The
    sweep takes j = lo in O(1) when lo's e' is >= 0, else finds the first
    x_j >= x_n - e // 2 by one bisection, and the group's first index by
    one more.  A chosen e' of 0 reaches zero, a negative one flips the
    sign.  Signed d is formed only for SwapEvents and state.d.

    Each scanning cursor counts what the scan would evaluate, j - lo + 1
    (n - lo when no e' is >= 0), while its work is O(1) or O(log N).  So
    candidate_evaluations stays the paper's work measure, at most about 2N
    per sweep: each skipped cursor costs 1; a scanning cursor that neither
    flips nor zeroes d swaps with the last partner its scan reaches (every
    e' before it is negative), so it costs one evaluation per index the
    floor passes, plus one; a cursor that does not swap moves the floor up
    to itself; and the tie pointer only moves up within a group and never
    returns to one.

    Only cursors that can swap pay for a visit: the sweep jumps between
    larger-side cursors with list.index and counts the skipped ones in bulk
    (all N at once when d == 0).  After the tie walk, a cursor whose window
    is empty, or whose gap values[n] - values[n-1] is at least e, cannot
    swap: every candidate, the tie member too, is at most values[n-1], so
    each gives e' <= e - 2*gap <= -e.  It becomes the floor in O(1) and
    counts the n - lo evaluations of a scan that keeps no partner, except
    an empty window above a tied floor: that visit goes on to the group
    jump below, which pays on long groups of equal values.

    Runs of O(1) accepts are taken in bulk (_take_run).  Let the floor have
    no tie group, and the next larger-side cursor c take p = floor + 1 with
    D = x_c - x_p > 0 and e' = e - 2*D >= 1.  Then c's visit is exactly such
    an accept.  The gap reject cannot fire: p < c, so the gap x_c - x_{c-1}
    is at most D < e/2.  The scan's first e', p's, is e' >= 0, so it stops
    at p after one evaluation and keeps p, which gains, as D > 0.  The swap
    keeps d's sign, p becomes the floor, and p < c holds again at the next
    cursor, as after every swap (a partner lies below its cursor).  So the
    i-th cursor of a run takes partner floor + i, and each run cursor and
    each smaller-side cell passed count one evaluation, as their visits
    would: the 2N argument is unchanged.  Every D is at most span =
    values[top] - values[0], so e alone guarantees (e - 1) // (2*span) more
    accepts, and the run checks only that each partner's value lies below
    its cursor's and that no tie group sits at each floor.  A run is taken
    when e guarantees at least _RUN_MIN accepts, its first step gains and
    its first two floors have no tie group, in C-level passes over windows
    of cells that double from _RUN_MIN: a run cut short costs at most twice
    what it takes, plus _RUN_MIN cells.  The same passes append the trace's
    SwapEvents.

    Equal values cost one step per group, not one per cursor (the dummy
    zeros of the free-cardinality reduction are one group).  Once a scanned
    larger-side cursor n of value v keeps no partner, it is the floor, and
    every later larger-side cursor of v's group in this sweep has a window
    of v-valued elements only: the cells between it and the cursor before
    it, and the tie group of the floor's value v.  A v-valued partner gives
    e' = e, no gain, and nothing changes until the group ends, so none of
    them swaps: the sweep jumps to the group's last larger-side cursor,
    last, and counts in bulk what the visits would count.  Let first be
    the group's first opposing member at or above the tie pointer (every
    group cell below the pointer is on the larger side), and prev the
    larger-side cursor before last (n when there is none between).  A
    visit's scan stops at its first element (e' = e >= 0), so a cursor
    costs one evaluation when its window holds an element and none when it
    does not.  Its window is empty exactly when it sits right above the
    cursor before it and no opposing member lies below that one in the
    group, so the cursors between n and first cost nothing, and every other
    cell in (n, last], a smaller-side skip or a cursor, costs one.  The
    visits walk the tie pointer up to min(first, prev), one evaluation a
    step, since each walks to first or to its floor, the cursor before it.
    The jump leaves floor and tie where the visits would, so
    each jumped cursor counts exactly what its visit would, and the 2N
    argument is unchanged.  The sweep reads nothing from cfg.
    """
    metrics.traverses += 1
    values, in_set1, d = state.values, state.in_set1, state.d
    outcome = _COMPLETED
    larger = d > 0 if d else None  # None matches no cursor: the tail count takes all N
    sign = 1 if larger else -1
    e = sign * d
    evals = swaps = 0
    floor = n = -1  # n: the last larger-side cursor visited
    tie = 0
    find = in_set1.index
    top = len(values) - 1
    run_gate = 2 * _RUN_MIN * (values[top] - values[0]) if values else 0
    while True:
        after = n + 1
        try:
            n = find(larger, after)
        except ValueError:
            break
        evals += n - after  # the smaller-side cursors jumped over
        tied = floor > 0 and values[floor - 1] == values[floor]
        lo = floor + 1  # the window's bottom; floor stands for a tie member
        if tied:
            if values[floor] != values[tie]:
                tie = bisect.bisect_left(values, values[floor], 0, floor)
            while tie < floor and in_set1[tie] == larger:
                tie += 1
                evals += 1
            if tie < floor:
                lo = floor
        if lo == n and not tied or values[n] - values[n - 1] >= e:
            # an empty window (a tied floor's goes on to the group jump), or
            # one whose top gives e' <= -e
            evals += n - lo
            floor = n
            continue
        c = e - 2 * values[n]
        # j: the scan's stop, its first e' >= 0 (n, whose e' is e, if none);
        # best_e: the scan's last e' < 0 (-e, no gain, if none)
        j, stop_e, best_e = lo, c + 2 * values[lo], -e
        if stop_e < 0:
            j = bisect.bisect_left(values, values[n] - e // 2, lo + 1, n)
            stop_e, best_e = c + 2 * values[j], c + 2 * values[j - 1]
        elif e > run_gate and not tied and values[floor] < values[floor + 1] < values[n]:
            # a run of O(1) accepts from n on, taken in bulk while e
            # guarantees _RUN_MIN of them, when n's step gains and neither
            # its floor nor the next has a tie group (floor -1 reads
            # values[-1], the top, and never passes)
            start, low = n, floor
            n, floor, e = _take_run(values, in_set1, larger, n, floor, e, trace, sign)
            evals += n - start + 1
            swaps += floor - low
            continue
        evals += j - lo + (j < n)
        partner = None
        if -best_e < e and -best_e <= stop_e:  # its group's first index wins
            partner = bisect.bisect_left(values, values[j - 1], lo, j - 1)
        elif stop_e < e:
            partner, best_e = j, stop_e
        if partner is None:
            floor = n
            if n < top and values[n + 1] == values[n]:
                # jump to the group's last larger-side cursor (see docstring)
                v = values[n]
                end = bisect.bisect_right(values, v, n + 1)
                k = in_set1[n + 1:end].count(larger)
                if k:
                    last = end - 1 - in_set1[end - 1:n:-1].index(larger)
                    prev = n if k == 1 else last - 1 - in_set1[last - 1:n:-1].index(larger)
                    if values[tie] != v:
                        tie = bisect.bisect_left(values, v, 0, n)
                    try:  # the group's first opposing member
                        first = in_set1.index(not larger, tie, last)
                    except ValueError:
                        first = last + 1
                    walked = min(first, prev)
                    evals += last + 1 - max(first, n + 1) + walked - tie
                    tie = walked
                    floor = n = last
            continue
        if partner == floor:
            partner = tie
        elif partner > floor:
            floor = partner
        in_set1[n], in_set1[partner] = not larger, larger
        swaps += 1
        if best_e == 0:
            outcome = _ZERO_REACHED
        elif best_e < 0:
            outcome = _SIGN_FLIPPED
            metrics.sign_changes += 1
        if trace is not None:
            trace.append(SwapEvent(n, partner, sign * e, sign * best_e, outcome))
        e = best_e
        if outcome is not _COMPLETED:
            break
    if outcome is _COMPLETED:
        evals += len(in_set1) - n - 1  # the smaller-side cursors above the last
    state.d = sign * e
    metrics.swaps += swaps
    metrics.candidate_evaluations += evals
    if evals > metrics.max_traverse_evaluations:
        metrics.max_traverse_evaluations = evals
    return outcome


def traverse_guard(n: int, mode: Mode | None = None, factor: int = 1) -> int:
    """Sweep-count ceiling: N+2 for every mode, times factor (solve uses 1)."""
    return factor * (n + 2)


def solve(
    instance: Instance,
    cfg: SolverConfig = SolverConfig(),
    card1: int | None = None,
) -> SolveReport:
    """Find a pair-swap locally optimal partition.

    Repeats sweeps until one completes without a sign flip (or the
    difference hits zero).  The nontermination guard enforces N+2 sweeps,
    raising InternalConsistencyError past it; no proof of that bound is
    known, and the most measured is 13 sweeps at N = 2^17 (random 128-bit
    ints, alternating init).
    """
    t0 = time.perf_counter_ns()
    return _solve_sorted(normalize_and_sort(instance), cfg, card1, t0)


def _solve_sorted(si: SortedInstance, cfg: SolverConfig, card1: int | None,
                  t0: int) -> SolveReport:
    """solve from its sorted instance on; wall_time_ns counts from t0.

    The scatter back to input order builds the report's membership alone,
    one flag per input index; the report derives the index sides from it."""
    state = init_partition(si, cfg, card1)
    metrics = Metrics()
    trace = [] if cfg.collect_trace else None
    guard = traverse_guard(len(si))
    while True:
        if metrics.traverses >= guard:
            raise InternalConsistencyError(
                f"nontermination guard tripped after {metrics.traverses} traverses"
            )
        outcome = run_traverse(state, cfg, metrics, trace)
        if outcome is not TraverseOutcome.SIGN_FLIPPED:
            break
    recompute_sums(state)
    member = [False] * len(si)  # side 1 scattered back to input order
    for i in itertools.compress(si.perm, state.in_set1):
        member[i] = True
    metrics.wall_time_ns = time.perf_counter_ns() - t0
    return SolveReport(
        partition=state,
        objective=abs(state.d) / state.scale if si.mode is Mode.FLOAT64 else abs(state.d),
        metrics=metrics,
        membership=member,
        sorted_instance=si,
        trace=tuple(trace) if trace is not None else (),
    )


def _gap_pass(keys, in_set1, small, threshold):
    """On keys in ascending order: False at the first larger-side member
    whose previous key group holds a smaller-side member less than threshold
    below it, else True; None at the first key below its predecessor."""
    group, has_small, close = keys[0], False, False
    for v, m in zip(keys, in_set1):
        if v != group:
            if v < group:
                return None
            close = has_small and v - group < threshold
            group, has_small = v, False
        if (not m) is small:
            has_small = True
        elif close:
            return False
    return True


def is_locally_optimal_pairswap(state: PartitionState, tolerance: float = 0.0) -> bool:
    """True iff no cross-side swap drops |d| below |d| - tolerance (in input
    units), decided exactly: an input-unit state on the ints of scaled_ints.
    For ints, |d'| < |d| - T iff |d'| < |d| - s, s = floor(T), T = tolerance
    * scale; a threshold |d| - s <= 0, as at every d = 0, is True at once.

    With L the larger-sum side and S the other, a swap improves iff
    s < 2(x_L - x_S) < 2|d| - s.  At s = 0 that is 0 < x_L - x_S < |d|, and
    the smallest such gap lies between two adjacent distinct values v < w,
    v's group holding an S member and w's an L member: going up from x_S,
    the first group with an L member sits right above one with an S member.
    So _gap_pass fails at the first L member whose previous value group
    holds an S member less than |d| below it, a genuine improving pair:
    run_traverse's O(1) gap reject, applied to every group at once.  It
    takes ascending values (every solver state) as they are.  Any other s,
    or values out of order, take it on sorted keys 2x - s for L members and
    2x for S members: k_L - k_S = 2(x_L - x_S) - s, so a swap improves iff
    0 < k_L - k_S < 2(|d| - s), the s = 0 question.
    oracle.pairswap_witness is the all-pairs reference, and names a
    violating pair.
    """
    values, in_set1, d, scale = state.values, state.in_set1, state.d, state.scale
    if isinstance(d, float):  # an input-unit state (see PartitionState)
        values, scale = scaled_ints(values)
        d = _side_diff(values, in_set1)
    num, den = tolerance.as_integer_ratio()
    slack = num * scale // den
    threshold = abs(d) - slack
    if threshold <= 0:
        return True
    small = d > 0  # what `not in_set1[i]` is for a smaller-side i
    if not slack:
        verdict = _gap_pass(values, in_set1, small, threshold)
        if verdict is not None:
            return verdict
    keys = [2 * x if (not m) is small else 2 * x - slack for x, m in zip(values, in_set1)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _gap_pass([keys[i] for i in order], [in_set1[i] for i in order], small, 2 * threshold)
