"""Unit and property tests for the core solver."""

import bisect
import contextlib
import enum
import io
import itertools
import math
import operator
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eqpart import core
from eqpart.core import (
    InitStrategy,
    Instance,
    InternalConsistencyError,
    InvalidCardinalityError,
    Metrics,
    Mode,
    OverflowGuardError,
    PartitionState,
    SolveReport,
    SolverConfig,
    SortedInstance,
    SwapEvent,
    TraverseOutcome,
    init_partition,
    is_locally_optimal_pairswap,
    normalize_and_sort,
    recompute_sums,
    run_traverse,
    solve,
    traverse_guard,
)
from eqpart.oracle import (
    enumerate_equal_partitions,
    is_locally_optimal_transfer,
    local_optima_set,
    pairswap_witness,
)
from eqpart.reductions import TraditionalResult, solve_traditional
from conftest import make_state

ALL_STRATEGIES = [
    SolverConfig(init_strategy=InitStrategy.ALTERNATING),
    SolverConfig(init_strategy=InitStrategy.SPLIT_HALF),
    SolverConfig(init_strategy=InitStrategy.RANDOM, seed=11),
    SolverConfig(init_strategy=InitStrategy.GREEDY),
]


# ---------------------------------------------------------------- instances


def test_instance_mode_autodetect():
    assert Instance.from_values([1, 2]).mode is Mode.EXACT_INT
    assert Instance.from_values([1.5, 2]).mode is Mode.FLOAT64
    assert Instance((1, 2), Mode.FLOAT64).values == (1.0, 2.0)


def test_instance_guards():
    # an int has no size limit; a float in int mode, or a nan, is refused
    assert Instance((1 << 62,), Mode.EXACT_INT).values == (1 << 62,)
    with pytest.raises(OverflowGuardError):
        Instance((1.5,), Mode.EXACT_INT)
    with pytest.raises(ValueError):
        Instance((float("nan"),), Mode.FLOAT64)


class _Small(enum.IntEnum):
    TWO = 2


def test_instance_int_validation_names_first_bad_value():
    assert Instance((1, _Small.TWO), Mode.EXACT_INT).values == (1, _Small.TWO)
    top = (1 << 62) - 1
    # ints are kept as they are, at any size and any sum
    for values in ((top, 0), (-top,), (top, -top), (top, _Small.TWO, 1), (0, 1 << 62),
                   (0, -1 << 62), (0, 10**300), (0, 10**5000)):
        assert Instance(values, Mode.EXACT_INT).values == values
    # the first value that is not an int, or is a bool, is named
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((top, top, True), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((1, True), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((1, True, 2.5, 1 << 62), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got 2.5"):
        Instance((1, 2.5, True), Mode.EXACT_INT)
    for big in (1 << 62, -1 << 62):
        with pytest.raises(OverflowGuardError, match="^exact-integer mode requires int "
                                                     "values, got True$"):
            Instance((0, big, True), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((0, True, 1 << 62), Mode.EXACT_INT)
    # a long value is cut to 40 characters and its length; an int too long
    # for str() is named by its bit length
    with pytest.raises(OverflowGuardError,
                       match=r"^exact-integer mode requires int values, got '1{40}'\.\.\. "
                             r"\(301 characters\)$"):
        Instance((0, "1" * 301), Mode.EXACT_INT)
    with pytest.raises(ValueError, match="^an integer of 16610 bits is not a float$"):
        Instance((10**5000,), Mode.FLOAT64)


class _Int(int):
    pass


@pytest.mark.parametrize("bad, shown", [
    (False, "False"), (True, "True"), (2.0, "2.0"), ("3", "'3'"), (None, "None")])
def test_instance_int_check_counts_exact_ints(bad, shown):
    # the bulk check counts values of type int; anything else goes on to the
    # loop, which refuses bools, floats, strs and None and keeps int subclasses
    with pytest.raises(OverflowGuardError,
                       match=f"^exact-integer mode requires int values, got {shown}$"):
        Instance((1, bad, 2), Mode.EXACT_INT)
    for values in ((), (_Int(5),), (1, _Int(-3), _Small.TWO)):
        assert Instance(values, Mode.EXACT_INT).values == values


def test_instance_float_validation_names_first_bad_value():
    assert Instance((1, 2.5, True), Mode.FLOAT64).values == (1.0, 2.5, 1.0)
    assert all(type(x) is float for x in Instance((1, _Small.TWO), Mode.FLOAT64).values)
    with pytest.raises(ValueError, match="^non-finite value inf$"):
        Instance((1.0, math.inf, math.nan), Mode.FLOAT64)
    with pytest.raises(ValueError, match="^non-finite value nan$"):
        Instance((1, math.nan, -math.inf), Mode.FLOAT64)
    # float() would refuse "x", but the non-finite value before it is named
    with pytest.raises(ValueError, match="^non-finite value -inf$"):
        Instance((-math.inf, "x"), Mode.FLOAT64)
    # a value float() refuses is named in a ValueError, cut to 40 characters
    with pytest.raises(ValueError,
                       match=r"^10{39}\.\.\. \(401 characters\) is not a float$") as exc:
        Instance((1, 10**400, math.inf), Mode.FLOAT64)
    assert type(exc.value.__cause__) is OverflowError
    with pytest.raises(ValueError, match="^None is not a float$") as exc:
        Instance.from_values([1.5, None])
    assert type(exc.value.__cause__) is TypeError
    with pytest.raises(ValueError, match="^'x' is not a float$") as exc:
        Instance((1.5, "x", math.inf), Mode.FLOAT64)
    assert type(exc.value.__cause__) is ValueError
    with pytest.raises(ValueError, match=r"^non-finite value '9{40}'\.\.\. \(400 characters\)$"):
        Instance((1.5, "9" * 400), Mode.FLOAT64)


def test_empty_instance_constructs():
    for mode in Mode:
        assert Instance((), mode).values == ()


def test_sum_overflow_guard():
    # a sum of ints past 2^62 is kept, and the descent solves it exactly
    n = 8
    big = (1 << 61) - 1
    report = solve(Instance((big,) * n, Mode.EXACT_INT))
    assert report.objective == 0 and is_locally_optimal_pairswap(report.partition)
    assert len(Instance((big, -big - 1), Mode.EXACT_INT)) == 2


def test_float_range_guard():
    # 4 * sum(|x|) must stay finite: it keeps every d in input units finite
    top = 1.7976931348623157e308 / 4
    assert len(Instance((top / 2, -top / 2), Mode.FLOAT64)) == 2
    with pytest.raises(OverflowGuardError, match="too large for float mode"):
        Instance((top, -top), Mode.FLOAT64)
    with pytest.raises(OverflowGuardError, match=r"^sum of \|values\| = inf is too large"):
        Instance((1e308,) * 4, Mode.FLOAT64)
    # a non-finite value is named before the sum
    with pytest.raises(ValueError, match="^non-finite value inf$"):
        Instance((1e308, 1e308, math.inf), Mode.FLOAT64)


# ------------------------------------------------------------------- sorting


def test_sort_examples():
    si = normalize_and_sort(Instance.from_values([3, 1, 2]))
    assert si.sorted_values == (1, 2, 3)
    assert si.perm == (1, 2, 0)

    si = normalize_and_sort(Instance.from_values([5, 5]))
    assert si.sorted_values == (5, 5)
    assert si.perm == (0, 1)  # stable

    si = normalize_and_sort(Instance.from_values([1, 2, 3, 8]))
    assert si.perm == (0, 1, 2, 3)


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
def test_sort_properties(values):
    si = normalize_and_sort(Instance.from_values(values))
    assert sorted(si.perm) == list(range(len(values)))
    assert all(si.sorted_values[i] <= si.sorted_values[i + 1] for i in range(len(values) - 1))
    assert all(si.sorted_values[i] == values[si.perm[i]] for i in range(len(values)))
    # stable ties: equal values keep ascending original index
    for i in range(len(values) - 1):
        if si.sorted_values[i] == si.sorted_values[i + 1]:
            assert si.perm[i] < si.perm[i + 1]


# ------------------------------------------------------------ initialization


def test_init_alternating_example():
    si = normalize_and_sort(Instance.from_values([1, 2, 3, 8]))
    st_ = init_partition(si, SolverConfig(init_strategy=InitStrategy.ALTERNATING))
    assert st_.set1_indices() == (0, 2)  # values 1 and 3
    assert st_.d == -6


def test_init_split_example():
    si = normalize_and_sort(Instance.from_values([1, 2, 3, 8]))
    st_ = init_partition(si, SolverConfig(init_strategy=InitStrategy.SPLIT_HALF))
    assert st_.set1_indices() == (0, 1)
    assert st_.d == -8


def test_init_identical_elements_all_strategies():
    si = normalize_and_sort(Instance.from_values([5, 5, 5, 5]))
    for cfg in ALL_STRATEGIES:
        st_ = init_partition(si, cfg)
        assert st_.d == 0
        assert sum(st_.in_set1) == 2


def test_init_odd_n_rejected():
    si = normalize_and_sort(Instance.from_values([1, 2, 3]))
    with pytest.raises(InvalidCardinalityError):
        init_partition(si, SolverConfig())


def test_random_init_requires_seed():
    with pytest.raises(ValueError):
        SolverConfig(init_strategy=InitStrategy.RANDOM)


def test_alternating_start_repeats_its_period():
    # the start is built from one period of n // gcd(n, card1) indices
    cfg = SolverConfig(init_strategy=InitStrategy.ALTERNATING)
    for n in range(1, 81):
        for card1 in range(1, n):
            assert core._initial_membership(tuple(range(n)), cfg, card1) == [
                (i * card1) % n < card1 for i in range(n)], (n, card1)


def _two_sum_greedy(xs, card1):
    """The greedy start on two side sums and two counts: the reference for
    the one-difference loop."""
    n, lo = len(xs), xs[0]
    in_set1 = [False] * n
    s1 = s2 = c1 = c2 = 0
    for i in range(n - 1, -1, -1):
        if (s1 <= s2 and c1 < card1) or c2 >= n - card1:
            in_set1[i] = True
            s1 += xs[i] - lo
            c1 += 1
        else:
            s2 += xs[i] - lo
            c2 += 1
    return in_set1


def test_greedy_start_matches_the_two_sum_loop():
    # one running difference and two slot counts decide as the two sums did,
    # at every pinned cardinality
    cfg = SolverConfig(init_strategy=InitStrategy.GREEDY)
    rng = random.Random(26)
    for _ in range(1000):
        n = rng.randint(2, 40)
        lo, hi = rng.choice([(-50, 50), (0, 3), (1, 10**9)])
        xs = tuple(sorted(rng.randint(lo, hi) for _ in range(n)))
        for card1 in range(1, n):
            assert core._initial_membership(xs, cfg, card1) == _two_sum_greedy(xs, card1), (
                xs, card1)


def test_unknown_init_strategy_is_a_value_error():
    # SolverConfig keeps a str as it is, and the start's dispatch refuses it
    with pytest.raises(ValueError, match="^unknown strategy split$"):
        solve(Instance.from_values([1, 2, 3, 4]), SolverConfig(init_strategy="split"))


@st.composite
def _memberships(draw):
    """Values up to 2^100 / N in size, negatives included, and any membership."""
    n = draw(st.integers(1, 60))
    big = (1 << 100) // n
    values = draw(st.lists(st.one_of(st.integers(-big + 1, big - 1), st.integers(-5, 5),
                                     st.sampled_from([big - 1, 1 - big])),
                           min_size=n, max_size=n))
    return values, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@given(_memberships())
def test_side_diff_is_one_side_twice_less_the_total(case):
    values, in_set1 = case
    s1 = sum(x for x, m in zip(values, in_set1) if m)
    s2 = sum(x for x, m in zip(values, in_set1) if not m)
    assert core._side_diff(tuple(values), in_set1) == s1 - s2


@given(
    st.lists(st.integers(0, 100), min_size=2, max_size=20).filter(lambda v: len(v) % 2 == 0),
    st.sampled_from(range(4)),
)
def test_init_consistency(values, strategy_idx):
    cfg = ALL_STRATEGIES[strategy_idx]
    si = normalize_and_sort(Instance.from_values(values))
    st_ = init_partition(si, cfg)
    n = len(values)
    assert sum(st_.in_set1) == n // 2
    assert st_.d == sum(si.sorted_values[i] for i in st_.set1_indices()) - sum(
        si.sorted_values[i] for i in st_.set2_indices()
    )


# ------------------------------------------------------- reference primitives


def _reference_pair_diff(state, cursor, partner):
    """Signed d after swapping cursor/partner (opposite sides), evaluated
    left to right as d - 2*x_a + 2*x_b, x_a the side-1 value."""
    if state.in_set1[cursor]:
        return state.d - 2 * state.values[cursor] + 2 * state.values[partner]
    return state.d - 2 * state.values[partner] + 2 * state.values[cursor]


def _reference_apply_swap(state, n, partner):
    """The swap as a primitive of its own: exchange memberships, update d,
    classify the new d as the sweep's outcome."""
    assert state.in_set1[n] != state.in_set1[partner], (n, partner)
    a, b = (n, partner) if state.in_set1[n] else (partner, n)
    old_d = state.d
    state.d = _reference_pair_diff(state, a, b)
    state.in_set1[a] = False
    state.in_set1[b] = True
    if state.d == 0:
        return TraverseOutcome.ZERO_REACHED
    if (old_d > 0) != (state.d > 0):
        return TraverseOutcome.SIGN_FLIPPED
    return TraverseOutcome.COMPLETED


# ------------------------------------------------------------------ the sweep


def _copy_state(state):
    return PartitionState(state.values, list(state.in_set1), state.d, state.scale)


@contextlib.contextmanager
def checked_scans():
    """Check every sweep's decisions, in solve too, against a full scan.

    Patches core.run_traverse (solve looks it up at call time), keeps the
    sweep's trace and replays it on a copy of the state from before the
    sweep.  At each cursor the sweep visited, over every opposing partner
    below it, each scored with _reference_pair_diff: a swap's partner must
    attain the minimum |d'|, which must beat |d|, and its d_after must be
    that partner's d'; a cursor that did not swap must have no partner that
    beats |d|.  Exact: the sweep's states hold ints, float input included.
    """
    sweep = core.run_traverse

    def checked(state, cfg, metrics, trace=None):
        replay = _copy_state(state)
        events = []
        outcome = sweep(state, cfg, metrics, events)
        swaps = {e.cursor: e for e in events}
        last = len(state.values) - 1 if outcome is TraverseOutcome.COMPLETED else events[-1].cursor
        for n in range(last + 1):
            side = replay.in_set1[n]
            diffs = {q: _reference_pair_diff(replay, n, q)
                     for q in range(n) if replay.in_set1[q] != side}
            best = min(map(abs, diffs.values()), default=None)
            if n not in swaps:
                assert best is None or best >= abs(replay.d), (n, best, replay.d)
                continue
            e = swaps[n]
            assert e.d_before == replay.d and e.partner in diffs, (n, e)
            assert abs(e.d_after) == best < abs(replay.d), (n, e, best)
            assert e.d_after == diffs[e.partner], (n, e)
            assert _reference_apply_swap(replay, n, e.partner) is e.outcome
        assert replay.in_set1 == state.in_set1 and replay.d == state.d
        if trace is not None:
            trace.extend(events)
        return outcome

    with mock.patch.object(core, "run_traverse", checked):
        yield


def _sweep(values, set1, mode=None):
    """One checked sweep of make_state(values, set1), equal in every choice
    and count to linear_scan_sweep's: (outcome, trace as (cursor, partner,
    d_before, d_after, outcome) tuples, metrics, state)."""
    state = make_state(values, set1, mode)
    metrics, trace = Metrics(), []
    reference, ref_metrics, ref_trace = _copy_state(state), Metrics(), []
    with checked_scans():
        outcome = core.run_traverse(state, SolverConfig(), metrics, trace)
    assert linear_scan_sweep(reference, SolverConfig(), ref_metrics, ref_trace) is outcome
    assert (trace, metrics, state) == (ref_trace, ref_metrics, reference)
    assert metrics.traverses == 1
    assert metrics.max_traverse_evaluations == metrics.candidate_evaluations
    events = [(e.cursor, e.partner, e.d_before, e.d_after, e.outcome) for e in trace]
    return outcome, events, metrics, state


def test_sweep_without_an_improving_partner_completes():
    # side1 = {2,3}, side2 = {1,8}, d=-4: the larger side 2 has no improving
    # partner.  Cursor 0 has an empty window and becomes the floor; cursor 3
    # (value 8) scores 2 -> 8 and 3 -> 6, and the window stops before index 0
    outcome, events, metrics, state = _sweep([1, 2, 3, 8], {1, 2})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    assert metrics.candidate_evaluations == 4  # 2 skips + 2 scanned
    assert state.d == -4 and state.in_set1 == [False, True, True, False]


def test_sweep_swaps_with_the_best_partner_below():
    # alternating start on {1,2,3,8}, d=-6: cursor 1 swaps with index 0
    # (d' = -6 - 2*1 + 2*2 = -4); cursor 3 then scores indices 1 and 2
    # (8 and 6) and keeps its place
    outcome, events, metrics, state = _sweep([1, 2, 3, 8], {0, 2})
    assert outcome is TraverseOutcome.COMPLETED
    assert events == [(1, 0, -6, -4, TraverseOutcome.COMPLETED)]
    assert metrics.candidate_evaluations == 5  # 2 skips + 1 + 2
    assert (metrics.swaps, metrics.sign_changes) == (1, 0)
    assert state.in_set1 == [False, True, True, False]

    # d=8 with side 1 = {3, 8}: cursor 2 swaps with index 0 (8 - 6 + 2)
    outcome, events, metrics, _ = _sweep([1, 2, 3, 8], {2, 3})
    assert events == [(2, 0, 8, 4, TraverseOutcome.COMPLETED)]
    assert metrics.candidate_evaluations == 5  # 2 skips + 1 + 2


def test_sweep_with_zero_difference_skips_every_cursor():
    # d == 0: there is no larger side, so every cursor is skipped, one
    # evaluation each, counted all at once
    outcome, events, metrics, _ = _sweep([5, 5], {0})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    assert metrics.candidate_evaluations == 2

    outcome, events, metrics, state = _sweep([1, 2, 3, 4, 5, 6, 7, 8], {0, 3, 4, 7})
    assert outcome is TraverseOutcome.COMPLETED and events == [] and state.d == 0
    assert metrics.candidate_evaluations == 8 and metrics.swaps == 0
    assert state.in_set1 == [True, False, False, True, True, False, False, True]


def test_sweep_tied_partners_pick_the_lowest_index():
    # d = 10, cursor 2 (value 8): index 0 gives 10 - 16 + 4 = -2 and index
    # 1 gives 10 - 16 + 8 = 2.  |d'| ties; the first strict minimum, the
    # lower index, wins, and the scan stops at index 1 (d' has d's sign)
    outcome, events, metrics, _ = _sweep([2, 4, 8, 8], {2, 3})
    assert outcome is TraverseOutcome.SIGN_FLIPPED
    assert events == [(2, 0, 10, -2, TraverseOutcome.SIGN_FLIPPED)]
    assert metrics.candidate_evaluations == 4  # 2 skips + 2 scanned
    assert (metrics.swaps, metrics.sign_changes) == (1, 1)


def test_sweep_window_stops_at_the_floor():
    # membership side2,side1,side2,cursor,side1,side2 and d = 39 - 37 = 2:
    # cursor 1 (value 9) scores index 0 (2 - 18 + 10 = -6), does not swap
    # and becomes the floor, so cursor 3 (value 14) scans only index 2
    # (2 - 28 + 26 = 0), never index 0 below the floor
    outcome, events, metrics, _ = _sweep([5, 9, 13, 14, 16, 19], {1, 3, 4})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(3, 2, 2, 0, TraverseOutcome.ZERO_REACHED)]
    assert metrics.candidate_evaluations == 4  # 2 skips + 1 + 1


def test_sweep_takes_the_lowest_tie_below_the_floor():
    # d = 2, larger side 1 = {0, 3, 6, 7}.  Cursor 0 becomes the floor;
    # cursor 3 scores index 1 (d' = 2, no gain, d's sign) and becomes the
    # floor.  Cursor 6 (value 2) has opposing 1s in the run (4, 5) and below
    # the floor (1, 2), all giving d' = 0: the lowest opposing tie below the
    # floor wins, reached by one pointer step over the same-side index 0.
    outcome, events, metrics, _ = _sweep([1, 1, 1, 1, 1, 1, 2, 2], {0, 3, 6, 7})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(6, 1, 2, 0, TraverseOutcome.ZERO_REACHED)]
    # 4 skips + cursor 3 (1) + cursor 6 (one pointer step, one evaluation)
    assert metrics.candidate_evaluations == 7


def test_sweep_empty_windows_become_the_floor_for_free():
    # d = 19 - 18 = 1 with distinct ints: no swap gains.  Cursor 2 scores
    # indices 0 and 1 and becomes the floor; cursors 3 and 4 sit right above
    # the floor with no tie below it, so their windows are empty and each
    # becomes the floor at 0 evaluations.  Cursor 6 scores index 5.
    outcome, events, metrics, state = _sweep([1, 2, 3, 4, 5, 6, 7, 9], {2, 3, 4, 6})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # skips 0, 1 + cursor 2 (2) + cursors 3, 4 (0) + skip 5 + cursor 6 (1)
    # + skip 7
    assert metrics.candidate_evaluations == 7
    assert state.d == 1


def test_sweep_rejects_a_cursor_whose_gap_reaches_e_at_once():
    # d = 301 - 306 = -5, larger side 2 = {1, 3, 5}.  Cursor 1 swaps with
    # index 0 (e' = 5 - 4 + 2 = 3).  Cursor 3 (value 103) sits 3 above
    # index 2 and 3 >= e: the run's top partner gives e' = 3 - 6 = -3 and
    # index 1 less, so the cursor becomes the floor without a scan,
    # counting the run's 2 evaluations.  Cursor 5 swaps with index 4
    # (e' = 3 - 402 + 400 = 1).
    outcome, events, metrics, state = _sweep([1, 2, 100, 103, 200, 201], {0, 2, 4})
    assert outcome is TraverseOutcome.COMPLETED
    assert events == [(1, 0, -5, -3, TraverseOutcome.COMPLETED),
                      (5, 4, -3, -1, TraverseOutcome.COMPLETED)]
    # skip 0 + cursor 1 (1) + skip 2 + cursor 3 (2) + skip 4 + cursor 5 (1)
    assert metrics.candidate_evaluations == 7
    assert (metrics.swaps, state.d) == (2, -1)


def test_sweep_rejects_a_cursor_above_a_tied_floor_at_once():
    # d = 0 - 1 = -1, larger side 2 = {1, 2, 3}.  Cursor 1 scores index 0
    # (e' = 1, no gain) and becomes the floor, and the sweep jumps to cursor
    # 2, the zero group's last.  Cursor 3's floor 2 has the tie group
    # {0, 1, 2}, whose opposing member is index 0: its gap 1 - 0 reaches
    # e = 1, so every candidate gives e' <= -1 and the cursor becomes the
    # floor without a scan, counting its window's 1 evaluation.
    values, set1 = [0, 0, 0, 1], {0}
    outcome, events, metrics, state = _sweep(values, set1)
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # skip 0 + cursor 1 (1) + jump to cursor 2 (1) + cursor 3 (1)
    assert metrics.candidate_evaluations == 4
    assert state.d == -1
    calls, bisect_left = [], bisect.bisect_left

    def counted(*args):
        calls.append(args)
        return bisect_left(*args)

    # the same sweep makes no bisection: nothing resets the tie pointer,
    # and cursor 3 never reaches the scan's
    with mock.patch.object(core.bisect, "bisect_left", counted):
        run_traverse(make_state(values, set1), SolverConfig(), Metrics())
    assert calls == []


def test_sweep_tie_below_the_floor_keeps_the_window_open():
    # the same run with index 1 tied with the floor's value 3 (d = 19 -
    # 18 = 1): cursor 3 sits right above the floor, but its window holds
    # the opposing tie at index 1 (d' = 1 - 8 + 6 = -1, no gain); cursor 4,
    # above a floor of 4s with no tie, has an empty window again
    outcome, events, metrics, _ = _sweep([0, 3, 3, 4, 5, 6, 7, 9], {2, 3, 4, 6})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # skips 0, 1 + cursor 2 (2) + cursor 3 (1) + cursor 4 (0) + skip 5
    # + cursor 6 (1) + skip 7
    assert metrics.candidate_evaluations == 8

    # with d = 19 - 17 = 2 the tie is cursor 3's zero swap
    outcome, events, metrics, _ = _sweep([0, 3, 3, 4, 5, 6, 7, 8], {2, 3, 4, 6})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(3, 1, 2, 0, TraverseOutcome.ZERO_REACHED)]
    assert metrics.candidate_evaluations == 5  # skips 0, 1 + cursor 2 (2) + 1


def test_sweep_last_larger_cursor_at_the_top_index():
    # d = 19 - 18 = 1, larger side 1 = {0, 1, 6, 7}.  Cursors 0 and 1 have
    # empty windows; cursor 6 scores the run 2..5; cursor 7, the top index,
    # has an empty window, and no skipped cursor is left above it.
    outcome, events, metrics, state = _sweep([1, 2, 3, 4, 5, 6, 7, 9], {0, 1, 6, 7})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # cursors 0, 1 (0) + skips 2..5 + cursor 6 (4) + cursor 7 (0)
    assert metrics.candidate_evaluations == 8
    assert state.d == 1


def test_run_traverse_tie_group_below_floor():
    # d = -6, larger side 2 = {4, 5, 6, 7}.  Cursor 4 does not swap, so the
    # floor stays at 4 while cursors 5 and 6 take their partners from the
    # 1s below it, lowest index first; the tie pointer moves up one step
    # per swapped-in partner and cursor 7 finds no improvement.
    outcome, events, metrics, _ = _sweep([1, 1, 1, 1, 1, 2, 2, 5], {0, 1, 2, 3})
    assert outcome is TraverseOutcome.COMPLETED
    assert [(c, p, after) for c, p, _, after, _ in events] == [(5, 0, -4), (6, 1, -2)]
    # 4 skips + cursor 4 (1) + cursor 5 (1) + cursor 6 (1 step, 1 evaluation)
    # + cursor 7 (1 step, the tie at index 2, then run indices 5 and 6)
    assert metrics.candidate_evaluations == 12


def test_run_traverse_tie_pointer_resets_in_a_new_group():
    # d = 8 - 6 = 2, larger side 1 = {1, 5, 6}.  Cursor 1 (value 1) scores
    # index 0 (d' = 2, no gain) and becomes the floor, in the group of 1s.
    # Cursor 5 (value 3) scores the tie at index 0 and the run 2..4 (d' =
    # -2, -2, -2, 2), does not swap and becomes the floor, in the group of
    # 3s: the pointer must leave index 0 for that group's first index, 4,
    # whose d' = 2 - 8 + 6 is 0 for cursor 6.  A pointer left in the 1s
    # would score index 0 (d' = -4) and miss the swap.
    outcome, events, metrics, state = _sweep([1, 1, 1, 1, 3, 3, 4], {1, 5, 6})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(6, 4, 2, 0, TraverseOutcome.ZERO_REACHED)]
    # 4 skips + cursor 1 (1) + cursor 5 (4) + cursor 6 (1)
    assert metrics.candidate_evaluations == 10
    assert state.in_set1 == [False, True, False, False, True, True, False]


def test_sweep_jumps_a_padded_zero_block():
    # the alternating start of solve_traditional on 4..9: six dummy zeros,
    # side 1 = {1, 3, 5, 7, 9, 11}, d = 21 - 18 = 3.  Cursor 1 scores the
    # opposing zero at index 0 (d' = 3, no gain) and becomes the floor, so
    # cursors 3 and 5, whose windows hold only zeros, cannot swap: the sweep
    # jumps to cursor 5, counting skips 2 and 4 and one evaluation per
    # cursor (its window holds the opposing zero at index 0).  Cursor 7
    # then scans that zero and the run above the floor at 5, index 6.
    outcome, events, metrics, state = _sweep([0] * 6 + [4, 5, 6, 7, 8, 9], {1, 3, 5, 7, 9, 11})
    assert outcome is TraverseOutcome.COMPLETED
    assert events == [(7, 6, 3, 1, TraverseOutcome.COMPLETED)]
    # skip 0 + cursor 1 (1) + jump (2 skips + 2 cursors) + skip 6 + cursor 7
    # (2) + skip 8 + cursor 9 (gap reject, 2) + skip 10 + cursor 11 (1)
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 14
    assert state.d == 1


def test_sweep_jumps_a_group_whose_opposing_members_come_first():
    # d = 32 - 29 = 3, side 1 = {3, 4, 6, 8}; the 6s at 1..6 have their
    # opposing members 1 and 2 first.  Cursor 3 scans indices 0 and 1 and
    # keeps no partner; the jump to cursor 6 counts cursor 4 (the tie at
    # index 1), skip 5 and cursor 6 (the tie) at one each.  Cursor 8 scans
    # the tie at 1 and the run above the floor at 6, index 7.
    outcome, events, metrics, state = _sweep([1, 6, 6, 6, 6, 6, 6, 10, 14], {3, 4, 6, 8})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # 3 skips + cursor 3 (2) + jump (3) + skip 7 + cursor 8 (2)
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 11
    assert state.d == 3


def test_sweep_jumps_a_group_split_by_the_floor():
    # d = 4, side 1 = {1, 2, 4, 5, 7, 9}: the 9s at 1..7.  Cursor 1's gap
    # to index 0 reaches e, and cursor 2 sits right above it: the floor is
    # inside the group before any scan.  Cursor 4 walks the tie pointer from
    # 1 to 2, scans index 3 and keeps no partner; the jump to cursor 7 keeps
    # the pointer where cursor 4 left it and counts its walk to the opposing
    # 9 at index 3 (1), cursor 5 (1), skip 6 and cursor 7 (1).  Cursor 9
    # takes that tie: d' = 4 - 22 + 18 = 0.
    outcome, events, metrics, state = _sweep(
        [2, 9, 9, 9, 9, 9, 9, 9, 10, 11, 22], {1, 2, 4, 5, 7, 9})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(9, 3, 4, 0, TraverseOutcome.ZERO_REACHED)]
    # skip 0 + cursor 1 (1) + cursor 2 (0) + skip 3 + cursor 4 (2) + jump (4)
    # + skip 8 + cursor 9 (1)
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 11


def test_sweep_jump_counts_nothing_for_cursors_right_above_each_other():
    # d = 4, side 1 = {1, 2, 3, 4, 6, 8}.  Cursor 2, the first 8, scores the
    # tie at index 0 (d' = -6) and becomes the floor; the 8s have no
    # opposing member below cursor 2.  So cursor 3 sits right above the
    # floor with an empty window (0), cursor 4's window is empty once the
    # pointer walks 2 -> 3 (1), and cursor 6 counts skip 5, a walk to 4 and
    # index 5 (3).  Cursor 8 walks to the opposing 8 at 5 and takes it.
    outcome, events, metrics, state = _sweep([3, 3, 8, 8, 8, 8, 8, 9, 10, 21], {1, 2, 3, 4, 6, 8})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(8, 5, 4, 0, TraverseOutcome.ZERO_REACHED)]
    # skip 0 + cursor 1 (1) + cursor 2 (1) + jump (4) + skip 7 + cursor 8 (2)
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 10

    # the same group as the sweep's last: no later cursor walks the pointer,
    # so the jump alone counts its walk up to cursor 4
    outcome, events, metrics, state = _sweep([3, 3, 8, 8, 8, 8, 8, 20], {1, 2, 3, 4, 6})
    assert outcome is TraverseOutcome.COMPLETED and events == [] and state.d == 4
    # skip 0 + cursor 1 (1) + cursor 2 (1) + jump (4) + skip 7
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 8


def test_partner_accept_takes_the_window_bottom_at_one_evaluation():
    # d = 39 - 26 = 13, larger side 1 = {4, 5}.  Cursor 4 (value 9) has the
    # window 0..3; index 0 gives e' = 13 - 18 + 10 = 5, in (0, e), so the
    # scan would stop there: it is taken at one evaluation, not four.
    # Cursor 5's gap to index 4 (21) reaches e = 5: rejected, counting 4.
    outcome, events, metrics, state = _sweep([5, 6, 7, 8, 9, 30], {4, 5})
    assert outcome is TraverseOutcome.COMPLETED
    assert events == [(4, 0, 13, 5, TraverseOutcome.COMPLETED)]
    # skips 0..3 + cursor 4 (1) + cursor 5 (4)
    assert metrics.candidate_evaluations == 9
    assert state.d == 5


def test_partner_of_the_cursors_value_gives_no_gain():
    # d = 8 - 5 = 3, larger side 1 = {0, 2}.  Cursor 2 (value 5) has the
    # window {1}, also a 5: e' = e, the scan stops there at one evaluation
    # with no gain, and the cursor becomes the floor
    outcome, events, metrics, state = _sweep([3, 5, 5], {0, 2})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    # cursor 0 (0, empty window) + skip 1 + cursor 2 (1)
    assert metrics.candidate_evaluations == 2
    assert state.d == 3 and state.in_set1 == [True, False, True]


def test_partner_at_the_window_bottom_reaches_zero():
    # d = 34 - 26 = 8: cursor 4 (value 9) and index 0 (value 5) give
    # e' = 8 - 18 + 10 = 0 at the window's bottom, one evaluation
    outcome, events, metrics, state = _sweep([5, 6, 7, 8, 9, 25], {4, 5})
    assert outcome is TraverseOutcome.ZERO_REACHED
    assert events == [(4, 0, 8, 0, TraverseOutcome.ZERO_REACHED)]
    assert metrics.candidate_evaluations == 5  # skips 0..3 + 1
    assert state.d == 0


def test_partner_below_every_stop_is_the_top_groups_first_index():
    # d = 14 - 11 = 3, larger side 1 = {4, 5}.  Cursor 4 (value 6) scores
    # e' = 3 - 12 + 2x: -7, -5, -1, -1 over its window 0..3, all below 0,
    # so the scan would visit all four; the best, e' = -1, is the group of
    # 4s, whose first index 2 wins, and the swap flips the sign
    outcome, events, metrics, state = _sweep([1, 2, 4, 4, 6, 8], {4, 5})
    assert outcome is TraverseOutcome.SIGN_FLIPPED
    assert events == [(4, 2, 3, -1, TraverseOutcome.SIGN_FLIPPED)]
    assert metrics.candidate_evaluations == 8  # skips 0..3 + 4
    assert (metrics.swaps, metrics.sign_changes) == (1, 1)


def test_tie_member_wins_an_equal_score_against_the_run():
    # d = 3, larger side 1 = {1, 4, 5}.  Cursor 1 (a 2) scores index 0
    # (e' = e) and becomes the floor, with the opposing 2 at index 0 below
    # it.  Cursor 4 (value 4) scans the tie member 0, then the run: index 2
    # (also a 2) and index 3 (a 3), e' = -1, -1, 1.  All three tie on
    # |e'|; the tie member, scanned first, wins.
    outcome, events, metrics, _ = _sweep([2, 2, 2, 3, 4, 4], {1, 4, 5})
    assert outcome is TraverseOutcome.SIGN_FLIPPED
    assert events == [(4, 0, 3, -1, TraverseOutcome.SIGN_FLIPPED)]
    # skip 0 + cursor 1 (1) + skips 2, 3 + cursor 4 (3)
    assert metrics.candidate_evaluations == 7

    # d = 8, larger side 1 = {1, 3, 4}: cursor 3 (a 5) scores the tie member
    # first, e' = 8 - 10 + 4 = 2 >= 0, where the scan stops; index 2, the
    # run's 2, is never scored.  Cursor 4 walks the pointer over index 0,
    # now on its side, and scans indices 2 and 3 without a gain.
    outcome, events, metrics, _ = _sweep([2, 2, 2, 5, 5], {1, 3, 4})
    assert outcome is TraverseOutcome.COMPLETED
    assert events == [(3, 0, 8, 2, TraverseOutcome.COMPLETED)]
    # skip 0 + cursor 1 (1) + skip 2 + cursor 3 (1) + cursor 4 (1 step + 2)
    assert metrics.candidate_evaluations == 7


def test_sweep_swap_keeping_the_sign_goes_on():
    # a swap that keeps d's sign lets the sweep go on; exact mode keeps d
    # bit for bit
    state = make_state([1, 2, 3, 8], {0, 2})
    assert run_traverse(state, SolverConfig(), Metrics()) is TraverseOutcome.COMPLETED
    assert state.d == -4
    assert state.in_set1 == [False, True, True, False]
    recompute_sums(state)  # exact mode: must agree bit for bit


def test_sweep_swap_to_zero_ends_the_sweep():
    outcome, events, metrics, state = _sweep([1, 2, 3, 4], {0, 2})
    assert outcome is TraverseOutcome.ZERO_REACHED and state.d == 0
    assert events == [(1, 0, -2, 0, TraverseOutcome.ZERO_REACHED)]
    assert metrics.candidate_evaluations == 2  # 1 skip + 1 scanned


def test_sweep_float_swap_flipping_the_sign_ends_the_sweep():
    # float input reaches the sweep as ints at one power-of-two scale, so d
    # and every d' are exact.  d = 0.7 + 0.9 - 0.1 - 0.2 - 0.5 > 0; cursor 4
    # (0.7) scores indices 1, 2, 3 and stops at 3, where d' regains d's
    # sign.  The best, index 2, flips the sign: d' = d - 2*0.7 + 2*0.2
    values = (0.0, 0.1, 0.2, 0.5, 0.7, 0.9)
    start = init_partition(normalize_and_sort(Instance(values, Mode.FLOAT64)), SolverConfig())
    ints, scale = start.values, start.scale
    assert [Fraction(x) * scale for x in values] == list(ints)
    outcome, events, metrics, state = _sweep(ints, {0, 4, 5})
    d = ints[0] + ints[4] + ints[5] - ints[1] - ints[2] - ints[3]
    assert outcome is TraverseOutcome.SIGN_FLIPPED
    assert events == [(4, 2, d, d - 2 * ints[4] + 2 * ints[2], TraverseOutcome.SIGN_FLIPPED)]
    assert state.d == d - 2 * ints[4] + 2 * ints[2] and state.d / scale == pytest.approx(-0.2)
    assert metrics.candidate_evaluations == 6  # 3 skips + 0 + 3
    assert (metrics.swaps, metrics.sign_changes) == (1, 1)


def test_run_traverse_completed():
    state = make_state([1, 2, 3, 8], {0, 2})
    metrics = Metrics()
    out = run_traverse(state, SolverConfig(), metrics)
    assert out is TraverseOutcome.COMPLETED
    assert state.d == -4
    assert metrics.swaps == 1
    assert metrics.traverses == 1


def test_run_traverse_zero_reached():
    state = make_state([1, 2, 3, 4], {0, 2})
    out = run_traverse(state, SolverConfig(), Metrics())
    assert out is TraverseOutcome.ZERO_REACHED
    assert state.d == 0


def test_run_traverse_no_swaps_on_identical():
    state = make_state([5, 5, 5, 5], {0, 1})
    metrics = Metrics()
    assert run_traverse(state, SolverConfig(), metrics) is TraverseOutcome.COMPLETED
    assert metrics.swaps == 0


def test_run_traverse_counts_skipped_cursors():
    # d == 0 at the start: every cursor is skipped, one evaluation each
    outcome, events, metrics, _ = _sweep([1, 2, 3, 4], {0, 3})
    assert outcome is TraverseOutcome.COMPLETED and events == []
    assert metrics.candidate_evaluations == metrics.max_traverse_evaluations == 4

    # split init: side 2 (the top half) is larger, so the bottom half and
    # every cursor that left side 2 by swapping is a skip; the reference
    # sweep, which sends every cursor through its scan, counts the same
    rng = random.Random(5)
    si = normalize_and_sort(Instance.from_values([rng.randint(1, 1000) for _ in range(40)]))
    state = init_partition(si, SolverConfig(init_strategy=InitStrategy.SPLIT_HALF))
    assert state.d < 0
    reference = _copy_state(state)
    metrics, trace, ref_metrics, ref_trace = Metrics(), [], Metrics(), []
    with checked_scans():
        outcome = core.run_traverse(state, SolverConfig(), metrics, trace)
    assert linear_scan_sweep(reference, SolverConfig(), ref_metrics, ref_trace) is outcome
    assert (trace, metrics, state) == (ref_trace, ref_metrics, reference)
    assert metrics.swaps > 0 and metrics.candidate_evaluations > len(si) // 2


@st.composite
def _sweep_starts(draw):
    """Sorted ints, tie-heavy alphabets included, and any membership."""
    values = sorted(draw(st.one_of(
        st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.lists(st.integers(0, 1), min_size=1, max_size=40),
    )))
    return values, draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))


@given(_sweep_starts())
@example(([1, 2, 3, 4], [True, False, False, True]))  # d == 0
@example(([1, 1, 1, 1, 1, 2, 2, 5], [True] * 4 + [False] * 4))  # d < 0, ties below the floor
@settings(max_examples=400, deadline=None)
def test_sweeps_are_symmetric_under_swapping_the_side_labels(start):
    # flipping every membership bit negates d and nothing else: the sweeps
    # must make the same moves with the same outcomes and counters, with
    # every d negated; this checks d < 0 against d > 0, flip by flip
    values, in_set1 = start
    runs = []
    for membership in (in_set1, [not b for b in in_set1]):
        state = PartitionState.from_membership(tuple(values), list(membership), Mode.EXACT_INT)
        metrics, trace, outcomes = Metrics(), [], [TraverseOutcome.SIGN_FLIPPED]
        while outcomes[-1] is TraverseOutcome.SIGN_FLIPPED and len(outcomes) <= len(values) + 2:
            outcomes.append(run_traverse(state, SolverConfig(), metrics, trace))
        runs.append((outcomes, trace, metrics, state))
    (outcomes, trace, metrics, state), (f_outcomes, f_trace, f_metrics, f_state) = runs
    assert f_outcomes == outcomes and f_metrics == metrics
    assert [(e.cursor, e.partner, e.outcome) for e in f_trace] == [
        (e.cursor, e.partner, e.outcome) for e in trace]
    assert [(-e.d_before, -e.d_after) for e in f_trace] == [
        (e.d_before, e.d_after) for e in trace]
    assert f_state.d == -state.d and f_state.in_set1 == [not b for b in state.in_set1]


def linear_scan_sweep(state, cfg, metrics, trace=None):
    """run_traverse as it was when every cursor was visited and its partner
    found by scanning its window element by element, kept as the reference
    for every choice and count the sweep makes."""
    metrics.traverses += 1
    values, in_set1, d = state.values, state.in_set1, state.d
    larger = d > 0 if d else None
    sign = 1 if larger else -1
    e = sign * d
    evals, floor, tie_value, tie = 0, -1, None, None
    outcome = TraverseOutcome.COMPLETED
    for n in range(len(values)):
        if in_set1[n] != larger:
            evals += 1
            continue
        window = range(floor + 1, n)
        if floor > 0 and values[floor - 1] == values[floor]:
            if values[floor] != tie_value:
                tie_value = values[floor]
                tie = bisect.bisect_left(values, tie_value, 0, floor)
            while tie < floor and in_set1[tie] == larger:
                tie += 1
                evals += 1
            if tie < floor:
                window = itertools.chain((tie,), window)
        c = e - 2 * values[n]
        partner, best = None, e
        for j in window:
            evals += 1
            new_e = c + 2 * values[j]
            if abs(new_e) < best:
                partner, best, best_e = j, abs(new_e), new_e
            if new_e >= 0:
                break
        if partner is None:
            floor = n
            continue
        floor = max(floor, partner)
        in_set1[n], in_set1[partner] = not larger, larger
        metrics.swaps += 1
        outcome = (TraverseOutcome.ZERO_REACHED if best_e == 0 else
                   TraverseOutcome.SIGN_FLIPPED if best_e < 0 else TraverseOutcome.COMPLETED)
        metrics.sign_changes += best_e < 0
        if trace is not None:
            trace.append(SwapEvent(n, partner, sign * e, sign * best_e, outcome))
        e = best_e
        if outcome is not TraverseOutcome.COMPLETED:
            break
    state.d = sign * e
    metrics.candidate_evaluations += evals
    metrics.max_traverse_evaluations = max(metrics.max_traverse_evaluations, evals)
    return outcome


def _untimed(m):
    """The counters of m with wall_time_ns zeroed, as a new Metrics."""
    return Metrics(m.traverses, m.swaps, m.sign_changes, m.candidate_evaluations, 0,
                   m.max_traverse_evaluations)


def _solve_outcome(values, cfg, card1):
    """Everything a solve decides, floats by repr; the message of a guard trip."""
    try:
        r = solve(Instance.from_values(values), cfg, card1)
    except InternalConsistencyError as exc:
        return str(exc)
    return (r.partition.in_set1, repr(r.partition.d), repr(r.trace), _untimed(r.metrics))


_decimal_floats = st.tuples(
    st.sampled_from([0.1, 0.2, 0.3, 1e-9, 7.0, -0.3, 2.5]), st.sampled_from([1, 3])
).map(lambda p: p[0] * p[1])


def _block_membership(data, n):
    """A start in runs of one side over the sorted indices, as split init
    makes: long runs of larger-side cursors, many of them right above a
    floor."""
    side = data.draw(st.booleans())
    runs = data.draw(st.lists(st.integers(1, max(1, n // 2)), min_size=1, max_size=8))
    membership = []
    for run in runs:
        membership += [side] * run
        side = not side
    return (membership + [side] * n)[:n]


@given(
    st.one_of(
        st.lists(st.integers(-50, 50), min_size=2, max_size=40),
        st.lists(st.integers(0, 3), min_size=2, max_size=40),
        st.lists(_decimal_floats, min_size=2, max_size=40),
        st.lists(st.integers(1, 10**6), min_size=2, max_size=200),
        st.lists(st.integers(0, 9), min_size=2, max_size=200),
        st.lists(st.integers(1, 10**9), min_size=2, max_size=400),  # wide gaps
        # the equal-value group jump: a zero block as solve_traditional pads
        # it, and long runs of equal values
        st.tuples(st.integers(1, 200), st.lists(st.integers(1, 10**6), min_size=1, max_size=200))
        .map(lambda p: [0] * p[0] + p[1]),
        st.lists(st.tuples(st.integers(-3, 20), st.integers(50, 200)), min_size=1, max_size=4)
        .map(lambda runs: [v for v, k in runs for _ in range(k)]),
    ),
    st.sampled_from(ALL_STRATEGIES + [None]),  # None: a block-structured start
    st.booleans(),
    st.data(),
)
# given block starts (a list is the sorted membership) at the edges of the
# walk over empty windows: from cursor 0 over all-equal values, where it
# reads values[-1]; to a tied third floor; to the top index; to a
# smaller-side cell; each with d > 0 and with d < 0 at the walk; and a
# membership of 0/1 ints, on which the walk's `is` stops at once
@example([5] * 6, [True] * 4 + [False] * 2, False, None)
@example([0, 1, 1, 1, 1, 1, 1, 2], [True] * 4 + [False] * 3 + [True], False, None)
@example([0, 1, 1, 1, 1, 1, 1, 1], [False] * 4 + [True, False, False, True], False, None)
@example([2, 3, 4, 4, 4, 5, 6, 7], [True, False, False, True, True, False, True, True], False, None)
@example([1, 4, 4, 5, 5, 6, 7, 7], [False] * 3 + [True] * 3 + [False] * 2, False, None)
@example([0, 0, 0, 1], [False, False, True, False], False, None)
@example([0, 0, 0, 1], [True, True, False, True], False, None)
@example([1, 4, 4, 5, 5, 6, 7, 7], [0, 0, 0, 1, 1, 1, 0, 0], False, None)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_reference(values, cfg, pinned, data):
    # swap traces, memberships, final d, drift and every counter (or the
    # guard's message) are identical to the reference sweep's
    card1 = data.draw(st.integers(1, len(values) - 1)) if pinned else None
    if card1 is None and len(values) % 2:
        values = values[:-1]
    start = contextlib.nullcontext()
    if cfg is None:
        cfg = _block_membership(data, len(values))
    if isinstance(cfg, list):
        blocks = cfg
        start = mock.patch.object(core, "_initial_membership", lambda *_: list(blocks))
        cfg = SolverConfig()
    cfg = SolverConfig(cfg.init_strategy, cfg.seed, collect_trace=True)
    with start:
        with mock.patch.object(core, "run_traverse", linear_scan_sweep):
            expected = _solve_outcome(values, cfg, card1)
        assert _solve_outcome(values, cfg, card1) == expected


def _two_decimals(rng):
    # as tie-dense as two-decimal floats in [0, 1000] at 2^17: 2258 distinct
    return rng.randint(0, 3000) / 100


@pytest.mark.parametrize("cfg, draw", [
    pytest.param(cfg, draw, id=cfg.init_strategy.value + suffix)
    for draw, suffix in ((lambda rng: rng.randint(1, 10**9), ""), (_two_decimals, "-two_decimals"))
    for cfg in ALL_STRATEGIES])
def test_sweep_matches_reference_at_4096(cfg, draw):
    # one seeded solve per init.  On ints the gap reject runs 1279-3174
    # times in the alternating, random and greedy descents, once in split's
    # one sweep; on two-decimal floats it rejects a cursor above a tied
    # floor 63-865 times per init
    rng = random.Random(4096)
    values = [draw(rng) for _ in range(4096)]
    cfg = SolverConfig(cfg.init_strategy, cfg.seed, collect_trace=True)
    with mock.patch.object(core, "run_traverse", linear_scan_sweep):
        expected = _solve_outcome(values, cfg, None)
    assert _solve_outcome(values, cfg, None) == expected
    assert expected[-1].swaps > 0


@pytest.mark.parametrize("cfg", ALL_STRATEGIES, ids=lambda c: c.init_strategy.value)
def test_traditional_sweep_matches_reference_at_4096(cfg):
    # 4096 dummy zeros: the sweep jumps the zero group's cursors
    rng = random.Random(4096)
    instance = Instance.from_values([rng.randint(1, 10**9) for _ in range(4096)])
    cfg = SolverConfig(cfg.init_strategy, cfg.seed, collect_trace=True)
    with mock.patch.object(core, "run_traverse", linear_scan_sweep):
        expected = _traditional_outcome(instance, cfg)
    assert _traditional_outcome(instance, cfg) == expected


def _traditional_outcome(instance, cfg):
    """Everything solve_traditional decides, its padded solve's included."""
    r = solve_traditional(instance, cfg)
    rep = r.extended_report
    return (r.part1, r.part2, rep.partition.in_set1, rep.partition.d, rep.trace,
            _untimed(rep.metrics))


_FLOAT_ALPHABET = (0.1, 0.3, 0.2, 0.6, 0.9, 1e-9, 3e-9, 7, 21)


def _seeded_start(seed):
    """A descent's start for seed: N in 2..257 values from {0..3},
    {-20..20}, ints up to 10^9 or the float alphabet (scaled to ints by
    init_partition), any init, half of them with a pinned k (every odd N),
    and half with the side labels swapped, so both signs of d occur."""
    rng = random.Random(seed)
    n = rng.randint(2, 257)
    draw = [lambda: rng.randint(0, 3), lambda: rng.randint(-20, 20),
            lambda: rng.randint(1, 10**9), lambda: rng.choice(_FLOAT_ALPHABET)][seed % 4]
    values = [draw() for _ in range(n)]
    card1 = rng.randint(1, n - 1) if n % 2 or rng.random() < 0.5 else None
    cfg = ALL_STRATEGIES[rng.randrange(4)]
    state = init_partition(normalize_and_sort(Instance.from_values(values)), cfg, card1)
    if rng.random() < 0.5:
        state.in_set1, state.d = [not m for m in state.in_set1], -state.d
    return state


def _descent(sweep, state):
    """Sweeps until one does not flip the sign: every outcome, the trace,
    the counters, the final membership and d."""
    metrics, trace, outcomes = Metrics(), [], []
    while not outcomes or outcomes[-1] is TraverseOutcome.SIGN_FLIPPED:
        assert len(outcomes) <= len(state.values) + 2
        outcomes.append(sweep(state, SolverConfig(), metrics, trace))
    return outcomes, trace, metrics, state.in_set1, state.d


def test_run_traverse_matches_the_linear_scan_on_seeded_states():
    # the partner taken in O(1) or by bisection makes every choice and
    # counts every evaluation the element-by-element scan does
    signs = set()
    for seed in range(3000):
        state = _seeded_start(seed)
        signs.add(state.d > 0)
        expected = _descent(linear_scan_sweep, _copy_state(state))
        assert _descent(run_traverse, state) == expected, seed
    assert signs == {False, True}


def _bulk_runs(outcome):
    """outcome() and the number of runs run_traverse took in bulk meanwhile."""
    with mock.patch.object(core, "_take_run", wraps=core._take_run) as take:
        result = outcome()
    return result, take.call_count


_RUN_DRAWS = {
    "ints": lambda rng, n: rng.randint(1, 10**9),
    # about one draw in nine repeats an earlier one: tie groups in the runs
    "ties": lambda rng, n: rng.randint(1, 4 * n),
    "negative": lambda rng, n: rng.randint(-10**9, 10**9),
    "floats": lambda rng, n: rng.randint(1, 10**6) / 100,
}


# Under equal cardinality e <= (N / 2) * span, so no run can pass the gate
# e > 2 * _RUN_MIN * span below N = 4 * _RUN_MIN + 2; split init at 4096
# is test_sweep_matches_reference_at_4096's split row.  A pinned k = N - 1
# under split init leaves no opposing element below any cursor, so that
# row takes alternating init, which starts a run above its one opposing
# element.
@pytest.mark.parametrize("family, n, init, card1", [
    ("ints", 256, "split", None),
    ("ints", 1024, "split", None),
    ("ints", 128, "split", 1),
    ("ints", 1024, "split", 1),
    ("ints", 1024, "alternating", 1023),
    ("ties", 1024, "split", None),
    ("negative", 1024, "split", None),
    ("floats", 1024, "split", None),
])
def test_bulk_runs_match_the_linear_scan(family, n, init, card1):
    # every trace event, counter, membership and d of a solve whose runs of
    # O(1) accepts are taken in bulk is the element-by-element scan's
    rng = random.Random(n)
    values = [_RUN_DRAWS[family](rng, n) for _ in range(n)]
    cfg = SolverConfig(init_strategy=InitStrategy(init), collect_trace=True)
    with mock.patch.object(core, "run_traverse", linear_scan_sweep):
        expected = _solve_outcome(values, cfg, card1)
    got, runs = _bulk_runs(lambda: _solve_outcome(values, cfg, card1))
    assert got == expected
    assert runs > 0


@pytest.mark.parametrize("low", [-10**9, 1])
def test_bulk_runs_match_the_linear_scan_in_solve_traditional(low):
    # on positive inputs the split start's partners are the dummy zeros, one
    # tie group, and no run is taken; negative inputs give distinct partners
    rng = random.Random(1024)
    instance = Instance.from_values([rng.randint(low, 10**9) for _ in range(1024)])
    cfg = SolverConfig(init_strategy=InitStrategy.SPLIT_HALF, collect_trace=True)
    with mock.patch.object(core, "run_traverse", linear_scan_sweep):
        expected = _traditional_outcome(instance, cfg)
    got, runs = _bulk_runs(lambda: _traditional_outcome(instance, cfg))
    assert got == expected
    assert (runs > 0) is (low < 0)


def test_bulk_run_over_spread_cursors_matches_the_linear_scan():
    # every third cell above the smaller side's block is a smaller-side
    # cell, so each window of a run holds smaller-side cells between its
    # cursors, which count one evaluation each
    rng = random.Random(3)
    values = tuple(sorted(rng.randint(1, 10**9) for _ in range(1024)))
    in_set1 = [i < 400 or i % 3 == 0 for i in range(1024)]
    state = PartitionState.from_membership(values, in_set1, Mode.EXACT_INT)
    expected = _descent(linear_scan_sweep, _copy_state(state))
    got, runs = _bulk_runs(lambda: _descent(run_traverse, state))
    assert got == expected
    assert runs > 0


# (traverses, swaps, sign_changes, candidate_evaluations,
# max_traverse_evaluations) of seeded 2^12 solves, as the linear scan
# counted them; the long scans of split init occur from N of a few hundred
_PINNED_COUNTERS_4096 = {
    ("ints", "alternating"): (5, 46, 4, 6786, 4096),
    ("ints", "split"): (1, 1008, 0, 5104, 5104),
    ("ints", "random"): (7, 270, 6, 8695, 4091),
    ("ints", "greedy"): (5, 7, 4, 4196, 4097),
    ("floats", "alternating"): (8, 52, 7, 10913, 4102),
    ("floats", "split"): (1, 1006, 0, 5104, 5104),
    ("floats", "random"): (1, 261, 0, 4359, 4359),
    ("floats", "greedy"): (4, 6, 3, 4988, 4102),
    ("digits", "alternating"): (1, 1, 0, 402, 402),
    ("digits", "split"): (1, 1022, 0, 4295, 4295),
    ("digits", "random"): (1, 66, 0, 674, 674),
    ("digits", "greedy"): (1, 0, 0, 4096, 4096),
}


@pytest.mark.parametrize("family, init", sorted(_PINNED_COUNTERS_4096))
def test_counters_pinned_at_4096(family, init):
    # ints in [1, 10^9], two-decimal floats and digits {0..9}
    rng = random.Random(4096)
    draw = {"ints": lambda: rng.randint(1, 10**9), "floats": lambda: rng.randint(1, 10**6) / 100,
            "digits": lambda: rng.randint(0, 9)}[family]
    cfg = SolverConfig(init_strategy=InitStrategy(init), seed=1)
    m = solve(Instance.from_values([draw() for _ in range(4096)]), cfg).metrics
    assert (m.traverses, m.swaps, m.sign_changes, m.candidate_evaluations,
            m.max_traverse_evaluations) == _PINNED_COUNTERS_4096[family, init]


def _exact_objective(values, set1, set2):
    """|S1 - S2| of input-index sides, exact, then correctly rounded."""
    exact = sum(map(Fraction, map(values.__getitem__, set1))) - sum(
        map(Fraction, map(values.__getitem__, set2)))
    return float(abs(exact))


def _assert_exact_float_report(report):
    """A float solve reports the descent's own state: the sorted input
    times scale as exact ints, the exact d, and every trace d an int, the
    state from_membership builds; the objective is |d| / scale rounded
    once, and the verifier's verdict is the one it gives on the input-unit
    state of the same membership, as the oracle builds it."""
    state, si = report.partition, report.sorted_instance
    assert state == PartitionState.from_membership(si.sorted_values, state.in_set1, Mode.FLOAT64)
    assert report.objective == abs(state.d) / state.scale
    assert all(type(e.d_before) is int and type(e.d_after) is int for e in report.trace)
    recompute_sums(state)
    floats = _input_unit_state(si.sorted_values, state.in_set1)
    for tolerance in (0.0, 1e-12, 1e-3):
        assert (is_locally_optimal_pairswap(state, tolerance)
                == is_locally_optimal_pairswap(floats, tolerance))


@given(
    st.lists(_decimal_floats, min_size=2, max_size=40),
    st.sampled_from(ALL_STRATEGIES),
    st.sampled_from(["equal", "pinned", "traditional"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_float_input_gets_the_integer_guarantees(values, cfg, kind, data):
    # float input runs the exact integer descent: no guard trip, at most N+2
    # sweeps, a tolerance-0 certificate, and the objective is the correctly
    # rounded exact difference of the reported sides
    inst = Instance(tuple(values), Mode.FLOAT64)
    cfg = SolverConfig(cfg.init_strategy, cfg.seed, collect_trace=True)
    if kind == "traditional":
        result = solve_traditional(inst, cfg)
        report, set1, set2 = result.extended_report, result.part1, result.part2
        assert is_locally_optimal_transfer(result)
    else:
        card1 = data.draw(st.integers(1, len(values) - 1)) if kind == "pinned" else None
        if card1 is None and len(values) % 2:
            inst = Instance(inst.values[:-1], Mode.FLOAT64)
        report = solve(inst, cfg, card1)
        set1, set2 = report.original_set1, report.original_set2
    assert report.metrics.traverses <= len(report.partition.values) + 2
    assert is_locally_optimal_pairswap(report.partition)
    assert report.objective == _exact_objective(inst.values, set1, set2)
    _assert_exact_float_report(report)  # the report is the descent's exact state


@pytest.mark.parametrize("values", [
    (5e-324, 1.0, 2.0, 3.0),  # a subnormal: 2^k leaves the float range
    (1e300, 1e-300),  # max|x| * 2^k leaves the float range
    (-0.0, 0.5, -0.0, 2.0),
    (0.0, 0.0, -0.0, 0.0),
    (0.25, -0.5, 3.0, 2.0**60),
])
def test_scaled_ints_are_exact_at_the_edges(values):
    ints, scale = core.scaled_ints(values)
    assert scale & (scale - 1) == 0 and all(type(i) is int for i in ints)
    assert [Fraction(x) * scale for x in values] == list(ints)
    r = solve(Instance(values, Mode.FLOAT64), SolverConfig(collect_trace=True))
    assert is_locally_optimal_pairswap(r.partition)
    assert r.objective == _exact_objective(values, r.original_set1, r.original_set2)
    _assert_exact_float_report(r)


# ---------------------------------------------------------------------- solve


def test_solve_examples():
    for cfg in ALL_STRATEGIES:
        r = solve(Instance.from_values([1, 2, 3, 8]), cfg)
        assert r.objective == 4
        r = solve(Instance.from_values([1, 2, 3, 4]), cfg)
        assert r.objective == 0


def test_solve_two_elements():
    r = solve(Instance.from_values([9, 2]))
    assert r.objective == 7
    assert r.original_set1 == (1,) or r.original_set1 == (0,)


def test_solve_rejects_odd_and_small():
    with pytest.raises(InvalidCardinalityError):
        solve(Instance.from_values([1, 2, 3]))


def test_solve_report_maps_back_to_original_indices():
    values = [8, 1, 3, 2]
    r = solve(Instance.from_values(values))
    assert sorted(r.original_set1 + r.original_set2) == [0, 1, 2, 3]
    s1 = sum(values[i] for i in r.original_set1)
    s2 = sum(values[i] for i in r.original_set2)
    assert abs(s1 - s2) == r.objective


def test_solve_metrics_invariants():
    for cfg in ALL_STRATEGIES:
        r = solve(Instance.from_values([5, 9, 1, 14, 20, 3]), cfg)
        m = r.metrics
        assert m.sign_changes == m.traverses - 1
        assert m.swaps >= m.sign_changes
        assert m.traverses <= traverse_guard(6, Mode.EXACT_INT)


def test_solve_raises_past_the_nontermination_guard(monkeypatch):
    # no input is known to need N+2 sweeps; this one takes 2, so a ceiling
    # of 1 trips
    instance = Instance.from_values([15, 20, 1, 26, 8, 21, 6, 18])
    assert solve(instance).metrics.traverses == 2
    monkeypatch.setattr(core, "traverse_guard", lambda n: 1)
    with pytest.raises(InternalConsistencyError,
                       match=r"^nontermination guard tripped after 1 traverses$"):
        solve(instance)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_solve_pair(a, b):
    r = solve(Instance.from_values([a, b]))
    assert r.objective == abs(a - b)


# ------------------------------------------------------- local optimality check


def test_pairswap_check_examples():
    state = make_state([1, 2, 3, 8], {2, 3})  # d = 8
    assert is_locally_optimal_pairswap(state) is False
    a, b = pairswap_witness(state)
    assert abs(_reference_pair_diff(state, a, b)) < 8

    state = make_state([5, 5, 5, 5], {0, 1})  # d = 0
    assert is_locally_optimal_pairswap(state) is True

    state = make_state([1, 2, 3, 8], {1, 2})  # |d| = 4
    assert is_locally_optimal_pairswap(state) is True

    # values out of order: side 1 holds 0, 4, 1; only the 1 (met after the 4
    # in index order) has an improving partner, a 0 on side 2
    state = PartitionState.from_membership(
        (0, 0, 1, 1, 4, 1), [True, False, False, False, True, True], Mode.EXACT_INT
    )
    assert is_locally_optimal_pairswap(state) is False  # d = 3
    assert pairswap_witness(state) == (5, 1) and _reference_pair_diff(state, 5, 1) == 1


def _pairswap_states():
    """(state, tolerance) over the families where the check could slip: ints
    with negatives and duplicates, decimal-duplicate floats (rounding ties),
    sides longer than 64, pinned side-1 sizes, solved and random
    memberships, values in sorted or shuffled order, float states in input
    units or, as the solver keeps them, as ints times a scale of 2^k (the
    solver's own state too), where a tolerance counts scale times, and
    tolerances other than zero, some of them 1 or more, so that an int
    state's s = floor(T) is not 0 and its keys are shifted."""
    ints = st.lists(st.integers(-50, 50), min_size=2, max_size=160)
    floats = st.lists(
        st.sampled_from([0.1, 0.2, 0.3, 1e-9, 7.0, -0.3, 2.5]), min_size=2, max_size=160
    )

    @st.composite
    def build(draw):
        values = sorted(draw(st.one_of(ints, floats)))
        mode = Mode.FLOAT64 if isinstance(values[0], float) else Mode.EXACT_INT
        n = len(values)
        k = draw(st.integers(1, n - 1))
        tolerance = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.25, 1.0, 2.5, 7.0, -0.1, -1.0]))
        set1 = set(draw(st.permutations(range(n)))[:k])
        if draw(st.booleans()):
            r = solve(Instance(tuple(values), mode), SolverConfig(), card1=k)
            if draw(st.booleans()):
                return r.partition, tolerance
            set1 = set(r.partition.set1_indices())
        order = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
        values, in_set1 = tuple(values[i] for i in order), [i in set1 for i in order]
        if mode is Mode.FLOAT64 and draw(st.booleans()):
            return _input_unit_state(values, in_set1), tolerance
        return PartitionState.from_membership(values, in_set1, mode), tolerance

    return build()


def _int_case(values, set1, tolerance):
    in_set1 = [i in set1 for i in range(len(values))]
    return PartitionState.from_membership(values, in_set1, Mode.EXACT_INT), tolerance


def _input_unit_state(values, in_set1):
    """Float values in input units, as oracle.enumerate_equal_partitions
    yields them: d is the exact difference rounded once, a float."""
    exact = PartitionState.from_membership(values, in_set1, Mode.FLOAT64)
    return PartitionState(values, in_set1, exact.d / exact.scale)


@given(_pairswap_states())
# s = floor(T) and a swap of x_L with x_S improves iff s < 2(x_L - x_S) < 2|d| - s.
# d = -4, s = 2: the 2 <-> 1 swaps sit on the lower bound, so none improves;
# shifting the smaller side's keys instead of the larger's passes the 1 <-> 1
@example(_int_case((1, 1, 2, 2), {0}, 2.0))
# d = -3, s = 2: the 3 <-> 1 swap sits on the upper bound, 2(x_L - x_S) = 2|d| - s
@example(_int_case((0, 1, 1, 3), {1}, 2.0))
# d = -5, s = 2: the 3 <-> 1 swap is just above the lower bound, 4 > 2
@example(_int_case((1, 1, 2, 3), {1}, 2.0))
# d = -7, s = 4: the 4 <-> 0 swap is just below the upper bound, 8 < 10; a
# threshold of |d| - s on the keys, not 2(|d| - s), misses it
@example(_int_case((0, 1, 2, 4), {0}, 4.0))
# scale 2^56, d = 2.35 in input units: the best swaps (0.2 <-> 0.1 and
# 3.0 <-> 0.75) give |d'| = 2.15, a gain of 0.2 < T = 0.25, so none counts;
# a reference that reads T in scaled units (0.25 / 2^56) takes the first
@example((PartitionState.from_membership((0.1, 0.2, 0.75, 3.0), [False, True, False, True],
                                         Mode.FLOAT64), 0.25))
@settings(max_examples=400, deadline=None)
def test_pairswap_check_matches_all_pairs_reference(case):
    state, tolerance = case
    assert is_locally_optimal_pairswap(state, tolerance) == (
        pairswap_witness(state, tolerance) is None
    )


@st.composite
def _big_int_states(draw):
    """Int states with |d| past 2^53 (up to about 2^61.6), where a float
    threshold would round: up to three large values plus small ones that
    make near-equal and equal-|d| swaps, zeros included."""
    big = st.integers(1 << 53, 1 << 60)
    bigs = draw(st.lists(big | big.map(operator.neg), min_size=1, max_size=3))
    values = tuple(sorted(bigs + draw(st.lists(st.integers(-40, 40), min_size=1, max_size=10))))
    in_set1 = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return PartitionState.from_membership(values, in_set1, Mode.EXACT_INT)


@given(_big_int_states())
# |d| = 2^60 + 200 rounds up to 2^60 + 256: the 0 transfer and the 1 <-> 0
# swap keep or raise |d| exactly, but not against a rounded threshold
@example(PartitionState.from_membership((0, 1, 2, (1 << 60) + 203), [True, False, False, True],
                                        Mode.EXACT_INT))
@settings(max_examples=300, deadline=None)
def test_zero_tolerance_verdicts_are_exact_past_2_53(state):
    side1 = [state.values[i] for i in state.set1_indices()]
    side2 = [state.values[i] for i in state.set2_indices()]
    d = sum(side1) - sum(side2)
    assert state.d == d
    swap_optimal = not any(abs(d - 2 * a + 2 * b) < abs(d) for a in side1 for b in side2)
    assert is_locally_optimal_pairswap(state) == swap_optimal
    assert (pairswap_witness(state) is None) == swap_optimal
    result = TraditionalResult(state.set1_indices(), state.set2_indices(), abs(d),
                               Instance(state.values, Mode.EXACT_INT), None)
    transfer_optimal = not any(abs(d - 2 * x) < abs(d) for x in side1) and not any(
        abs(d + 2 * x) < abs(d) for x in side2
    )
    assert is_locally_optimal_transfer(result) == transfer_optimal


def _gap_pass_case(values, in_set1):
    """(state, the same state in descending order, which takes the sorted keys)."""
    state = PartitionState.from_membership(values, in_set1, Mode.EXACT_INT)
    return state, PartitionState(values[::-1], in_set1[::-1], state.d, state.scale)


@st.composite
def _solver_shaped_states(draw):
    """(state, shuffled copy) of sorted solver-shaped states: tie-heavy
    alphabets, ints past 2^53, two-decimal floats, d = 0, pinned side-1
    sizes, solved and random memberships."""
    alphabet = draw(st.sampled_from([
        st.integers(0, 3),
        st.sampled_from([0, 5, 7, 9, 100]),
        st.integers(-20, 20),
        st.integers(1 << 53, (1 << 53) + 6) | st.integers(-3, 3),
        st.sampled_from([0.1, 0.2, 0.25, 0.3, 7.0]),
    ]))
    values = sorted(draw(st.lists(alphabet, min_size=2, max_size=20)))
    mode = Mode.FLOAT64 if isinstance(values[0], float) else Mode.EXACT_INT
    how = draw(st.sampled_from(["random", "solved", "d = 0"]))
    if how == "d = 0":  # every value twice, one copy on each side
        values = sorted(values + values)
        in_set1 = [i % 2 == 0 for i in range(len(values))]
        state = PartitionState.from_membership(tuple(values), in_set1, mode)
        assert state.d == 0
    else:
        n = len(values)
        k = draw(st.integers(1, n - 1))
        if how == "solved":
            cfg = SolverConfig(init_strategy=draw(st.sampled_from(InitStrategy)), seed=3)
            state = solve(Instance(tuple(values), mode), cfg, card1=k).partition
        else:
            set1 = set(draw(st.permutations(range(n)))[:k])
            state = PartitionState.from_membership(
                tuple(values), [i in set1 for i in range(n)], mode)
    order = draw(st.permutations(range(len(values))))
    shuffled = PartitionState(tuple(state.values[i] for i in order),
                              [state.in_set1[i] for i in order], state.d, state.scale)
    return state, shuffled


@given(_solver_shaped_states())
# the gap equals |d|: no improvement (a `<=` would reject it)
@example(_gap_pass_case((0, 1), [False, True]))
# the 1-group holds the smaller side's 1 before the larger side's: 2 <-> 1
# improves although the 2's neighbour by position is on the larger side
@example(_gap_pass_case((1, 1, 2), [False, True, True]))
# the 2-group has no smaller-side member, so the 3 is not 1 above one; the
# 0 is 3 below it, past |d| = 2
@example(_gap_pass_case((0, 2, 3, 3), [False, True, False, True]))
@example(_gap_pass_case((4, 4, 4, 4), [True, False, True, False]))  # d = 0
@settings(max_examples=400, deadline=None)
def test_tolerance_zero_gap_pass_and_sorted_keys_match_reference(case):
    # a sorted state takes the gap pass on its values; its shuffled copy,
    # almost always out of order, takes the pass on sorted keys: both must
    # give pairswap_witness's all-pairs verdict
    state, shuffled = case
    verdict = is_locally_optimal_pairswap(state)
    assert verdict == (pairswap_witness(state) is None)
    assert verdict == is_locally_optimal_pairswap(shuffled)


class _Unread(list):
    def __iter__(self):
        raise AssertionError("the membership was read")


def test_zero_difference_is_optimal_without_a_pass():
    assert is_locally_optimal_pairswap(PartitionState.from_membership((), [], Mode.EXACT_INT))
    state = PartitionState((1, 2, 3, 4), _Unread([True, False, False, True]), 0)
    assert is_locally_optimal_pairswap(state) is True
    assert is_locally_optimal_pairswap(state, 0.25) is True


# -------------------------------------------------------------- recompute_sums


def test_recompute_exact_matches_after_solving():
    r = solve(Instance.from_values([7, 3, 12, 9, 4, 1]))
    recompute_sums(r.partition)  # must not raise


def test_recompute_detects_corruption():
    state = make_state([1, 2, 3, 8], {0, 1})
    state.d += 2
    with pytest.raises(InternalConsistencyError):
        recompute_sums(state)


# ------------------------------------------------------------------ properties

even_int_lists = st.lists(st.integers(0, 10**6), min_size=4, max_size=16).filter(
    lambda v: len(v) % 2 == 0
)


@given(even_int_lists, st.sampled_from(range(4)))
@settings(max_examples=200, deadline=None)
def test_solve_invariants(values, strategy_idx):
    cfg_base = ALL_STRATEGIES[strategy_idx]
    cfg = SolverConfig(
        init_strategy=cfg_base.init_strategy,
        seed=cfg_base.seed,
        collect_trace=True,
    )
    r = solve(Instance.from_values(values), cfg)
    n = len(values)
    # output is locally optimal at tolerance 0
    assert is_locally_optimal_pairswap(r.partition)
    # |d| strictly decreases at every swap
    diffs = [abs(e.d_before) for e in r.trace] + (
        [abs(r.trace[-1].d_after)] if r.trace else []
    )
    assert all(x > y for x, y in zip(diffs, diffs[1:]))
    # every swap removes the larger element from the larger-sum side
    for e in r.trace:
        assert e.cursor > e.partner
        assert r.partition.values[e.cursor] > r.partition.values[e.partner]
    # cardinality conserved, traverse bound holds
    assert sum(r.partition.in_set1) == n // 2
    assert r.metrics.traverses <= n + 2
    assert r.objective == abs(r.partition.d)


@given(
    st.lists(st.integers(1, 30), min_size=4, max_size=10).filter(lambda v: len(v) % 2 == 0),
    st.sampled_from(range(4)),
)
@settings(max_examples=150, deadline=None)
def test_solve_lands_on_an_enumerated_local_optimum(values, strategy_idx):
    inst = Instance.from_values(values)
    r = solve(inst, ALL_STRATEGIES[strategy_idx])
    assert r.objective >= min(abs(s.d) for s in enumerate_equal_partitions(inst))
    assert r.objective in local_optima_set(inst)


@st.composite
def _wide_int_lists(draw):
    """2 to 10 ints, an even count, of 64 to 4096 bits: one near a power of
    two, the rest near it too (near-equal swaps) or anywhere up to it, of
    either sign."""
    top = 1 << draw(st.sampled_from([64, 65, 128, 1024, 4096]))
    near = st.integers(top - 50, top + 50)
    n = draw(st.sampled_from([2, 4, 6, 8, 10]))
    return [draw(near)] + draw(st.lists(near | st.integers(-top, top),
                                        min_size=n - 1, max_size=n - 1))


@given(_wide_int_lists())
@settings(max_examples=100, deadline=None)
def test_ints_past_2_62_agree_with_the_oracle(values):
    inst = Instance(tuple(values), Mode.EXACT_INT)
    optima = local_optima_set(inst)
    for cfg in ALL_STRATEGIES:
        r = solve(inst, cfg)
        assert pairswap_witness(r.partition) is None
        assert r.objective in optima


# a four-letter alphabet makes tie groups below the floor the common case
small_alphabet_lists = st.lists(st.integers(0, 3), min_size=4, max_size=16).filter(
    lambda v: len(v) % 2 == 0
)


@given(st.one_of(even_int_lists, small_alphabet_lists), st.sampled_from(range(4)))
@settings(max_examples=100, deadline=None)
def test_window_scan_is_sound(values, strategy_idx):
    with checked_scans():
        solve(Instance.from_values(values), ALL_STRATEGIES[strategy_idx])


@given(
    st.lists(st.integers(0, 10**4), min_size=4, max_size=12).filter(lambda v: len(v) % 2 == 0),
    st.sampled_from([2, 3, 10, 2**100 + 1]),
    st.sampled_from([-10**4, 0, 7, 3**200]),
    st.sampled_from(range(4)),
)
@settings(max_examples=150, deadline=None)
def test_affine_argmin_invariance(values, alpha, beta, strategy_idx):
    cfg = ALL_STRATEGIES[strategy_idx]
    base = solve(Instance.from_values(values), cfg)
    shifted = solve(
        Instance.from_values([alpha * v + beta for v in values]), cfg
    )
    assert shifted.partition.in_set1 == base.partition.in_set1
    assert shifted.objective == alpha * base.objective
    for counter in ("swaps", "traverses", "candidate_evaluations"):
        assert getattr(shifted.metrics, counter) == getattr(base.metrics, counter)


def test_report_is_picklable():
    import pickle

    r = solve(Instance.from_values([5, 9, 1, 14, 20, 3]), SolverConfig(collect_trace=True))
    clone = pickle.loads(pickle.dumps(r))
    assert clone.objective == r.objective
    assert clone.partition.in_set1 == r.partition.in_set1
    assert clone.trace == r.trace


def test_parallel_solves_match_serial():
    rng = random.Random(3)
    instances = [
        Instance.from_values([rng.randint(1, 10**6) for _ in range(12)])
        for _ in range(32)
    ]
    serial = [solve(i).objective for i in instances]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda i: solve(i).objective, instances))
    assert parallel == serial


# ------------------------------------------------------------------ records

_STATE = PartitionState((1, 3), [False, True], 2)
_SORTED = SortedInstance((1, 3), (1, 0), Mode.EXACT_INT)
_EVENT = SwapEvent(1, 0, -2, 2, TraverseOutcome.SIGN_FLIPPED)

# (type, a value of each field in order, the same with one field changed,
# the defaults of the trailing fields that have one)
RECORDS = [
    (Instance, ((3, 1), Mode.EXACT_INT), ((3, 2), Mode.EXACT_INT), ()),
    (SortedInstance, ((1, 3), (1, 0), Mode.EXACT_INT), ((1, 3), (0, 1), Mode.EXACT_INT), ()),
    (SolverConfig, (InitStrategy.RANDOM, 7, True), (InitStrategy.RANDOM, 8, True),
     (InitStrategy.ALTERNATING, None, False)),
    (Metrics, (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7), (0, 0, 0, 0, 0, 0)),
    (SwapEvent, (3, 1, 5, -1, TraverseOutcome.SIGN_FLIPPED),
     (3, 1, 5, -1, TraverseOutcome.COMPLETED), ()),
    (PartitionState, ((1, 3), [False, True], 2, 4), ((1, 3), [True, False], 2, 4), (1,)),
    (SolveReport, (_STATE, 2, Metrics(1), [True, False], _SORTED, (_EVENT,)),
     (_STATE, 2, Metrics(2), [True, False], _SORTED, (_EVENT,)), ((),)),
]
FROZEN = (Instance, SortedInstance, SolverConfig, SwapEvent, SolveReport)
_record_ids = [r[0].__name__ for r in RECORDS]


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("cls, values, other, defaults", RECORDS, ids=_record_ids)
def test_record_construction(cls, values, other, defaults):
    # by position, by keyword, and with the trailing defaults left out
    by_position = cls(*values)
    assert _fields(by_position) == values
    assert _fields(cls(**dict(zip(cls.__match_args__, values)))) == values
    required = values[:len(values) - len(defaults)]
    assert _fields(cls(*required)) == required + defaults
    with pytest.raises(TypeError):
        cls(*values, None)  # no field past the last


@pytest.mark.parametrize("cls, values, other, defaults", RECORDS, ids=_record_ids)
def test_record_equality_and_repr(cls, values, other, defaults):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*other)
    assert record != values  # a record equals records of its own type only
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, values))
    assert repr(record) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, values, other, defaults", RECORDS, ids=_record_ids)
def test_record_assignment_and_hash(cls, values, other, defaults):
    record = cls(*values)
    for name, value in zip(cls.__match_args__, other):
        if cls in FROZEN:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        else:
            setattr(record, name, value)
    if cls not in FROZEN:
        assert record == cls(*other)
        with pytest.raises(TypeError):
            hash(record)  # mutable records are unhashable
    elif cls is SolveReport:  # its membership list is unhashable, as its field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert record == cls(*values) and hash(record) == hash(cls(*values))
        assert len({record, cls(*values), cls(*other)}) == 2
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, values, other, defaults", RECORDS, ids=_record_ids)
def test_record_pickles(cls, values, other, defaults):
    import pickle

    record = cls(*values)
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls and clone == record


def test_metrics_fields_are_the_json_metrics_keys(tmp_path):
    import json

    from eqpart import cli

    path = tmp_path / "in.txt"
    path.write_text("1 2 3 8\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", "--format", "json", "--input", str(path)]) == 0
    keys = list(json.loads(out.getvalue())["metrics"])
    assert Metrics.__match_args__ == (*keys, "max_traverse_evaluations")


def test_traverse_guard_values():
    assert traverse_guard(10, Mode.EXACT_INT) == 12
    assert traverse_guard(10, Mode.FLOAT64) == 12  # one descent for both modes
    assert traverse_guard(10, Mode.EXACT_INT, factor=3) == 36
    # the factor is a constant, not an option
    assert SolverConfig().traverse_guard_factor == SolverConfig.traverse_guard_factor == 1
    with pytest.raises(TypeError):
        SolverConfig(traverse_guard_factor=2)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("strategy", list(InitStrategy))
@pytest.mark.parametrize("kind", ["solve", "pinned", "traditional"])
def test_sides_derive_from_membership_on_first_read(mode, strategy, kind):
    # membership is the partition scattered to input order; the sides equal
    # the eager gather through perm and compress over range(n)
    from eqpart.reductions import solve_traditional
    rng = random.Random(1001)
    values = [rng.randint(-10**6, 10**6) for _ in range(1000)]
    if mode is Mode.FLOAT64:
        values = [v / 64 for v in values]
    inst = Instance(tuple(values), mode)
    cfg = SolverConfig(init_strategy=strategy, seed=3)
    if kind == "traditional":
        res = solve_traditional(inst, cfg)
        report = res.extended_report
    else:
        report = core.solve(inst, cfg, card1=300 if kind == "pinned" else None)
    si = report.sorted_instance
    n = len(si)
    member = [False] * n
    for i in itertools.compress(si.perm, report.partition.in_set1):
        member[i] = True
    assert report.membership == member
    index = [None] * n
    for i in si.perm:
        index[i] = i
    eager = (tuple(itertools.compress(index, member)),
             tuple(itertools.filterfalse(member.__getitem__, index)))
    assert (report.original_set1, report.original_set2) == eager
    assert report.original_set1 == tuple(itertools.compress(range(n), member))
    assert report.original_set2 == tuple(itertools.filterfalse(member.__getitem__, range(n)))
    assert len(report.original_set1) == (300 if kind == "pinned" else n // 2)
    if kind == "traditional":
        assert (res.part1, res.part2) == tuple(
            tuple(itertools.compress(range(len(inst)), flags))
            for flags in (member, map(operator.not_, member)))


def _flag_filter(flags, side, n=None):
    """The reference every index side meets: the i < n whose flag is side."""
    return [i for i in range(len(flags) if n is None else n) if flags[i] == side]


def _printed_indices(argv, values, strategy):
    """The (indices ...) of each side that `eqpart ARGV` prints for values."""
    from eqpart import cli

    stdin = io.TextIOWrapper(io.BytesIO(" ".join(map(str, values)).encode()))
    out = io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--init", strategy.value, "--seed", "7"]) == 0
    lines = out.getvalue().splitlines()[1:3]
    return [[int(i) for i in line.split("(indices ")[1][:-1].split()] for line in lines]


@pytest.mark.parametrize("strategy", list(InitStrategy))
@pytest.mark.parametrize("kind", ["solve", "pinned", "traditional"])
@given(values=st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=1, max_size=24),
       floats=st.booleans(), k=st.integers(1, 22))
@settings(max_examples=30, deadline=None)
def test_every_index_side_is_the_flag_filter(strategy, kind, values, floats, k):
    # SolveReport's sides, PartitionState's indices, solve_traditional's
    # parts (genuine zeros among the inputs) and the CLI's printed indices
    # each list, ascending, the indices whose flag is the side
    from eqpart.reductions import solve_traditional
    if floats:
        values = [v / 4 for v in values]
    if kind == "solve":
        values = values * 2 if len(values) % 2 else values
    inst, n = Instance.from_values(values), len(values)
    cfg = SolverConfig(init_strategy=strategy, seed=7)
    if kind == "traditional":
        res = solve_traditional(inst, cfg)
        report, argv = res.extended_report, ["solve-traditional"]
        sides = [list(res.part1), list(res.part2)]
        assert sides == [_flag_filter(report.membership, side, n) for side in (True, False)]
    else:
        assume(n >= 2)
        card1 = 1 + k % (n - 1) if kind == "pinned" else None
        report = solve(inst, cfg, card1=card1)
        argv = ["solve"] if card1 is None else ["solve", "--cardinality", str(card1)]
        sides = [list(report.original_set1), list(report.original_set2)]
    assert _printed_indices(argv, values, strategy) == sides
    for got, flags in (((report.original_set1, report.original_set2), report.membership),
                       ((report.partition.set1_indices(), report.partition.set2_indices()),
                        report.partition.in_set1)):
        assert list(map(list, got)) == [_flag_filter(flags, side) for side in (True, False)]
