"""Unit and property tests for the core solver."""

import contextlib
import enum
import math
import operator
import random
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from eqpart import core
from eqpart.core import (
    ContractViolationError,
    InitStrategy,
    Instance,
    InternalConsistencyError,
    InvalidCardinalityError,
    Metrics,
    Mode,
    OverflowGuardError,
    PartitionState,
    SUM_GUARD,
    SolverConfig,
    TraverseOutcome,
    _pair_diff,
    apply_swap,
    find_best_swap,
    init_partition,
    is_locally_optimal_pairswap,
    normalize_and_sort,
    recompute_sums,
    run_traverse,
    solve,
    traverse_guard,
)
from eqpart.oracle import exact_min_diff, local_optima_set, pairswap_witness
from eqpart.reductions import TraditionalResult, is_locally_optimal_transfer
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
    with pytest.raises(OverflowGuardError):
        Instance((1 << 62,), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError):
        Instance((1.5,), Mode.EXACT_INT)
    with pytest.raises(ValueError):
        Instance((float("nan"),), Mode.FLOAT64)


class _Small(enum.IntEnum):
    TWO = 2


def test_instance_int_validation_names_first_bad_value():
    assert Instance((1, _Small.TWO), Mode.EXACT_INT).values == (1, _Small.TWO)
    top = SUM_GUARD - 1
    assert Instance((top, -top), Mode.EXACT_INT).values == (top, -top)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((1, True), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((1, True, 2.5, SUM_GUARD), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got 2.5"):
        Instance((1, 2.5, True), Mode.EXACT_INT)
    for bad in (SUM_GUARD, -SUM_GUARD):
        with pytest.raises(OverflowGuardError, match=rf"^\|{bad}\| exceeds the 2\^62 guard$"):
            Instance((0, bad, True), Mode.EXACT_INT)
    with pytest.raises(OverflowGuardError, match="got True"):
        Instance((0, True, SUM_GUARD), Mode.EXACT_INT)


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
    with pytest.raises(OverflowError):
        Instance((1, 10**400, math.inf), Mode.FLOAT64)


def test_empty_instance_constructs():
    for mode in Mode:
        assert Instance((), mode).values == ()


def test_sum_overflow_guard():
    n = 8
    big = (1 << 61) - 1
    with pytest.raises(OverflowGuardError):
        normalize_and_sort(Instance((big,) * n, Mode.EXACT_INT))


def test_float_range_guard():
    # 4 * sum(|x|) must stay finite: it bounds every sum and post-swap d
    top = 1.7976931348623157e308 / 4
    normalize_and_sort(Instance((top / 2, -top / 2), Mode.FLOAT64))
    with pytest.raises(OverflowGuardError, match="too large for float mode"):
        normalize_and_sort(Instance((top, -top), Mode.FLOAT64))
    with pytest.raises(OverflowGuardError):
        solve(Instance((1e308,) * 4, Mode.FLOAT64))


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


# ---------------------------------------------------------------- _pair_diff


def test_pair_diff_examples():
    # d=8 with side 1 = {3, 8} on {1,2,3,8}: swap 8 with 2 gives d=-4
    state = make_state([1, 2, 3, 8], {2, 3})
    assert state.d == 8
    assert _pair_diff(state, 3, 1) == -4
    assert _pair_diff(state, 1, 3) == -4  # cursor on either side

    # equal values: unchanged
    state = make_state([5, 5], {0})
    assert _pair_diff(state, 0, 1) == state.d == 0

    # alternating start on {1,2,3,8}: swap values 1 and 2 gives d=-4
    state = make_state([1, 2, 3, 8], {0, 2})
    assert state.d == -6
    assert _pair_diff(state, 0, 1) == -4
    assert _pair_diff(state, 1, 0) == -4


# ------------------------------------------------------------ find_best_swap


@contextlib.contextmanager
def checked_scans():
    """Check every partner scan, in run_traverse too, against a full scan.

    Patches core.find_best_swap (run_traverse looks it up at call time).
    Over every opposing partner below the cursor, each scored with
    _pair_diff: when one beats |d|, the scan must return the minimum |d'|
    and a partner that attains it; otherwise it must return None.  Exact
    for int states, which is what the tests below use.
    """
    scan = core.find_best_swap

    def checked(state, n, floor, ties, metrics):
        side = state.in_set1[n]
        partners = [q for q in range(n) if state.in_set1[q] != side]
        best = min((abs(_pair_diff(state, n, q)) for q in partners), default=None)
        hit = scan(state, n, floor, ties, metrics)
        if best is not None and best < abs(state.d):
            assert hit is not None and hit[1] == best, (n, floor, hit, best)
            assert hit[0] in partners and abs(_pair_diff(state, n, hit[0])) == best
        else:
            assert hit is None, (n, floor, hit)
        return hit

    with mock.patch.object(core, "find_best_swap", checked):
        yield


def test_find_best_swap_no_improvement():
    # side1 = {2,3}, side2 = {1,8}, d=-4; cursor at 8: candidates 3 -> 6, 2 -> 8
    state = make_state([1, 2, 3, 8], {1, 2})
    assert state.d == -4
    metrics = Metrics()
    # floor 0: the highest side-2 index below the cursor
    assert find_best_swap(state, 3, 0, {}, metrics) is None
    assert metrics.candidate_evaluations == 2  # window stops before index 0


def test_find_best_swap_hit():
    state = make_state([1, 2, 3, 8], {0, 2})  # alternating, d=-6
    metrics = Metrics()
    # floor -1: no side-2 index below the cursor
    assert find_best_swap(state, 1, -1, {}, metrics) == (0, 4)
    assert metrics.candidate_evaluations == 1


def test_find_best_swap_zero_diff():
    state = make_state([5, 5], {0})
    # floor -1: no side-2 index below the cursor
    assert find_best_swap(state, 1, -1, {}, Metrics()) is None


def test_find_best_swap_smaller_side_skips_with_one_eval():
    state = make_state([1, 2, 3, 8], {0, 2})  # d=-6, larger side is side 2
    metrics = Metrics()
    # floor 0: the highest side-1 index below the cursor (never read on a skip)
    assert find_best_swap(state, 2, 0, {}, metrics) is None  # value 3 is in side 1
    assert metrics.candidate_evaluations == 1


def test_find_best_swap_tie_picks_smallest_index():
    # duplicated partner values make equal improving minimizers
    state = make_state([2, 2, 6, 8], {2, 3})  # d = 10
    # floor -1: no side-1 index below the cursor
    hit = find_best_swap(state, 2, -1, {}, Metrics())
    assert hit == (0, 2)  # indices 1 and 0 tie at |10-12+4| = 2; tie -> 0


def test_find_best_swap_window_stops_at_same_side():
    # membership pattern side2,side1,side2,cursor: window must stop at index 1
    state = make_state([1, 2, 3, 100], {1, 3})
    assert state.d == 98  # (2 + 100) - (1 + 3)
    metrics = Metrics()
    # floor 1: the highest side-1 index below the cursor
    hit = find_best_swap(state, 3, 1, {}, metrics)
    assert metrics.candidate_evaluations == 1  # only index 2 scanned
    assert hit == (2, abs(98 - 200 + 6))


def test_find_best_swap_tie_group_below_floor():
    # d = 2, larger side 1 = {0, 3, 6, 7}; cursor 6 (value 2) has floor 3,
    # the highest side-1 index below it.  Opposing 1s sit in the run (4, 5)
    # and below the floor (1, 2), all giving d' = 0: the lowest opposing tie
    # below the floor wins, reached by one pointer step over the same-side
    # index 0.
    state = make_state([1, 1, 1, 1, 1, 1, 2, 2], {0, 3, 6, 7})
    assert state.d == 2
    metrics = Metrics()
    ties = {}
    with checked_scans():
        assert core.find_best_swap(state, 6, 3, ties, metrics) == (1, 0)
    assert metrics.candidate_evaluations == 2  # one pointer step, one evaluation
    assert ties == {0: 1}  # the group's pointer rests on its lowest opposing member


def test_run_traverse_tie_group_below_floor():
    # d = -6, larger side 2 = {4, 5, 6, 7}.  Cursor 4 does not swap, so the
    # floor stays at 4 while cursors 5 and 6 take their partners from the
    # 1s below it, lowest index first; the tie pointer moves up one step
    # per swapped-in partner and cursor 7 finds no improvement.
    state = make_state([1, 1, 1, 1, 1, 2, 2, 5], {0, 1, 2, 3})
    assert state.d == -6
    metrics = Metrics()
    trace = []
    with checked_scans():
        outcome = run_traverse(state, SolverConfig(), metrics, trace)
    assert outcome is TraverseOutcome.COMPLETED
    assert [(e.cursor, e.partner, e.d_after) for e in trace] == [(5, 0, -4), (6, 1, -2)]
    # 4 skips + cursor 4 (1) + cursor 5 (1) + cursor 6 (1 step, 1 evaluation)
    # + cursor 7 (1 step, the tie at index 2, then run indices 5 and 6)
    assert metrics.candidate_evaluations == 12


# ----------------------------------------------------------------- apply_swap


def test_apply_swap_unchanged():
    state = make_state([1, 2, 3, 8], {0, 2})
    assert apply_swap(state, 1, 0) is TraverseOutcome.COMPLETED
    assert state.d == -4
    assert state.in_set1 == [False, True, True, False]
    recompute_sums(state)  # exact mode: must agree bit for bit


def test_apply_swap_zero():
    state = make_state([1, 2, 3, 4], {0, 2})
    assert state.d == -2
    assert apply_swap(state, 1, 0) is TraverseOutcome.ZERO_REACHED
    assert state.d == 0


def test_apply_swap_flipped_float():
    state = make_state([0.0, 0.1, 0.2, 2.9], {2, 3})
    assert state.d == pytest.approx(3.0)
    assert apply_swap(state, 3, 0) is TraverseOutcome.SIGN_FLIPPED
    assert state.d == pytest.approx(-2.8)


def test_apply_swap_same_side_rejected():
    state = make_state([1, 2, 3, 8], {0, 2})
    with pytest.raises(ContractViolationError):
        apply_swap(state, 0, 2)


# ---------------------------------------------------------------- run_traverse


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


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_solve_pair(a, b):
    r = solve(Instance.from_values([a, b]))
    assert r.objective == abs(a - b)


# ------------------------------------------------------- local optimality check


def test_pairswap_check_examples():
    state = make_state([1, 2, 3, 8], {2, 3})  # d = 8
    assert is_locally_optimal_pairswap(state) is False
    a, b = pairswap_witness(state)
    assert abs(_pair_diff(state, a, b)) < 8

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
    assert pairswap_witness(state) == (5, 1) and _pair_diff(state, 5, 1) == 1


def _pairswap_states():
    """(state, tolerance) over the families where a merge could slip: ints
    with negatives and duplicates, decimal-duplicate floats (rounding ties),
    sides longer than 64, pinned side-1 sizes, solved and random
    memberships, values in sorted or shuffled order, and tolerances above
    zero."""
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
        tolerance = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.25]))
        set1 = set(draw(st.permutations(range(n)))[:k])
        if draw(st.booleans()):
            try:
                r = solve(Instance(tuple(values), mode), SolverConfig(), card1=k)
                set1 = set(r.partition.set1_indices())
            except InternalConsistencyError:
                pass  # a float guard trip leaves the random membership
        order = draw(st.permutations(range(n))) if draw(st.booleans()) else range(n)
        state = PartitionState.from_membership(
            tuple(values[i] for i in order), [i in set1 for i in order], mode
        )
        return state, tolerance

    return build()


@given(_pairswap_states())
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


# -------------------------------------------------------------- recompute_sums


def test_recompute_exact_matches_after_solving():
    r = solve(Instance.from_values([7, 3, 12, 9, 4, 1]))
    recompute_sums(r.partition)  # must not raise


def test_recompute_detects_corruption():
    state = make_state([1, 2, 3, 8], {0, 1})
    state.d += 2
    with pytest.raises(InternalConsistencyError):
        recompute_sums(state)


def test_float_drift_stays_bounded_over_many_swaps():
    rng = random.Random(99)
    n = 100
    values = sorted(rng.random() for _ in range(n))
    state = make_state(values, set(range(0, n, 2)), mode=Mode.FLOAT64)
    for _ in range(10_000):
        a = rng.choice(state.set1_indices())
        b = rng.choice(state.set2_indices())
        apply_swap(state, a, b)
    maintained = state.d
    recompute_sums(state)
    assert abs(maintained - state.d) <= 1e-9 * math.fsum(map(abs, values))


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
    assert r.objective >= exact_min_diff(inst)
    assert r.objective in local_optima_set(inst)


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
    st.sampled_from([2, 3, 10]),
    st.sampled_from([-10**4, 0, 7]),
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


def test_traverse_guard_values():
    assert traverse_guard(10, Mode.EXACT_INT) == 12
    assert traverse_guard(10, Mode.FLOAT64) == 24
    assert traverse_guard(10, Mode.EXACT_INT, factor=3) == 36
