"""Tests for the dummy-zero reduction, pinned cardinalities, and the
solver's equivariance under affine maps."""

import pytest
from hypothesis import given, settings, strategies as st

from eqpart.core import (
    InitStrategy,
    Instance,
    InvalidCardinalityError,
    Metrics,
    Mode,
    SolverConfig,
    is_locally_optimal_pairswap,
    solve,
)
from eqpart import oracle, reductions
from eqpart.oracle import exact_min_diff_unconstrained, is_locally_optimal_transfer
from eqpart.reductions import (
    TraditionalResult,
    solve_traditional,
    solve_with_cardinality,
    to_equal_cardinality,
)

ALL_STRATEGIES = [
    SolverConfig(init_strategy=InitStrategy.ALTERNATING),
    SolverConfig(init_strategy=InitStrategy.SPLIT_HALF),
    SolverConfig(init_strategy=InitStrategy.RANDOM, seed=23),
    SolverConfig(init_strategy=InitStrategy.GREEDY),
]


def test_to_equal_cardinality():
    ext = to_equal_cardinality(Instance.from_values([1, 2, 3]))
    assert ext.values == (1, 2, 3, 0, 0, 0)
    assert ext.mode is Mode.EXACT_INT
    ext = to_equal_cardinality(Instance.from_values([7]))
    assert ext.values == (7, 0)
    ext = to_equal_cardinality(Instance.from_values([1.5]))
    assert ext.values == (1.5, 0.0)
    assert ext.mode is Mode.FLOAT64
    with pytest.raises(InvalidCardinalityError):
        to_equal_cardinality(Instance.from_values([]))


def test_solve_traditional_examples():
    res = solve_traditional(Instance.from_values([1, 2, 3]))
    assert res.objective == 0
    assert set(res.part1) | set(res.part2) == {0, 1, 2}
    assert sorted(map(len, (res.part1, res.part2))) == [1, 2]

    assert solve_traditional(Instance.from_values([1, 1, 1])).objective == 1

    res = solve_traditional(Instance.from_values([5]))
    assert res.objective == 5
    assert (res.part1, res.part2) in (((0,), ()), ((), (0,)))


def test_solve_traditional_keeps_genuine_zeros():
    res = solve_traditional(Instance.from_values([0, 0, 5]))
    assert sorted(res.part1 + res.part2) == [0, 1, 2]
    assert res.objective == 5


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30), st.sampled_from(ALL_STRATEGIES))
@settings(max_examples=200, deadline=None)
def test_solve_traditional_strips_exactly_the_dummies(values, cfg):
    # genuine zeros tie with the dummies; only the indices N..2N-1 go
    res = solve_traditional(Instance.from_values(values), cfg)
    n, report = len(values), res.extended_report
    assert res.part1 == tuple(i for i in report.original_set1 if i < n)
    assert res.part2 == tuple(i for i in report.original_set2 if i < n)


@given(
    st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=30),
        st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=60),
        st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 1e-9]), min_size=1, max_size=30),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
    ),
    st.sampled_from(ALL_STRATEGIES),
)
@settings(max_examples=300, deadline=None)
def test_solve_traditional_sorts_n_values_as_the_padded_instance_sorts(values, cfg):
    # the dummies spliced into the N sorted inputs give the report that
    # solve gives on to_equal_cardinality's 2N values: genuine zeros, -0.0
    # and negatives included, and float input padded with 0.0
    instance = Instance.from_values(values)
    cfg = SolverConfig(cfg.init_strategy, cfg.seed, collect_trace=True)
    got = solve_traditional(instance, cfg).extended_report
    want = solve(to_equal_cardinality(instance), cfg)
    assert repr(got.sorted_instance) == repr(want.sorted_instance)
    assert (got.original_set1, got.original_set2, got.partition, repr(got.objective),
            got.trace) == (want.original_set1, want.original_set2, want.partition,
                           repr(want.objective), want.trace)
    untimed = lambda m: Metrics(m.traverses, m.swaps, m.sign_changes, m.candidate_evaluations,
                                0, m.max_traverse_evaluations)
    assert untimed(got.metrics) == untimed(want.metrics)


def _traditional_result(values, part1):
    """A TraditionalResult with side 1 = the part1 indices of values."""
    part2 = tuple(i for i in range(len(values)) if i not in part1)
    d = sum(values[i] for i in part1) - sum(values[i] for i in part2)
    return TraditionalResult(tuple(part1), part2, abs(d), Instance.from_values(values), None)


def test_transfer_checker_examples():
    # {1,2} | {3}: difference zero, trivially transfer-optimal
    assert is_locally_optimal_transfer(_traditional_result([1, 2, 3], (0, 1)))
    # everything on one side: moving 3 drops |d| from 6 to 0
    assert not is_locally_optimal_transfer(_traditional_result([1, 2, 3], (0, 1, 2)))
    # {3} | {1,1}: d=1; transfers give 5, 3, 3
    assert is_locally_optimal_transfer(_traditional_result([1, 1, 3], (2,)))


def test_transfer_check_lives_in_the_oracle():
    # reductions re-exports the oracle's check under its old name; src holds
    # one verifier of its own, core.is_locally_optimal_pairswap
    assert reductions.is_locally_optimal_transfer is oracle.is_locally_optimal_transfer


def test_transfer_checker_decides_floats_exactly():
    # {1, 2^-60} | {}: d = 1 + 2^-60 rounds to 1.0, so in floats moving 1.0
    # gives |d'| = 1.0, no gain; exactly it lowers |d| by 2^-59
    assert not is_locally_optimal_transfer(_traditional_result([1.0, 2.0**-60], (0, 1)))
    assert is_locally_optimal_transfer(_traditional_result([0.1, 0.2, 0.3], (0, 1)))
    assert not is_locally_optimal_transfer(_traditional_result([0.1, 0.2, 0.3], (0,)))
    assert is_locally_optimal_transfer(_traditional_result([5e-324, 0.0, -0.0], (0,)))
    assert is_locally_optimal_transfer(_traditional_result([5e-324, 5e-324, 1e300], (2,)))
    assert not is_locally_optimal_transfer(_traditional_result([5e-324, 5e-324, 1e300], ()))


def test_traditional_results_pass_both_checkers():
    for values in ([1, 2, 3], [1, 1, 1], [5], [4, 5, 6, 7, 8], [0, 0, 5]):
        for cfg in ALL_STRATEGIES:
            res = solve_traditional(Instance.from_values(values), cfg)
            assert is_locally_optimal_pairswap(res.extended_report.partition)
            assert is_locally_optimal_transfer(res)


@given(st.lists(st.integers(0, 200), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_traditional_objective_dominates_brute_force(values):
    inst = Instance.from_values(values)
    res = solve_traditional(inst)
    assert res.objective >= exact_min_diff_unconstrained(inst)
    assert is_locally_optimal_pairswap(res.extended_report.partition)
    assert is_locally_optimal_transfer(res)
    # stripped parts re-sum to the objective
    s1 = sum(values[i] for i in res.part1)
    s2 = sum(values[i] for i in res.part2)
    assert abs(s1 - s2) == res.objective


@given(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 1e-9]), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_traditional_float_objective_dominates_brute_force(values):
    # decimal floats: the brute force must score each split as the solver
    # does, from exactly summed sides, or its "minimum" falls below answers
    inst = Instance(tuple(values), Mode.FLOAT64)
    assert solve_traditional(inst).objective >= exact_min_diff_unconstrained(inst)


def test_solve_with_cardinality_examples():
    inst = Instance.from_values([1, 2, 3, 4])
    r = solve_with_cardinality(inst, 1, SolverConfig(init_strategy=InitStrategy.GREEDY))
    assert r.objective == 2
    assert sum(r.partition.in_set1) == 1
    assert is_locally_optimal_pairswap(r.partition)

    r = solve_with_cardinality(inst, 2, SolverConfig())
    assert r.objective == solve(inst).objective == 0

    r = solve_with_cardinality(inst, 3, SolverConfig(init_strategy=InitStrategy.SPLIT_HALF))
    assert sum(r.partition.in_set1) == 3
    assert len(r.original_set1) == 3


def test_solve_with_cardinality_range_and_parity():
    inst = Instance.from_values([1, 2, 3, 4, 5])  # odd N is fine with explicit k
    r = solve_with_cardinality(inst, 2, SolverConfig())
    assert sum(r.partition.in_set1) == 2
    with pytest.raises(InvalidCardinalityError):
        solve_with_cardinality(inst, 0, SolverConfig())
    with pytest.raises(InvalidCardinalityError):
        solve_with_cardinality(inst, 5, SolverConfig())


def test_empty_instance_is_a_cardinality_error():
    for mode in Mode:
        empty = Instance((), mode)
        with pytest.raises(InvalidCardinalityError, match="^instance is empty$"):
            solve(empty)
        with pytest.raises(InvalidCardinalityError, match="^instance is empty$"):
            solve_with_cardinality(empty, 1)


def _gathered_sides(report):
    """Original-index sides gathered through perm and sorted, the form
    SolveReport.original_set1 and original_set2 hold."""
    perm, state = report.sorted_instance.perm, report.partition
    return (
        tuple(sorted(perm[i] for i in state.set1_indices())),
        tuple(sorted(perm[i] for i in state.set2_indices())),
    )


@given(
    st.lists(st.integers(-3, 3) | st.integers(-10**6, 10**6), min_size=1, max_size=40),
    st.sampled_from(range(4)),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_emit_matches_sorted_gather(values, strategy_idx, data):
    cfg = ALL_STRATEGIES[strategy_idx]
    inst = Instance.from_values(values)
    n = len(values)
    reports = []
    if n >= 2:
        pinned = n % 2 == 1 or data.draw(st.booleans(), label="pinned")
        card1 = data.draw(st.integers(1, n - 1), label="card1") if pinned else None
        reports.append(solve(inst, cfg, card1))
    trad = solve_traditional(inst, cfg)
    reports.append(trad.extended_report)
    for report in reports:
        in_set1 = report.partition.in_set1
        assert report.partition.set1_indices() == tuple(i for i, m in enumerate(in_set1) if m)
        assert report.partition.set2_indices() == tuple(
            i for i, m in enumerate(in_set1) if not m
        )
        assert (report.original_set1, report.original_set2) == _gathered_sides(report)
    set1, set2 = _gathered_sides(trad.extended_report)
    assert trad.part1 == tuple(i for i in set1 if i < n)
    assert trad.part2 == tuple(i for i in set2 if i < n)


@given(
    st.lists(st.integers(0, 500), min_size=3, max_size=12),
    st.integers(1, 11),
    st.sampled_from(range(4)),
)
@settings(max_examples=100, deadline=None)
def test_cardinality_is_conserved(values, k, strategy_idx):
    if k >= len(values):
        k = len(values) - 1
    r = solve_with_cardinality(Instance.from_values(values), k, ALL_STRATEGIES[strategy_idx])
    assert sum(r.partition.in_set1) == k
    assert len(r.original_set1) == k
    assert is_locally_optimal_pairswap(r.partition)


def _moved(inst, alpha, beta):
    """inst with every value mapped to alpha * x + beta, in the same mode."""
    return Instance(tuple(alpha * x + beta for x in inst.values), inst.mode)


def test_affine_transform_examples():
    inst = Instance.from_values([1, 2, 3, 8])
    base = solve(inst)
    moved = solve(_moved(inst, 2, 10))
    assert moved.sorted_instance.sorted_values == (12, 14, 16, 26)
    assert moved.objective == 8 == 2 * base.objective
    assert moved.partition.in_set1 == base.partition.in_set1


@given(
    st.lists(st.integers(0, 100), min_size=4, max_size=10).filter(lambda v: len(v) % 2 == 0),
    st.sampled_from([-1, -2, -7]),
    st.sampled_from([-50, 0, 13]),
)
@settings(max_examples=60, deadline=None)
def test_negative_alpha_still_lands_on_a_local_optimum(values, alpha, beta):
    # negative scaling reverses the sort order, so the trace may differ; the
    # result must still be locally optimal with an |alpha|-scaled objective
    from eqpart.oracle import local_optima_set

    inst = Instance.from_values(values)
    moved = solve(_moved(inst, alpha, beta))
    assert is_locally_optimal_pairswap(moved.partition)
    assert moved.objective % abs(alpha) == 0
    assert moved.objective // abs(alpha) in local_optima_set(inst)


def test_affine_transform_of_an_empty_exact_instance_is_empty():
    # no value is made, so a non-int alpha or beta reaches no int check; the
    # moved instance is empty, and solve refuses it as any empty instance
    empty = Instance((), Mode.EXACT_INT)
    for alpha, beta in ((1.5, 0), (2, 0.5), (2, 3)):
        moved = _moved(empty, alpha, beta)
        assert moved == empty
        with pytest.raises(InvalidCardinalityError, match="^instance is empty$"):
            solve(moved)
        with pytest.raises(InvalidCardinalityError, match="^instance is empty$"):
            solve_with_cardinality(moved, 1)
