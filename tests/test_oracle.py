"""Tests for the exhaustive oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqpart.core import (
    InitStrategy,
    Instance,
    InvalidCardinalityError,
    Mode,
    SolverConfig,
    is_locally_optimal_pairswap,
)
from eqpart.oracle import (
    ENUMERATION_CAP,
    OracleCapError,
    enumerate_equal_partitions,
    exact_min_diff_unconstrained,
    local_optima_set,
    oracle_result,
    pairswap_witness,
    reference_local_search,
)


def test_enumerate_lists_each_bipartition_once():
    inst = Instance.from_values([1, 2, 3, 8])
    parts = [frozenset(s.set1_indices()) for s in enumerate_equal_partitions(inst)]
    assert len(parts) == 3
    assert set(parts) == {frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})}


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_equal_partitions(Instance.from_values([3, 9]))) == 1
    inst6 = Instance.from_values([1, 2, 3, 4, 5, 6])
    assert sum(1 for _ in enumerate_equal_partitions(inst6)) == 10 == math.comb(6, 3) // 2


@pytest.mark.parametrize("n, k", [(5, 2), (6, 1), (7, 6), (8, 3), (6, 3)])
def test_enumerate_pinned_cardinality(n, k):
    inst = Instance.from_values(list(range(1, n + 1)))
    parts = [frozenset(s.set1_indices()) for s in enumerate_equal_partitions(inst, card1=k)]
    assert all(len(p) == k for p in parts)
    assert len(set(parts)) == len(parts)
    if 2 * k == n:  # label symmetry: one of each complementary pair
        assert len(parts) == math.comb(n, n // 2) // 2 and all(0 in p for p in parts)
    else:
        assert len(parts) == math.comb(n, k)


def test_oracle_pinned_cardinality():
    inst = Instance.from_values([1, 2, 3, 4, 100, 7])
    res = oracle_result(inst, card1=1)
    assert res.exact_min == 83 and res.num_partitions_enumerated == 6
    assert oracle_result(inst, card1=3) == oracle_result(inst)
    with pytest.raises(InvalidCardinalityError, match="out of range"):
        oracle_result(inst, card1=6)
    with pytest.raises(OracleCapError):
        oracle_result(Instance.from_values(list(range(25))), card1=3)


def test_enumeration_cap_and_parity():
    with pytest.raises(OracleCapError):
        list(enumerate_equal_partitions(Instance.from_values(list(range(26)))))
    with pytest.raises(InvalidCardinalityError):
        list(enumerate_equal_partitions(Instance.from_values([1, 2, 3])))
    assert ENUMERATION_CAP == 24


def test_exact_min_examples():
    for values, best in [([1, 2, 3, 8], 4), ([1, 2, 3, 4], 0), ([7] * 6, 0)]:
        inst = Instance.from_values(values)
        assert min(abs(s.d) for s in enumerate_equal_partitions(inst)) == best


def test_local_optima_examples():
    assert local_optima_set(Instance.from_values([1, 2, 3, 8])) == (4,)
    assert local_optima_set(Instance.from_values([5, 5, 5, 5])) == (0,)
    assert local_optima_set(Instance.from_values([9, 2])) == (7,)


@given(st.lists(st.integers(0, 50), min_size=2, max_size=10).filter(lambda v: len(v) % 2 == 0))
@settings(max_examples=100, deadline=None)
def test_oracle_result_invariants(values):
    inst = Instance.from_values(values)
    res = oracle_result(inst)
    assert res.local_optima
    assert res.exact_min == min(res.local_optima)
    assert res.num_partitions_enumerated == math.comb(len(values), len(values) // 2) // 2
    assert res.exact_min == min(abs(s.d) for s in enumerate_equal_partitions(inst))


def test_reference_local_search_examples():
    cfg = SolverConfig(init_strategy=InitStrategy.SPLIT_HALF)
    assert reference_local_search(Instance.from_values([1, 2, 3, 8]), cfg).objective == 4
    for strategy in InitStrategy:
        c = SolverConfig(init_strategy=strategy, seed=5)
        assert reference_local_search(Instance.from_values([1, 2, 3, 4]), c).objective == 0
    r = reference_local_search(Instance.from_values([9, 2]))
    assert r.objective == 7
    assert r.metrics.swaps == 0


@given(st.lists(st.integers(0, 100), min_size=4, max_size=12).filter(lambda v: len(v) % 2 == 0))
@settings(max_examples=100, deadline=None)
def test_reference_search_reaches_a_local_optimum(values):
    inst = Instance.from_values(values)
    r = reference_local_search(inst)
    assert is_locally_optimal_pairswap(r.partition)
    assert r.objective in local_optima_set(inst)
    assert r.objective >= min(abs(s.d) for s in enumerate_equal_partitions(inst))


def test_reference_search_terminates_on_floats():
    # in floats, -6.4 - 1.2 + 14.0 rounds to 6.3999999999999995 < 6.4, so
    # the pair was swapped, and re-deriving d as s1 - s2 undid it forever.
    # Exactly, the swap only negates d, so there is none.  A child
    # interpreter turns a hang into a failure.
    code = ("from eqpart.core import Instance; from eqpart.oracle import reference_local_search; "
            "r = reference_local_search(Instance.from_values([0.6, 7.0])); "
            "print(r.objective, r.metrics.swaps)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.split() == ["6.4", "0"]


@given(
    st.lists(st.sampled_from([0.1, 0.2, 0.3, 1e-9, 0.6, 0.9, 7.0, 21.0]), min_size=2,
             max_size=10).filter(lambda v: len(v) % 2 == 0),
    st.sampled_from(list(InitStrategy)),
)
@settings(max_examples=200, deadline=None)
def test_reference_search_reaches_a_local_optimum_on_floats(values, strategy):
    inst = Instance(tuple(values), Mode.FLOAT64)
    r = reference_local_search(inst, SolverConfig(init_strategy=strategy, seed=3))
    assert pairswap_witness(r.partition) is None
    assert r.objective == abs(r.partition.d)


def test_unconstrained_brute_force():
    assert exact_min_diff_unconstrained(Instance.from_values([1, 2, 3])) == 0
    assert exact_min_diff_unconstrained(Instance.from_values([1, 1, 1])) == 1
    assert exact_min_diff_unconstrained(Instance.from_values([5])) == 5
