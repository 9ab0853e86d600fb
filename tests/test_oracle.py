"""Tests for the exhaustive oracles."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from eqpart.core import Instance, InvalidCardinalityError, Mode
from eqpart.oracle import (
    ENUMERATION_CAP,
    OracleCapError,
    enumerate_equal_partitions,
    exact_min_diff_unconstrained,
    local_optima_set,
    oracle_result,
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


def test_unconstrained_brute_force():
    assert exact_min_diff_unconstrained(Instance.from_values([1, 2, 3])) == 0
    assert exact_min_diff_unconstrained(Instance.from_values([1, 1, 1])) == 1
    assert exact_min_diff_unconstrained(Instance.from_values([5])) == 5


@pytest.mark.parametrize("mode", Mode)
def test_unconstrained_brute_force_refuses_an_empty_instance(mode):
    with pytest.raises(InvalidCardinalityError, match="^need at least one element$"):
        exact_min_diff_unconstrained(Instance((), mode))
