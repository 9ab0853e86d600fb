"""Tests for the exhaustive oracles."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eqpart.core import (
    Instance,
    InvalidCardinalityError,
    Mode,
    PartitionState,
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


_FLOAT_ALPHABET = (0.1, 0.3, 0.2, 0.6, 0.9, 1e-9, 3e-9, 7.0, 21.0)


def test_verifier_decides_the_oracles_input_unit_states():
    # the oracle's float states hold input-unit values and d rounded once;
    # the verifier decides them on their own scaled ints.  Its verdict must
    # be the all-pairs witness's and its own on the exact state of the same
    # membership, at tolerance 0 and, for floats, at 1e-9 * sum(|x|)
    rng = random.Random(7)
    verdicts = set()
    for k in range(150):
        n = 2 * rng.randint(1, 5)
        draw = [lambda: rng.choice(_FLOAT_ALPHABET), lambda: rng.uniform(-5, 5),
                lambda: rng.randint(-20, 20)][k % 3]
        inst = Instance.from_values([draw() for _ in range(n)])
        tolerances = [0.0]
        if inst.mode is Mode.FLOAT64:
            tolerances.append(1e-9 * math.fsum(map(abs, inst.values)))
        for state in enumerate_equal_partitions(inst):
            assert isinstance(state.d, float) is (inst.mode is Mode.FLOAT64)
            exact = PartitionState.from_membership(state.values, state.in_set1, inst.mode)
            for tol in tolerances:
                verdict = is_locally_optimal_pairswap(state, tol)
                assert verdict == (pairswap_witness(state, tol) is None), (inst, state, tol)
                assert verdict == is_locally_optimal_pairswap(exact, tol), (inst, state, tol)
                verdicts.add((inst.mode, verdict))
    assert len(verdicts) == 4  # both verdicts, on both modes


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
