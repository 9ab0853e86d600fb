"""Tests of the benchmark's own code: checker, guard-trip counting, spans.

    python3 -m pytest perfbench -q
"""

import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from eqpart import oracle, reductions  # noqa: E402
from eqpart.core import (  # noqa: E402
    InitStrategy, Instance, Mode, is_locally_optimal_pairswap, normalize_and_sort,
)

import run  # noqa: E402
from check import CheckError, check_partition, check_value_sides, float_tolerance  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import FLOAT_VALUES, LibSmallMixed, digest, run_small_call  # noqa: E402

# ROADMAP item 1: float mode loops between two swaps until the guard trips.
GUARD_REPRO = (0.9, 0.3, 7.0, 0.3, 7.0, 7.0, 0.6, 0.9, 21.0, 0.2, 0.6, 0.1)


def _accepts(values, side1, side2, objective, **kw) -> bool:
    try:
        check_partition(values, side1, side2, objective, **kw)
    except CheckError:
        return False
    return True


def _small_instances(rng, count):
    for k in range(count):
        n = 2 * rng.randint(1, 5)
        if k % 3 == 0:
            yield Instance(tuple(rng.choice(FLOAT_VALUES) for _ in range(n)), Mode.FLOAT64)
        elif k % 3 == 1:
            yield Instance(tuple(rng.uniform(-5, 5) for _ in range(n)), Mode.FLOAT64)
        else:
            yield Instance(tuple(rng.randint(-20, 20) for _ in range(n)), Mode.EXACT_INT)


def test_pairswap_check_agrees_with_library_and_oracle():
    rng = random.Random(7)
    for inst in _small_instances(rng, 150):
        tol = float_tolerance(inst.values) if inst.mode is Mode.FLOAT64 else 0
        accepted = set()
        for state in oracle.enumerate_equal_partitions(inst):
            ours = _accepts(state.values, state.set1_indices(), state.set2_indices(),
                            abs(state.d))
            assert ours == bool(is_locally_optimal_pairswap(state, tol)), inst
            if ours:
                accepted.add(abs(state.d))
        if inst.mode is Mode.EXACT_INT:
            assert tuple(sorted(accepted)) == oracle.local_optima_set(inst)


def test_transfer_check_agrees_with_library():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 7)
        values = tuple(rng.randint(-9, 9) for _ in range(n))
        si = normalize_and_sort(Instance(values, Mode.EXACT_INT))
        for k in range(n + 1):
            for side1 in itertools.combinations(range(n), k):
                side2 = tuple(i for i in range(n) if i not in side1)
                d = sum(si.sorted_values[i] for i in side1) - sum(si.sorted_values[i] for i in side2)
                result = reductions.TraditionalResult(side1, side2, abs(d),
                                                      Instance(si.sorted_values, Mode.EXACT_INT),
                                                      None)
                want = reductions.is_locally_optimal_transfer(result) and all(
                    abs(d - 2 * si.sorted_values[a] + 2 * si.sorted_values[b]) >= abs(d)
                    for a in side1 for b in side2)
                got = _accepts(si.sorted_values, side1, side2, abs(d), transfers=True)
                assert got == want, (values, side1)


def test_checker_rejects_malformed_outputs():
    values = (1, 2, 3, 4)
    assert _accepts(values, (0, 3), (1, 2), 0)
    assert not _accepts(values, (0, 3), (1, 1), 0)  # not a cover
    assert not _accepts(values, (0,), (1, 2, 3), 8)  # wrong cardinality
    assert not _accepts(values, (0, 3), (1, 2), 1)  # wrong objective
    assert not _accepts(values, (0, 1), (2, 3), 4)  # swapping 2 and 3 improves
    assert _accepts(values, (0, 1, 2), (3,), 2, card1=3)
    with pytest.raises(CheckError):
        check_value_sides(values, [1, 4], [2, 2], 1)
    check_value_sides(values, [4, 1], [3, 2], 0)


def test_guard_repro_is_a_counted_trip():
    item = ("float", GUARD_REPRO, InitStrategy.ALTERNATING, None)
    outcome = run_small_call(item)
    assert not outcome.ok and outcome.failure == "guard"
    w = LibSmallMixed(1, None, {})
    w.pool = [item]
    assert w.traced(0, NullTracer(), 0).tripped


def test_small_mixed_family_trips_the_guard_at_set_up_only():
    w = LibSmallMixed(1, None, {})
    trips, drawn = w.guard_report()
    assert trips == len(w.tripped) > 0 and drawn == LibSmallMixed.PER_KIND
    assert all(run_small_call(item).failure == "guard" for item in w.tripped)
    assert sum(item[0] == "float" for item in w.pool) == drawn - trips
    outcomes = [w.request(i) for i in range(len(w.pool))]
    assert all(o.ok for o in outcomes)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (digest(LibSmallMixed(s, None, {}).input_texts()) for s in (3, 3, 4))
    assert a == b != c


def test_self_times_subtract_direct_children():
    tr = Tracer()
    tr.spans = [["a", 0, 100, -1, 0], ["b", 10, 30, 0, 0], ["c", 40, 90, 0, 0],
                ["d", 50, 60, 2, 0], ["a", 200, 210, -1, 1]]
    assert tr.self_times() == {0: {"a": 30, "b": 20, "c": 40, "d": 10}, 1: {"a": 10}}
    assert tr.durations("a") == {0: 100, 1: 10}
    with tr.span("e", 2):
        with tr.span("f", 2):
            pass
    assert tr.spans[-1][3] == len(tr.spans) - 2


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail(range(100))
    assert value == 89 and pct == 90.0
    assert run.tail(range(10**5)) == (98999, 99.0)
    assert run.tail(range(16)) == (7, 50.0)
    assert run.tail([5]) == (5, 100.0)


def test_import_breakdown():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       5000 | numpy",
        "import time:        40 |         40 |   eqpart.core",
        "import time:        10 |       5050 | eqpart",
    ])
    assert run.import_breakdown(text) == (5000, 50)
