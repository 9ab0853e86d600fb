"""Shared test helpers."""

import pytest

from eqpart import bench
from eqpart.core import Instance, PartitionState, normalize_and_sort


def make_state(values, set1, mode=None):
    """Partition state over already-sorted values with side 1 = set1 indices."""
    inst = Instance.from_values(values) if mode is None else Instance(tuple(values), mode)
    si = normalize_and_sort(inst)
    assert si.sorted_values == inst.values, "make_state expects sorted input"
    in_set1 = [i in set1 for i in range(len(values))]
    return PartitionState.from_membership(inst.values, in_set1, inst.mode)


@pytest.fixture
def work_bound_breach(monkeypatch):
    """Make every benchmarked solve report a sweep one evaluation over 2N.

    The solver keeps each sweep within the 2N budget, so the bench's abort
    path is reached by inflating the reported peak instead.
    """
    real_solve = bench.solve

    def solve(instance, cfg, card1=None):
        report = real_solve(instance, cfg, card1)
        report.metrics.max_traverse_evaluations = 2 * len(instance) + 1
        return report

    monkeypatch.setattr(bench, "solve", solve)
