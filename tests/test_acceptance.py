"""Acceptance suite: one test per exit criterion, one printed verdict line each.

The shared corpus fixtures run the full workloads once (they are reused by
several criteria), so this module is the slow part of the suite.  Run it
with `pytest tests/test_acceptance.py -s` to see the verdict lines as they
print.
"""

import math
import random
import time
from itertools import combinations_with_replacement

import pytest

from eqpart.bench import GeneratorSpec, run_suite
from eqpart.core import (
    InitStrategy,
    Instance,
    Mode,
    SolverConfig,
    TraverseOutcome,
    is_locally_optimal_pairswap,
    solve,
    traverse_guard,
)
from eqpart.oracle import (
    exact_min_diff_unconstrained,
    is_locally_optimal_transfer,
    oracle_result,
)
from eqpart.reductions import solve_traditional

STRATEGIES = (
    InitStrategy.ALTERNATING,
    InitStrategy.SPLIT_HALF,
    InitStrategy.RANDOM,
    InitStrategy.GREEDY,
)


def cfg_for(strategy, seed=0, trace=True):
    return SolverConfig(
        init_strategy=strategy,
        seed=seed if strategy is InitStrategy.RANDOM else None,
        collect_trace=trace,
    )


def verdict(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# --------------------------------------------------------------- shared corpora


@pytest.fixture(scope="session")
def random_instance_runs():
    """Criterion 1 workload: 5000 uniform instances x all 4 init strategies."""
    rng = random.Random(20240801)
    t0 = time.perf_counter()
    runs = []
    for i in range(5000):
        n = rng.choice(range(4, 17, 2))
        inst = Instance.from_values([rng.randint(1, 10**6) for _ in range(n)])
        for strategy in STRATEGIES:
            runs.append((n, strategy, solve(inst, cfg_for(strategy, seed=i))))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="session")
def exhaustive_small_runs():
    """Criterion 2 workload: every multiset over {1..5} at N=4 and N=6."""
    runs = []
    for n in (4, 6):
        for values in combinations_with_replacement(range(1, 6), n):
            inst = Instance.from_values(list(values))
            oracle = oracle_result(inst)
            for strategy in STRATEGIES:
                runs.append((n, strategy, solve(inst, cfg_for(strategy)), oracle))
    return runs


@pytest.fixture(scope="session")
def scaling_suite():
    """Criterion 5 workload: N in {2^8..2^13}, uniform ints, 11 seeds per size."""
    specs = [
        GeneratorSpec("uniform_int", 2**k, 1000 * k, 1, 10**9) for k in range(8, 14)
    ]
    t0 = time.perf_counter()
    report = run_suite(specs, SolverConfig(), repetitions=11)
    return report, time.perf_counter() - t0


# ------------------------------------------------------------------- criteria


def test_criterion_1_definition_compliance(random_instance_runs):
    runs, elapsed = random_instance_runs
    failures = sum(
        1 for _, _, r in runs if not is_locally_optimal_pairswap(r.partition, tolerance=0.0)
    )
    ok = failures == 0
    assert verdict(
        1, ok,
        f"{len(runs) - failures}/{len(runs)} outputs pair-swap locally optimal "
        f"at tolerance 0 (workload took {elapsed:.1f}s)",
    ) and ok


def test_criterion_2_exhaustive_small_space(exhaustive_small_runs):
    bad = 0
    for _, _, report, oracle in exhaustive_small_runs:
        if report.objective not in oracle.local_optima or report.objective < oracle.exact_min:
            bad += 1
    ok = bad == 0
    assert verdict(
        2, ok,
        f"{len(exhaustive_small_runs) - bad}/{len(exhaustive_small_runs)} solves landed "
        f"in the enumerated local-optimum set (all {{1..5}} multisets, N=4 and N=6)",
    ) and ok


def test_criterion_3_traverse_bound(random_instance_runs, exhaustive_small_runs, scaling_suite):
    violations = []
    for n, strategy, report in random_instance_runs[0]:
        if report.metrics.traverses > n + 2:
            violations.append((n, strategy, report.metrics.traverses))
    for n, strategy, report, _ in exhaustive_small_runs:
        if report.metrics.traverses > n + 2:
            violations.append((n, strategy, report.metrics.traverses))
    bench_report, _ = scaling_suite
    for rec in bench_report.runs:
        if rec.traverses > rec.n + 2:
            violations.append((rec.n, "bench", rec.traverses))
    total = len(random_instance_runs[0]) + len(exhaustive_small_runs) + len(bench_report.runs)
    ok = not violations
    assert verdict(
        3, ok,
        f"traverses <= N+2 in {total - len(violations)}/{total} exact-mode runs"
        + (f"; first violations {violations[:3]}" if violations else ""),
    ) and ok


def test_criterion_4_per_traverse_work_bound(
    random_instance_runs, exhaustive_small_runs, scaling_suite
):
    # Why a sweep fits 2N for every start: see the run_traverse docstring in
    # eqpart.core (sweep-kept floor, ascending scan that stops at the sign
    # change, tie-group pointers).
    violations = []
    worst = 0.0
    runs = [(n, s, r) for n, s, r in random_instance_runs[0]]
    runs += [(n, s, r) for n, s, r, _ in exhaustive_small_runs]
    for n, strategy, report in runs:
        peak = report.metrics.max_traverse_evaluations
        worst = max(worst, peak / (2 * n))
        if peak > 2 * n:
            violations.append((n, strategy.value, peak))
    # bench runs: run_suite asserts the same bound internally, so reaching
    # here means zero bench violations
    by_strategy = {}
    for n, strategy, peak in violations:
        by_strategy[strategy] = by_strategy.get(strategy, 0) + 1
    ok = not violations
    assert verdict(
        4, ok,
        f"per-traverse candidate_evaluations <= 2N in {len(runs) - len(violations)}"
        f"/{len(runs)} runs (violations by init: {by_strategy or 'none'}, "
        f"worst peak/2N = {worst:.2f})",
    ) and ok


def test_criterion_5_quadratic_scaling(scaling_suite):
    report, elapsed = scaling_suite
    slope = report.slope
    ok = 0.9 <= slope <= 2.2
    assert verdict(
        5, ok,
        f"log-log slope of median candidate evaluations vs N = {slope:.3f} "
        f"(required within [0.9, 2.2]; suite took {elapsed:.1f}s)",
    ) and ok


def test_criterion_6_strict_monotonic_decrease(random_instance_runs, exhaustive_small_runs):
    runs = [(n, r) for n, _, r in random_instance_runs[0]]
    runs += [(n, r) for n, _, r, _ in exhaustive_small_runs]
    bad = 0
    for n, report in runs:
        seq = [abs(e.d_before) for e in report.trace]
        seq += [abs(report.trace[-1].d_after)] if report.trace else []
        if any(a <= b for a, b in zip(seq, seq[1:])):
            bad += 1
        if report.metrics.traverses > traverse_guard(n, Mode.EXACT_INT):
            bad += 1
    ok = bad == 0
    assert verdict(
        6, ok,
        f"per-swap |d| strictly decreasing and guard untripped in "
        f"{len(runs) - bad}/{len(runs)} runs",
    ) and ok


def test_criterion_7_sign_change_magnitude():
    rng = random.Random(77)
    checked = 0
    bad = 0
    for i in range(1000):
        inst = Instance.from_values([rng.randint(1, 10**6) for _ in range(100)])
        strategy = STRATEGIES[i % 4]
        report = solve(inst, cfg_for(strategy, seed=i))
        xs = report.sorted_instance.sorted_values
        for e in report.trace:
            if e.outcome is TraverseOutcome.SIGN_FLIPPED:
                checked += 1
                if abs(e.d_after) > xs[e.partner + 1] - xs[e.partner]:
                    bad += 1
    ok = bad == 0
    assert verdict(
        7, ok,
        f"{checked - bad}/{checked} sign-flipping swaps bounded by the "
        f"consecutive gap above the partner (1000 instances, N=100)",
    ) and ok


def test_criterion_8_affine_invariance():
    rng = random.Random(88)
    total = 0
    bad = 0
    for i in range(500):
        n = rng.choice(range(4, 17, 2))
        values = [rng.randint(1, 10**4) for _ in range(n)]
        strategy = STRATEGIES[i % 4]
        cfg = cfg_for(strategy, seed=i, trace=False)
        base = solve(Instance.from_values(values), cfg)
        for alpha in (2, 3, 10):
            for beta in (-10**4, 0, 7):
                total += 1
                moved = solve(
                    Instance.from_values([alpha * v + beta for v in values]), cfg
                )
                if (
                    moved.partition.in_set1 != base.partition.in_set1
                    or moved.objective != alpha * base.objective
                ):
                    bad += 1
    ok = bad == 0
    assert verdict(
        8, ok,
        f"{total - bad}/{total} transformed solves bit-identical with "
        f"objective scaled by alpha (500 instances x 9 transforms)",
    ) and ok


def test_criterion_9_traditional_reduction():
    rng = random.Random(99)
    bad = 0
    for i in range(500):
        n = rng.randint(3, 12)
        inst = Instance.from_values([rng.randint(1, 10**4) for _ in range(n)])
        strategy = STRATEGIES[i % 4]
        res = solve_traditional(inst, cfg_for(strategy, seed=i, trace=False))
        if not is_locally_optimal_pairswap(res.extended_report.partition):
            bad += 1
        elif not is_locally_optimal_transfer(res):
            bad += 1
        elif res.objective < exact_min_diff_unconstrained(inst):
            bad += 1
    ok = bad == 0
    assert verdict(
        9, ok,
        f"{500 - bad}/500 dummy-zero reductions pass both optimality checkers "
        f"and dominate the 2^(N-1) brute-force optimum",
    ) and ok


def test_criterion_10_float_drift():
    rng = random.Random(1010)
    n = 10**4
    bad = 0
    for i in range(200):
        values = [rng.random() for _ in range(n)]
        inst = Instance(tuple(values), Mode.FLOAT64)
        strategy = (InitStrategy.ALTERNATING, InitStrategy.GREEDY)[i % 2]
        report = solve(inst, SolverConfig(init_strategy=strategy))
        bound = 1e-9 * math.fsum(map(abs, values))
        # fsum rounds the exact side difference once: an independent objective
        exact = abs(math.fsum([values[i] for i in report.original_set1]
                              + [-values[i] for i in report.original_set2]))
        if abs(report.objective - exact) > bound:
            bad += 1
        elif not is_locally_optimal_pairswap(report.partition, tolerance=bound):
            bad += 1
    ok = bad == 0
    assert verdict(
        10, ok,
        f"{200 - bad}/200 float runs (N=10^4) within 1e-9 relative drift and "
        f"pair-swap optimal at that tolerance",
    ) and ok
