"""Side-by-side descent timer: two versions of eqpart's core.py in one process.

    git show REV:src/eqpart/core.py > parent_core.py
    python tests/ab_descent.py parent_core.py --out BENCH_ties.json

loads parent_core.py and this checkout's src/eqpart/core.py (or --change
FILE) as two modules.  Each cell's start is the parent's init_partition of
its input; a descent is run_traverse repeated on a fresh copy of that start
until a sweep returns anything but SIGN_FLIPPED, timed alone: no sort, init,
recompute or emit.  A round runs each side's descent 5 times (3 from
N = 2^16) and keeps the fastest; 11 rounds (9 from N = 2^15, 15 for the
pool) alternate which side runs first, and min and median are over the
rounds' bests.  Every descent's counters, membership and d must be
equal on both sides, or the script stops with an AssertionError.

Inputs: for N = 2^10..2^17, N values of each family in FAMILIES, drawn by
random.Random(N) and built by Instance.from_values (floats run in float
mode), under the four inits (random with seed 1); and lib_split_verify's
seed-1 pool: 8 inputs of N = 2048 from random.Random("lib_split_verify:1"),
split init, reported as per-solve means.  All but the first family are
tie-heavy.  The pool runs twice: as descents, and as whole requests
(request_ms) as perfbench's lib_split_verify makes them: Instance, solve
with split init and is_locally_optimal_pairswap, which must say True.  The
file has no test_ prefix, so pytest does not collect it.
"""

import argparse
import importlib.util
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

COUNTERS = ("traverses", "swaps", "sign_changes", "candidate_evaluations",
            "max_traverse_evaluations")
INITS = ("alternating", "split", "random", "greedy")
FAMILIES = {
    "uniform ints in [1, 10^9]": lambda rng, n: [rng.randint(1, 10**9) for _ in range(n)],
    "two-decimal floats in [0, 1000]": lambda rng, n: [
        round(rng.uniform(0, 1000), 2) for _ in range(n)],
    "ints in [1, 10^9], each drawn twice": lambda rng, n: [
        x for x in (rng.randint(1, 10**9) for _ in range(n // 2)) for _ in (0, 1)],
    "ints in {0..9}": lambda rng, n: [rng.randint(0, 9) for _ in range(n)],
    "ints in {0..100}": lambda rng, n: [rng.randint(0, 100) for _ in range(n)],
}


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a core.py from before its records were plain classes builds them with
    # dataclasses, which look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def descent(core, start):
    """(seconds, outcome) of one descent from a copy of start."""
    state = core.PartitionState(start.values, list(start.in_set1), start.d, start.scale)
    metrics, cfg = core.Metrics(), core.SolverConfig()
    t0 = time.perf_counter()
    while core.run_traverse(state, cfg, metrics) is core.TraverseOutcome.SIGN_FLIPPED:
        pass
    elapsed = time.perf_counter() - t0
    return elapsed, (tuple(getattr(metrics, c) for c in COUNTERS), state.in_set1, state.d)


def request(core, values):
    """(seconds, outcome) of one whole lib_split_verify request on values."""
    cfg = core.SolverConfig(init_strategy=core.InitStrategy.SPLIT_HALF)
    t0 = time.perf_counter()
    report = core.solve(core.Instance(values, core.Mode.EXACT_INT), cfg)
    verdict = core.is_locally_optimal_pairswap(report.partition)
    elapsed = time.perf_counter() - t0
    assert verdict, "is_locally_optimal_pairswap rejected the output"
    metrics = report.metrics
    return elapsed, (tuple(getattr(metrics, c) for c in COUNTERS), report.membership,
                     report.partition.d)


def run_swaps(core, start):
    """Swaps the change takes inside _take_run, on an untimed descent."""
    taken = [0]
    take = core._take_run

    def counted(values, in_set1, larger, n, floor, *rest):
        result = take(values, in_set1, larger, n, floor, *rest)
        taken[0] += result[1] - floor
        return result

    core._take_run = counted
    try:
        descent(core, start)
    finally:
        core._take_run = take
    return taken[0]


def cell(sides, starts, rounds, reps, run):
    """Per-solve mean of each round's best runs (descent or request), and
    the outcomes."""
    bests = {name: [] for name in sides}
    outcomes = None
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        seen = {}
        for name in order:
            total = 0.0
            for i, start in enumerate(starts):
                runs = [run(sides[name], start) for _ in range(reps)]
                total += min(t for t, _ in runs)
                seen.setdefault(name, []).append(runs[0][1])
            bests[name].append(1e3 * total / len(starts))
        assert seen["parent"] == seen["change"], "counters, membership or d differ"
        outcomes = seen["change"]
    return bests, outcomes


def main(argv=None):
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent's core.py")
    ap.add_argument("--change", default=str(here / "src" / "eqpart" / "core.py"))
    ap.add_argument("--out", help="write the cells here as JSON")
    ap.add_argument("--max-log2", type=int, default=17, help="largest N is 2^this")
    args = ap.parse_args(argv)
    sides = {"parent": load(args.parent, "ab_parent_core"),
             "change": load(args.change, "ab_change_core")}
    parent = sides["parent"]

    def start(values, init):
        si = parent.normalize_and_sort(parent.Instance.from_values(values))
        cfg = parent.SolverConfig(init_strategy=parent.InitStrategy(init), seed=1)
        return parent.init_partition(si, cfg)

    grid = []
    for k in range(10, args.max_log2 + 1):
        n = 1 << k
        rounds, reps = (11 if k < 15 else 9), (5 if k < 16 else 3)
        for family, draw in FAMILIES.items():
            values = draw(random.Random(n), n)
            for init in INITS:
                grid.append((n, family, init, [start(values, init)], rounds, reps, descent))
    rng = random.Random("lib_split_verify:1")
    pool = [[rng.randint(1, 10**9) for _ in range(2048)] for _ in range(8)]
    grid.append((2048, "lib_split_verify's seed-1 pool", "split",
                 [start(v, "split") for v in pool], 15, 5, descent))
    grid.append((2048, "lib_split_verify's seed-1 pool", "split",
                 [tuple(v) for v in pool], 15, 5, request))

    cells = []
    for n, family, init, starts, rounds, reps, run in grid:
        bests, outcomes = cell(sides, starts, rounds, reps, run)
        ms = {name: {"min": round(min(b), 4), "median": round(statistics.median(b), 4)}
              for name, b in bests.items()}
        counters = [sum(o[0][i] for o in outcomes) / len(outcomes) for i in range(len(COUNTERS))]
        row = {
            "n": n, "input": family, "init": init, f"{run.__name__}_ms": ms,
            "change_over_parent_min": round(ms["change"]["min"] / ms["parent"]["min"], 3),
            "change_over_parent_median": round(ms["change"]["median"] / ms["parent"]["median"], 3),
            "counters_match": True,
            "counters": dict(zip(COUNTERS, (c if c % 1 else int(c) for c in counters))),
        }
        if hasattr(sides["change"], "_take_run") and run is descent:
            row["run_swaps"] = sum(run_swaps(sides["change"], s) for s in starts) / len(starts)
        cells.append(row)
        print(json.dumps(row), flush=True)
    if args.out:
        host = {"machine": platform.machine(), "python": platform.python_version(),
                "implementation": platform.python_implementation()}
        Path(args.out).write_text(json.dumps({"host": host, "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
