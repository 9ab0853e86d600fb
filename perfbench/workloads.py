"""The benchmark's three workloads: seeded inputs, requests, checks, traces.

Every workload is a closed loop with one client in one process: the next
request starts when the previous one has finished.  Inputs come from the
benchmark's own seeded generators, never from eqpart.bench, so a change to
the program cannot change what is measured.

Each workload offers
  pool           the distinct request inputs, cycled in order;
  request(i)     runs pool item i % len(pool) untraced and checks the output;
  traced(i, tr)  runs the same item through the public functions of each
                 layer separately, with a span around every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

from eqpart import cli, core, reductions
from eqpart.core import InitStrategy, Instance, Metrics, Mode, SolverConfig

from check import CheckError, check_partition, check_value_sides

HERE = os.path.dirname(os.path.abspath(__file__))

# The console-script entry point of `eqpart`, run without installing it.
CLI_STUB = "import sys; from eqpart.cli import main; sys.exit(main())"
CLI_ARGS = ("solve", "--format", "json", "--input")  # the input path follows

# {0.1, 0.2, 0.3, 1e-9, 7} x {1, 3} written as decimal literals, so the
# duplicates (0.3 twice) match values a user would type.
FLOAT_VALUES = (0.1, 0.3, 0.2, 0.6, 0.3, 0.9, 1e-9, 3e-9, 7.0, 21.0)
INITS = tuple(InitStrategy)


@dataclass
class Outcome:
    """One request: wall time, verdict and the membership for the digest."""

    ns: int
    failure: str | None = None  # None when the request succeeded and checked
    membership: str = ""
    parts: dict = field(default_factory=dict)  # named sub-timings in ns
    rss_kb: int = 0  # peak RSS of a child process, when there is one

    @property
    def ok(self) -> bool:
        return self.failure is None


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _failure(exc: Exception) -> str:
    if isinstance(exc, CheckError):
        return f"check: {exc}"
    if isinstance(exc, core.InternalConsistencyError) and "nontermination guard" in str(exc):
        return "guard"
    return f"error: {type(exc).__name__}: {exc}"


def _membership(set1, set2) -> str:
    return json.dumps([list(set1), list(set2)])


# ---------------------------------------------------------------- traced core

# Span names of the layers every workload's requests pass through.
CORE_LAYERS = ("core.instance", "core.sort", "core.init", "core.descent",
               "core.recompute", "core.emit")


def median(xs) -> float:
    """Median, or 0.0 when there are no samples."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def traced_solve(instance, cfg, tr, rid, card1=None):
    """core.solve called layer by layer, mirroring its body.

    Returns (state, set1, set2, metrics, tripped); tripped is True when the
    nontermination guard would have raised, in which case the sides are
    None.
    """
    with tr.span("core.sort", rid):
        si = core.normalize_and_sort(instance)
    with tr.span("core.init", rid):
        state = core.init_partition(si, cfg, card1)
    metrics = Metrics()
    guard = core.traverse_guard(len(si), si.mode, cfg.traverse_guard_factor)
    with tr.span("core.descent", rid):
        while True:
            if metrics.traverses >= guard:
                return state, None, None, metrics, True
            outcome = core.run_traverse(state, cfg, metrics)
            if outcome is not core.TraverseOutcome.SIGN_FLIPPED:
                break
    with tr.span("core.recompute", rid):
        core.recompute_sums(state)
    with tr.span("core.emit", rid):
        set1 = tuple(sorted(si.perm[i] for i in state.set1_indices()))
        set2 = tuple(sorted(si.perm[i] for i in state.set2_indices()))
    return state, set1, set2, metrics, False


@dataclass
class Traced:
    """What one traced request reports beyond its spans."""

    metrics: Metrics
    n: int
    tripped: bool
    membership: str


# ---------------------------------------------------------------- workloads

class Workload:
    pool: list
    spawns_children = False  # requests run eqpart in a child process

    def probes(self, i: int, tr, rid: int) -> None:
        """Whole public entry points, timed outside the request's spans."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    def guard_report(self):
        """(float inputs screened out at set-up because the nontermination
        guard trips on them, float inputs drawn), or None."""
        return None

    def layer_report(self, tracer, self_ns) -> dict:
        """Median ns of the layers only this workload exercises, from the
        traced run's spans and per-request self times."""
        return {}


class CliBulkInt(Workload):
    """`eqpart solve --format json` as a child process on files of 2^17 values.

    The descent's work differs fivefold between inputs of this size (35k to
    180k candidate evaluations), so a run cycles over a pool of files rather
    than repeating one; a run's median then moves less with the seed.
    """

    name = "cli_bulk_int"
    N = 131072
    POOL = 16
    spawns_children = True

    def __init__(self, seed: int, work_dir, env: dict):
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = []
        for k in range(self.POOL):
            values = array("q", (rng.randint(1, 10**9) for _ in range(self.N)))
            path = os.path.join(work_dir, f"{self.name}-{seed}-{k}.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(map(str, values)) + "\n")
            self.pool.append((values, path))
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py"),
             sys.executable, "-c", CLI_STUB, *CLI_ARGS],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)
        self.launcher.stdout.close()
        for _, path in self.pool:
            os.remove(path)

    def input_texts(self):
        return [",".join(map(str, values)) for values, _ in self.pool]

    def request(self, i: int) -> Outcome:
        values, path = self.pool[i % len(self.pool)]
        self.launcher.stdin.write(path.encode() + b"\n")
        self.launcher.stdin.flush()
        header = json.loads(self.launcher.stdout.readline())
        out = self.launcher.stdout.read(header["out"])
        err = self.launcher.stdout.read(header["err"])
        result = Outcome(header["ns"], rss_kb=header["rss_kb"])
        if header["exit"] != 0:
            result.failure = f"exit {header['exit']}: {err.decode(errors='replace').strip()}"
            return result
        try:
            payload = json.loads(out)
            check_value_sides(values, payload["set1"], payload["set2"], payload["objective"])
        except CheckError as exc:
            result.failure = _failure(exc)
            return result
        except (ValueError, KeyError) as exc:
            result.failure = f"check: malformed output: {exc!r}"
            return result
        result.membership = _membership(payload["set1"], payload["set2"])
        return result

    def traced(self, i: int, tr, rid: int) -> Traced:
        values, path = self.pool[i % len(self.pool)]
        with tr.span("request", rid):
            with tr.span("cli.read", rid):
                with open(path, "rb") as fh:
                    data = fh.read()
            with tr.span("cli.parse", rid):
                inst = cli.parse_input(data)
            _, set1, set2, metrics, tripped = traced_solve(inst, SolverConfig(), tr, rid)
        membership = "guard" if tripped else _membership(
            [values[j] for j in set1], [values[j] for j in set2])
        return Traced(metrics, len(inst), tripped, membership)

    def probes(self, i: int, tr, rid: int) -> None:
        """Calls timed outside the request: the in-process CLI entry point and
        the Instance validation that parse_input performs internally."""
        values, path = self.pool[i % len(self.pool)]
        with tr.span("cli.main", rid), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*CLI_ARGS, path])
        if code != 0:
            raise RuntimeError(f"in-process cli.main exited {code}")
        with tr.span("core.instance", rid):
            Instance(tuple(values), Mode.EXACT_INT)

    def layer_report(self, tracer, self_ns) -> dict:
        main = tracer.durations("cli.main")
        request = tracer.durations("request")
        return {
            "cli.parse_s": median(v["cli.parse"] for v in self_ns.values() if "cli.parse" in v),
            "cli.main_s": median(main.values()),
            "cli.render_s": median(main[r] - request[r] for r in main),
        }


class LibSplitVerify(Workload):
    """In-process solve with the split init, then the library's verifier."""

    name = "lib_split_verify"
    N = 2048
    POOL = 8
    CFG = SolverConfig(init_strategy=InitStrategy.SPLIT_HALF)

    def __init__(self, seed: int, work_dir, env: dict):
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = [tuple(rng.randint(1, 10**9) for _ in range(self.N))
                     for _ in range(self.POOL)]

    def input_texts(self):
        return [",".join(map(str, v)) for v in self.pool]

    def request(self, i: int) -> Outcome:
        values = self.pool[i % len(self.pool)]
        t0 = time.perf_counter_ns()
        try:
            report = core.solve(Instance(values, Mode.EXACT_INT), self.CFG)
            t1 = time.perf_counter_ns()
            verdict = bool(core.is_locally_optimal_pairswap(report.partition))
        except Exception as exc:  # a failed request is counted, never fatal
            return Outcome(time.perf_counter_ns() - t0, _failure(exc))
        t2 = time.perf_counter_ns()
        result = Outcome(t2 - t0, parts={"solve": t1 - t0, "verify": t2 - t1})
        try:
            if not verdict:
                raise CheckError("is_locally_optimal_pairswap rejected the output")
            check_partition(values, report.original_set1, report.original_set2,
                            report.objective)
        except CheckError as exc:
            result.failure = _failure(exc)
            return result
        result.membership = _membership(report.original_set1, report.original_set2)
        return result

    def traced(self, i: int, tr, rid: int) -> Traced:
        values = self.pool[i % len(self.pool)]
        with tr.span("request", rid):
            with tr.span("core.instance", rid):
                inst = Instance(values, Mode.EXACT_INT)
            state, set1, set2, metrics, tripped = traced_solve(inst, self.CFG, tr, rid)
            with tr.span("core.verify", rid):
                core.is_locally_optimal_pairswap(state)
        membership = "guard" if tripped else _membership(set1, set2)
        return Traced(metrics, len(values), tripped, membership)

    def layer_report(self, tracer, self_ns) -> dict:
        return {"core.verify_s": median(v["core.verify"] for v in self_ns.values())}


class LibSmallMixed(Workload):
    """Many tiny library calls, in equal shares of three kinds.

    Float mode can loop between two swaps until the nontermination guard
    raises (ROADMAP item 1).  Each float input is run once at set-up; those
    that trip the guard are counted in `tripped` and reported, and the timed
    loop cycles over the rest, so that its requests succeed.  Whether an
    input trips depends only on the input, so the count repeats exactly for
    a seed.
    """

    name = "lib_small_mixed"
    PER_KIND = 3000

    def __init__(self, seed: int, work_dir, env: dict):
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = []
        self.tripped = []  # float inputs on which the guard raises
        for k in range(self.PER_KIND):
            n = 2 * rng.randint(1, 20)
            init = INITS[k % len(INITS)]
            item = ("float", tuple(rng.choice(FLOAT_VALUES) for _ in range(n)),
                    init, rng.randrange(2**31))
            if run_small_call(item).failure == "guard":
                self.tripped.append(item)
            else:
                self.pool.append(item)
            n = rng.randint(1, 60)
            self.pool.append(("traditional", tuple(rng.randint(1, 10**6) for _ in range(n)),
                              None, None))
            n = rng.randint(2, 60)
            self.pool.append(("pinned", tuple(rng.randint(1, 10**6) for _ in range(n)),
                              rng.randint(1, n - 1), None))

    def input_texts(self):
        return [repr(item) for item in self.pool + self.tripped]

    def guard_report(self):
        return len(self.tripped), self.PER_KIND

    def request(self, i: int) -> Outcome:
        return run_small_call(self.pool[i % len(self.pool)])

    def traced(self, i: int, tr, rid: int) -> Traced:
        kind, values, arg, seed = self.pool[i % len(self.pool)]
        mode = Mode.FLOAT64 if kind == "float" else Mode.EXACT_INT
        with tr.span("request", rid):
            with tr.span("core.instance", rid):
                inst = Instance(values, mode)
            if kind == "float":
                _, set1, set2, metrics, tripped = traced_solve(
                    inst, SolverConfig(init_strategy=arg, seed=seed), tr, rid)
            elif kind == "traditional":
                with tr.span("reductions.pad", rid):
                    padded = reductions.to_equal_cardinality(inst)
                _, set1, set2, metrics, tripped = traced_solve(padded, SolverConfig(), tr, rid)
                if not tripped:
                    set1 = tuple(j for j in set1 if j < len(values))
                    set2 = tuple(j for j in set2 if j < len(values))
            else:
                _, set1, set2, metrics, tripped = traced_solve(
                    inst, SolverConfig(), tr, rid, card1=arg)
        n = len(values) * (2 if kind == "traditional" else 1)
        membership = "guard" if tripped else _membership(set1, set2)
        return Traced(metrics, n, tripped, membership)

    def probes(self, i: int, tr, rid: int) -> None:
        """The reductions' public entry points, timed whole, so that their own
        share (strip = traditional - pad - inner solve) can be derived."""
        kind, values, arg, seed = self.pool[i % len(self.pool)]
        if kind == "float":
            return
        inst = Instance(values, Mode.EXACT_INT)
        with tr.span(f"reductions.{kind}", rid):
            if kind == "traditional":
                reductions.solve_traditional(inst)
            else:
                reductions.solve_with_cardinality(inst, arg)

    def layer_report(self, tracer, self_ns) -> dict:
        trad = tracer.durations("reductions.traditional")
        inner = {r: sum(v.get(layer, 0) for layer in CORE_LAYERS[1:])
                 for r, v in self_ns.items()}
        return {
            "reductions.pad_s": median(v["reductions.pad"] for v in self_ns.values()
                                        if "reductions.pad" in v),
            "reductions.traditional_s": median(trad.values()),
            "reductions.strip_s": median(trad[r] - self_ns[r]["reductions.pad"] - inner[r]
                                          for r in trad),
            "reductions.pinned_s": median(tracer.durations("reductions.pinned").values()),
        }


def run_small_call(item) -> Outcome:
    """One lib_small_mixed call, timed, then checked untimed."""
    kind, values, arg, seed = item
    t0 = time.perf_counter_ns()
    try:
        if kind == "float":
            cfg = SolverConfig(init_strategy=arg, seed=seed)
            report = core.solve(Instance(values, Mode.FLOAT64), cfg)
        elif kind == "traditional":
            report = reductions.solve_traditional(Instance(values, Mode.EXACT_INT))
        else:
            report = reductions.solve_with_cardinality(Instance(values, Mode.EXACT_INT), arg)
    except Exception as exc:  # a failed call is counted, never fatal
        return Outcome(time.perf_counter_ns() - t0, _failure(exc))
    result = Outcome(time.perf_counter_ns() - t0)
    try:
        if kind == "traditional":
            set1, set2 = report.part1, report.part2
            check_partition(values, set1, set2, report.objective, transfers=True)
        else:
            set1, set2 = report.original_set1, report.original_set2
            check_partition(values, set1, set2, report.objective,
                            card1=arg if kind == "pinned" else None)
    except CheckError as exc:
        result.failure = _failure(exc)
        return result
    result.membership = _membership(set1, set2)
    return result


WORKLOADS = {w.name: w for w in (CliBulkInt, LibSplitVerify, LibSmallMixed)}
