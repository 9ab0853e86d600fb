"""eqpart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eqpart is imported from ./src, so
nothing needs installing.  Workloads are cli_bulk_int, lib_split_verify and
lib_small_mixed (see workloads.py and README.md).

--trace 0 measures the end-to-end metrics: set-up time (a fresh interpreter
importing eqpart), request latency and successful requests per unit of
time, both in units of a reference task timed around each request (see
Reference), and peak RSS.  --trace 1 replays the same requests through each
layer's public functions with spans around every call and reports
per-layer self times, the solver's work counters and the tracing overhead.  Every output is
checked by check.py.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 9

COUNTS = ("traverses", "swaps", "sign_changes", "candidate_evaluations")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def import_eqpart(env, importtime=False):
    """Spawn a fresh interpreter that imports eqpart; (wall ns, stderr)."""
    extra = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, *extra, "-c", "import eqpart"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
    return time.perf_counter_ns() - t0, proc.stderr.decode()


def import_breakdown(stderr: str):
    """(numpy cumulative us, summed self us of eqpart modules) from -X importtime."""
    numpy_us = eqpart_us = 0
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "numpy":
            numpy_us = cumulative_us
        if name == "eqpart" or name.startswith("eqpart."):
            eqpart_us += self_us
    return numpy_us, eqpart_us


def tail(samples):
    """(value, percentile): the highest percentile with ten samples beyond it,
    but no higher than p99 and no lower than the median.  A run of tiny calls
    makes 10^5 of them, where ten samples beyond would be p99.99, set by
    whatever paused the process (a collection, a page fault) and different
    on every run."""
    s = sorted(samples)
    beyond = min(max(10, math.ceil(len(s) / 100)), len(s) // 2)
    return s[-beyond - 1], 100.0 * (len(s) - beyond) / len(s)


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# The reference child: a fresh interpreter that does the work of a CLI
# request with the solver left out: import numpy, read and parse a text of
# integers, sort them with numpy and write JSON to a pipe.
REFERENCE_CHILD = """import json, sys, numpy
with open(sys.argv[1]) as fh:
    values = [int(t) for t in fh.read().split()]
order = numpy.argsort(numpy.array(values, dtype=numpy.int64), kind="stable")
sys.stdout.write(json.dumps({"set1": values[0::2], "set2": values[1::2],
                             "first": int(order[0])}))
"""


class Reference:
    """Fixed slices of work, timed between requests, that no change to
    eqpart can alter.  For in-process workloads: tokenizing a text of
    integers with regular expressions and converting each token, the way
    eqpart's parser does.  For workloads whose requests are child
    processes: REFERENCE_CHILD on a file of as many integers as a request
    reads.

    The host's speed drifts by a third or more within minutes, and switches
    between levels within seconds, so raw wall times of runs a few minutes
    apart disagree by more than any useful bound.  Each request is
    therefore reported as a multiple of the reference time around it (the
    mean of the samples just before and just after it), measured on the
    same CPU.  Of the kinds of work tried (keyed sort, partner-scan loops,
    nested verifier loops, page-touching, bare interpreter start, a child
    importing numpy), these tracked the requests' speed best.
    """

    EVERY_S = 0.25
    TOKENS = 12000

    def __init__(self, child_env=None, child_values=0, work_dir=None):
        rng = random.Random(20211)
        self.text = " ".join(str(rng.randint(1, 10**9)) for _ in range(self.TOKENS))
        self.token = re.compile(r"[^\s,]+")
        self.integer = re.compile(r"[+-]?\d+")
        self.child_env = child_env
        self.child_input = None
        if child_env is not None:
            self.child_input = os.path.join(work_dir, "reference-input.txt")
            with open(self.child_input, "w") as fh:
                fh.write("\n".join(str(rng.randint(1, 10**9))
                                   for _ in range(child_values)) + "\n")
        self.next_at = 0.0
        self.samples = []

    def close(self) -> None:
        if self.child_input is not None:
            os.remove(self.child_input)

    def measure(self) -> None:
        t0 = time.perf_counter_ns()
        if self.child_env is not None:
            out = subprocess.run([sys.executable, "-c", REFERENCE_CHILD, self.child_input],
                                 env=self.child_env, stdout=subprocess.PIPE,
                                 check=True).stdout
            ok = out.startswith(b'{"set1": [')
        else:
            values = []
            for m in self.token.finditer(self.text):
                tok = m.group()
                if self.integer.fullmatch(tok):
                    values.append(int(tok))
            ok = len(values) == self.TOKENS
        ns = time.perf_counter_ns() - t0
        if not ok:
            raise RuntimeError("reference task went wrong")
        self.samples.append(ns)

    def latest(self) -> int:
        """Index of the sample that precedes the next request, re-measuring
        when EVERY_S has passed since the last one."""
        now = time.perf_counter()
        if now >= self.next_at:
            self.measure()
            self.next_at = now + self.EVERY_S
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Reference time around the requests that followed sample index."""
        return (self.samples[index] + self.samples[index + 1]) / 2


class Tally:
    """Request outcomes, kept in compact arrays: on the library workloads
    the benchmark process is the one whose peak RSS is reported, so its
    memory may grow by only a few bytes per request."""

    def __init__(self, pass_len: int):
        self.pass_len = pass_len
        self.ns = array("q")
        self.ok = bytearray()
        self.failures = []
        self.first_pass = []  # memberships (or failures) of one pass over the pool
        self.parts = {}
        self.rss_kb = array("q")

    def add(self, o) -> None:
        if len(self.first_pass) < self.pass_len:
            self.first_pass.append(o.membership or o.failure)
        self.ns.append(o.ns)
        self.ok.append(o.ok)
        if not o.ok:
            self.failures.append(o.failure)
        if o.ok:
            for name, ns in o.parts.items():
                self.parts.setdefault(name, array("q")).append(ns)
        if o.rss_kb:
            self.rss_kb.append(o.rss_kb)


def measure(w, seconds: float, env):
    """The untraced run: the closed request loop, with set-up samples spread
    evenly over it."""
    from workloads import median

    import_eqpart(env)  # fill the bytecode cache; users pay that once
    ref = Reference(env, w.N, OUT) if w.spawns_children else Reference()
    tally = Tally(len(w.pool))
    setup, ref_index = [], array("q")
    start = time.perf_counter()
    try:
        while (len(tally.ns) < len(w.pool) or len(setup) < SETUP_RUNS
               or time.perf_counter() < start + seconds):
            if (len(setup) < SETUP_RUNS
                    and time.perf_counter() >= start + len(setup) * seconds / SETUP_RUNS):
                setup.append(import_eqpart(env)[0] / 1e9)
            ref_index.append(ref.latest())
            tally.add(w.request(len(tally.ns)))
        if tally.rss_kb:
            rss_kb = statistics.median(tally.rss_kb)
        else:  # read before the summary lists below add to the peak
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ref.measure()
    finally:
        ref.close()
    cost_all = [ns / ref.around(k) for ns, k in zip(tally.ns, ref_index)]
    cost = [c for c, ok in zip(cost_all, tally.ok) if ok]
    lat_ms = [ns / 1e6 for ns, ok in zip(tally.ns, tally.ok) if ok]
    tail_cost, tail_pct = tail(cost) if cost else (0.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_cost.p50": (median(cost), "ref"),
        "request_cost.tail": (tail_cost, "ref"),
        "ok_per_ref": (len(cost) / sum(cost_all), "1/ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = [f"reference: median {statistics.median(ref.samples) / 1e6:.3f} ms "
             f"over {len(ref.samples)} samples",
             f"tail percentile p{tail_pct:.2f} of {len(cost)} successful requests",
             f"setup_s samples: {' '.join(f'{x:.4f}' for x in setup)}",
             f"ok_per_s = {len(cost) / (sum(tally.ns) / 1e9):.6f} 1/s (raw wall time)"]
    for part, xs in [("request_ms", lat_ms)] + [
            (f"{p}_ms", [ns / 1e6 for ns in v]) for p, v in sorted(tally.parts.items())]:
        if xs:
            t, pct = tail(xs)
            notes.append(f"{part}.p50 = {statistics.median(xs):.6f} ms, {part}.tail = "
                         f"{t:.6f} ms (p{pct:.2f}, {len(xs)} samples, raw wall time)")
    return tally, metrics, notes


def measure_traced(w, seconds: float, env):
    """The traced run: every request runs through the layers under a
    no-op tracer and under the recording tracer (alternating which goes
    first), plus the whole-entry probes; the first pass over the pool also
    runs the untraced request to check that the layer-by-layer path gives
    the same membership."""
    from spans import NullTracer, Tracer
    from workloads import CORE_LAYERS, median

    imports = [import_breakdown(import_eqpart(env, importtime=True)[1])
               for _ in range(SETUP_RUNS)]
    tracer, null = Tracer(), NullTracer()
    pass_len = len(w.pool)
    tally = Tally(pass_len)
    infos, plain_ns, traced_ns = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < pass_len or time.perf_counter() < deadline:
        for tr in ((null, tracer) if i % 2 == 0 else (tracer, null)):
            t0 = time.perf_counter_ns()
            info = w.traced(i, tr, i)
            (traced_ns if tr is tracer else plain_ns).append(time.perf_counter_ns() - t0)
        w.probes(i, tracer, i)
        if i < pass_len:
            o = w.request(i)
            expected = "guard" if o.failure == "guard" else o.membership
            if o.ok or o.failure == "guard":
                if info.membership != expected:
                    o.failure = "check: layer-by-layer membership differs from the request's"
            tally.add(o)
            infos.append(info)
        i += 1

    self_ns = tracer.self_times()
    totals = {c: sum(getattr(t.metrics, c) for t in infos) for c in COUNTS}
    metrics = {
        "setup.import_numpy_s": (statistics.median(x[0] for x in imports) / 1e6, "s"),
        "setup.import_eqpart_self_s": (statistics.median(x[1] for x in imports) / 1e6, "s"),
        **{f"{layer}_s": (median([v[layer] for v in self_ns.values() if layer in v])
                          / 1e9, "s")
           for layer in CORE_LAYERS},
        **{f"core.{c}": (totals[c] / pass_len, "count") for c in COUNTS},
        "core.peak_evals_per_2n": (max(t.metrics.max_traverse_evaluations / (2 * t.n)
                                       for t in infos), "ratio"),
        "core.swap_yield": (totals["swaps"] / totals["candidate_evaluations"], "ratio"),
        "core.guard_trips": ((w.guard_report() or (0, 0))[0]
                             + sum(t.tripped for t in infos), "count"),
        "trace.overhead_s": (statistics.median(t - p for t, p in zip(traced_ns, plain_ns))
                             / 1e9, "s"),
    }
    notes = [f"traced requests: {i}, spans: {len(tracer.spans)}"]
    for name, ns in w.layer_report(tracer, self_ns).items():
        notes.append(f"{name} = {ns / 1e9:.6f} s")
    os.makedirs(OUT, exist_ok=True)
    with gzip.open(os.path.join(OUT, f"spans-{w.name}.jsonl.gz"), "wt") as fh:
        tracer.write(fh)
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqpart", "__init__.py")):
        print(f"error: no eqpart sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so that the reference
    # and the requests it normalizes run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    w = WORKLOADS[args.workload](args.seed, OUT, env)
    run = measure_traced if args.trace else measure
    try:
        tally, metrics, notes = run(w, args.seconds, env)
    finally:
        w.close()

    failures = tally.failures
    attempted = len(tally.ns)
    print(f"workload {w.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine {json.dumps(machine())}")
    print(f"input digest {digest(w.input_texts())}, "
          f"output membership digest {digest(tally.first_pass)}")
    print(f"attempted {attempted}, failed {len(failures)}, "
          f"fail_ratio {len(failures) / attempted:.6f}")
    kinds = {}
    for f in failures:
        kinds.setdefault(f.split(":")[0], []).append(f)
    for kind, fs in sorted(kinds.items()):
        print(f"  failures {kind}: {len(fs)} (first: {fs[0][:200]})")
    if w.guard_report() is not None:
        trips, drawn = w.guard_report()
        print(f"  guard trips (ROADMAP item 1): {trips} of {drawn} float inputs "
              f"({trips / drawn:.6f}) raise the nontermination guard; "
              f"run once at set-up and left out of the timed loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not any(f.startswith("check") for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
