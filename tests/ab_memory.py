"""Peak memory and wall time of `eqpart solve` and `eqpart solve-traditional`
children, parent against change.

    git archive REV | tar -x -C PARENT_DIR
    python tests/ab_memory.py --parent PARENT_DIR --out BENCH_memory.json

runs `python -c "...main()" COMMAND --format F --input FILE`, COMMAND
solve and solve-traditional, as a child process with PYTHONPATH set to
each tree's src (this checkout's, and PARENT_DIR's when given) on seeded
inputs of N = 2^10..2^17 values (--sizes takes the exponents):

- int_lines: ints in [1, 10^9], one per line (cli_bulk_int's input);
- int_commas: the same ints, comma-separated;
- signed: ints in [-10^9, 10^9], one per line;
- zero_padded: int_lines' ints zero-padded to 10 digits (the text path);
- float2: two-decimal floats in [0, 10^4), one per line.

A child's peak RSS is the ru_maxrss that os.wait4 reports.  On Linux that
figure starts at the peak RSS of the process that spawned the child, so
children are spawned by a lean process of their own (this file with
--spawner) whose peak stays below any child's, never by this one, which
holds the inputs.  Each cell runs --reps times per side, alternating which
side runs first; medians and minima are over those runs.  Both sides'
outputs must be byte-identical with wall_time_ns masked, or the script
stops with an AssertionError.  A child's peak RSS can step by about 0.4 MB
with the length of a path alone (seen at 2^15: one tree read apart at two
paths, and one input file given by a relative and an absolute path), so
for a record, run this file from a copy of the checkout whose path is as
long as PARENT_DIR's.

Each cell also runs once per side under tracemalloc (this file with
--phases): parse_input, the solve (solve, or solve_traditional) and the
render reset the traced peak on entry and record it on exit, so each
phase's peak counts what earlier phases left alive.  The file has no test_
prefix, so pytest does not collect it.
"""

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time

CLI_STUB = "import sys; from eqpart.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))
WALL = re.compile(rb"wall_time_ns(\": |=)\d+")


def spawner() -> int:
    """Run one child per JSON line {"cmd", "env", "out"} read on stdin, its
    stdout into the file "out"; answer {"ns", "exit", "rss_kb", "err"}."""
    while line := sys.stdin.readline():
        job = json.loads(line)
        with open(job["out"], "wb") as out:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(job["cmd"], stdout=out, stderr=subprocess.PIPE,
                                    env=job["env"])
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            ns = time.perf_counter_ns() - t0
        proc.stderr.close()
        print(json.dumps({"ns": ns, "exit": os.waitstatus_to_exitcode(status),
                          "rss_kb": usage.ru_maxrss, "err": err.decode(errors="replace")}),
              flush=True)
    return 0


def phases(command: str, fmt: str, path: str) -> int:
    """Print the tracemalloc peak, in bytes, of parse, solve and render of
    one `eqpart COMMAND` run in this process, as one JSON line on stderr."""
    import tracemalloc

    from eqpart import cli, reductions

    peaks = {}

    def phase(name, fn):
        def timed(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
        return timed

    print_unlimited = cli._print_unlimited
    cli.parse_input = phase("parse", cli.parse_input)
    cli.solve = phase("solve", cli.solve)
    reductions.solve_traditional = phase("solve", reductions.solve_traditional)
    cli._print_unlimited = lambda render: print_unlimited(phase("render", render))
    tracemalloc.start()
    code = cli.main([command, "--format", fmt, "--input", path])
    tracemalloc.stop()
    sys.stdout.flush()
    print(json.dumps(peaks), file=sys.stderr)
    return code


def inputs(n: int) -> dict:
    rng = random.Random(n)
    ints = [rng.randint(1, 10**9) for _ in range(n)]
    return {
        "int_lines": "\n".join(map(str, ints)) + "\n",
        "int_commas": ",".join(map(str, ints)) + "\n",
        "signed": "\n".join(str(rng.randint(-10**9, 10**9)) for _ in range(n)) + "\n",
        "zero_padded": "\n".join(f"{v:010d}" for v in ints) + "\n",
        "float2": "\n".join(f"{rng.uniform(0, 1e4):.2f}" for _ in range(n)) + "\n",
    }


class Runner:
    """Sends jobs to one spawner process and reads the answers back."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "--spawner"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, tree, out):
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        self.proc.stdin.write(json.dumps({"cmd": cmd, "env": env, "out": out}) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        if answer["exit"] != 0:
            raise RuntimeError(f"{cmd} under {tree} exited {answer['exit']}: {answer['err']}")
        return answer

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default=None, help="a tree with the parent's src/eqpart")
    ap.add_argument("--sizes", default="10,11,12,13,14,15,16,17",
                    help="comma-separated exponents k of N = 2^k")
    ap.add_argument("--reps", type=int, default=5, help="child runs per side and cell")
    ap.add_argument("--out", default=None, help="write the JSON here, not to stdout")
    ap.add_argument("--spawner", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--phases", nargs=3, metavar=("COMMAND", "FORMAT", "FILE"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.spawner:
        return spawner()
    if args.phases:
        return phases(*args.phases)

    sides = {"change": os.path.dirname(HERE)}
    if args.parent:
        sides["parent"] = os.path.abspath(args.parent)
    runner = Runner()
    cells = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            outs = {side: os.path.join(tmp, f"{side}.out") for side in sides}
            imported = {side: runner.run([sys.executable, "-c", "import eqpart.cli"],
                                         tree, outs[side])["rss_kb"] / 1024
                        for side, tree in sides.items()}
            for k in map(int, args.sizes.split(",")):
                for name, text in inputs(1 << k).items():
                    path = os.path.join(tmp, "input.txt")
                    with open(path, "w") as fh:
                        fh.write(text)
                    for command in ("solve", "solve-traditional"):
                        for fmt in ("json", "text"):
                            cells.append(measure(runner, sides, outs, k, name, command, fmt,
                                                 path, args.reps))
                            print(json.dumps(cells[-1]), file=sys.stderr)
    finally:
        runner.close()
    report = {
        "topic": "peak RSS and wall time of `eqpart solve` and `eqpart solve-traditional` "
                 "children, per input kind, command, format and size, with per-phase "
                 "tracemalloc peaks",
        "host": {"cpu": platform.processor() or platform.machine(),
                 "vcpus": os.cpu_count(), "python": platform.python_version()},
        "method": f"python tests/ab_memory.py --reps {args.reps}: see its docstring",
        "import_rss_mb": {side: round(v, 2) for side, v in imported.items()},
        "cells": cells,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def measure(runner, sides, outs, k, name, command, fmt, path, reps) -> dict:
    cmd = [sys.executable, "-c", CLI_STUB, command, "--format", fmt, "--input", path]
    runs = {side: [] for side in sides}
    order = list(sides)
    for r in range(reps):
        for side in order if r % 2 == 0 else order[::-1]:
            runs[side].append(runner.run(cmd, sides[side], outs[side]))
    outputs = set()
    for side in sides:
        with open(outs[side], "rb") as fh:
            outputs.add(WALL.sub(rb"wall_time_ns\1_", fh.read()))
    assert len(outputs) == 1, f"outputs differ at 2^{k} {name} {command} {fmt}"
    cell = {"n": 1 << k, "input": name, "command": command, "format": fmt}
    for side, tree in sides.items():
        rss = [a["rss_kb"] / 1024 for a in runs[side]]
        wall = [a["ns"] / 1e6 for a in runs[side]]
        phase_run = runner.run([sys.executable, __file__, "--phases", command, fmt, path],
                               tree, outs[side])
        peaks = json.loads(phase_run["err"].splitlines()[-1])
        cell[side] = {
            "peak_rss_mb": {"median": round(statistics.median(rss), 2),
                            "min": round(min(rss), 2)},
            "wall_ms": {"median": round(statistics.median(wall), 1),
                        "min": round(min(wall), 1)},
            "phase_peak_mb": {p: round(v / 2**20, 2) for p, v in peaks.items()},
        }
    return cell


if __name__ == "__main__":
    sys.exit(main())
