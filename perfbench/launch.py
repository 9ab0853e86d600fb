"""Spawns the CLI children of cli_bulk_int on behalf of the benchmark.

    python3 launch.py CMD [ARG...]

On Linux a child's ru_maxrss, as wait4 reports it, starts at the peak RSS of
the process that spawned it: the spawner's high-water mark is carried
across fork and exec.  Spawned from the benchmark process, whose memory
holds inputs and checked outputs, a CLI child would report the
benchmark's peak instead of its own.  This small process spawns them
instead.

For each line read on stdin it runs CMD with the line's text appended as
one more argument, reads its stdout and stderr to the end, reaps it with
wait4 and writes one JSON header line
{"ns", "exit", "rss_kb", "out", "err"} followed by "out" bytes of stdout
and "err" bytes of stderr.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    cmd = sys.argv[1:]
    while line := sys.stdin.buffer.readline():
        t0 = time.perf_counter_ns()
        with subprocess.Popen([*cmd, line.rstrip(b"\n")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        ns = time.perf_counter_ns() - t0
        header = {"ns": ns, "exit": proc.returncode, "rss_kb": usage.ru_maxrss,
                  "out": len(out), "err": len(err)}
        sys.stdout.buffer.write(json.dumps(header).encode() + b"\n" + out + err)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
