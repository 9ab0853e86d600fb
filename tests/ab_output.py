"""Output corpus: seeded in-process runs of eqpart's CLI, digested or compared.

    python tests/ab_output.py --digest            # one sha256 over every run
    python tests/ab_output.py --digest --slice    # the slice test_cli.py pins
    python tests/ab_output.py --parent DIR        # DIR: another checkout's root

Each run calls cli.main(argv) in process on one stdin and keeps its exit code,
stdout and stderr, with every wall_time_ns masked to 0.  The corpus crosses
solve, verify and solve-traditional, both formats and the four inits with
seeded inputs of many shapes (ints, signed and 64- to 1024-bit ints,
two-decimal and exponent floats, paired values, small alphabets, genuine
zeros) and layouts (separators, CRLF, blank and '#' lines, a byte-order mark,
zero-padded and '+' tokens), drawing --stats, --verify, --oracle at small N,
--cardinality and --mode per run; the oracle subcommand runs at small N; then
come the error inputs, each under every command that takes its flags.

--parent DIR runs the same corpus on DIR/src's eqpart in a child process and
reports the first run whose exit code or output differs.  The digest covers
each run's argv and stdin too, so it pins the corpus as well as the output.
A run whose text depends on the Python version (argparse's usage and
messages) or on the host (an OS error's text) is left out of the slice.  The
file has no test_ prefix, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INITS = ("alternating", "split", "random", "greedy")
COMMANDS = ("solve", "verify", "solve-traditional")
SIZES = (2, 1, 6, 4, 12, 7, 10, 16, 33, 64, 200, 512)
SLICE_STEP = 8  # the slice is every 8th run that is not host- or version-bound
_MASK = re.compile(r'(wall_time_ns(?:": |=))\d+')


def _each(draw):
    return lambda r, n: [draw(r) for _ in range(n)]


def _wide(bits):
    return _each(lambda r: str(r.getrandbits(bits) - (1 << (bits - 1))))


def _pairs(r, n):
    """Ints in [1, 10^9], each drawn twice, shuffled."""
    half = [str(r.randint(1, 10**9)) for _ in range((n + 1) // 2)]
    tokens = (half * 2)[:n]
    r.shuffle(tokens)
    return tokens


SHAPES = {  # name -> (rng, n) to n tokens
    "ints": _each(lambda r: str(r.randint(1, 10**9))),
    "signed": _each(lambda r: str(r.randint(-10**9, 10**9))),
    "int64": _wide(64),
    "int128": _wide(128),
    "int1024": _wide(1024),
    "decimals": _each(lambda r: f"{r.randint(0, 100000) / 100:.2f}"),
    "exponents": _each(lambda r: r.choice(("1e-9", "2.5E3", ".5", "5.", "-0.3", "7"))),
    "digits": _each(lambda r: str(r.randint(0, 9))),
    "bits": _each(lambda r: str(r.randint(0, 1))),
    "zeros": _each(lambda r: "0" if r.random() < 0.4 else str(r.randint(1, 50))),
    "pairs": _pairs,
}

LAYOUTS = {  # name -> tokens to input text
    "space": lambda t: " ".join(t) + "\n",
    "lines": lambda t: "\n".join(t),
    "comma": ",".join,
    "comma-space": lambda t: ", ".join(t) + "\n",
    "tabs": lambda t: "\t".join(t) + "\n",
    "crlf": lambda t: "\r\n".join(t) + "\r\n",
    "blank-lines": lambda t: "\n\n".join(t) + "\n\n",
    "comments": lambda t: "# values\n" + "\n".join(t) + "\n  # end\n",
    "bom": lambda t: "\ufeff" + " ".join(t) + "\n",
    "zero-padded": lambda t: " ".join("00" + x if x[0].isdigit() else x for x in t),
    "plus": lambda t: " ".join("+" + x if x[0].isdigit() else x for x in t) + "\n",
}

ERRORS = [  # (argv tail, stdin); each runs under every command
    ([], b""),
    ([], b"# only a comment\n\n"),
    ([], b"1 2 abc 4\n"),
    ([], b"1 2 3\n"),
    ([], b"- 1 2 3\n"),
    ([], b"1 2 inf 4\n"),
    ([], b"1 nan\n"),
    ([], b"1e308 1e308 1 2\n"),
    ([], b"\xff\xfe 1 2\n"),
    ([], b"1\n" + b"9" * 4301 + b"\n"),
    ([], " ".join(map(str, range(1, 31))).encode()),
    (["--mode", "int"], b"1.5 2\n"),
    (["--mode", "int"], b"1e5 3\n"),
    (["--mode", "float"], b"1 2 x 4\n"),
    (["--oracle"], " ".join(map(str, range(1, 27))).encode()),
    (["--init", "random"], b"1 2 3 4\n"),
    (["--cardinality", "0"], b"1 2 3 4\n"),
    (["--cardinality", "4"], b"1 2 3 4\n"),
    (["--cardinality", "1"], b"5\n"),
    (["--verify"], b"-0 0 1 1\n"),
]
UNSTABLE = [  # argparse's text, or the OS's, varies by Python version or host
    ["solve", "--init", "bogus"],
    ["verify", "--cardinality", "x"],
    ["solve-traditional", "--format", "xml"],
    ["oracle", "--cardinality", "2"],
    ["nope"],
    [],
    ["solve", "--input", "no/such/file"],
]


def corpus():
    """Every run as (argv, stdin bytes, stable), in a fixed order."""
    runs = []
    for i, (shape, layout) in enumerate(itertools.product(SHAPES, LAYOUTS)):
        r = random.Random(f"ab_output:{shape}:{layout}")
        n = SIZES[i % len(SIZES)]
        data = LAYOUTS[layout](SHAPES[shape](r, n)).encode()
        for command, fmt, init in itertools.product(COMMANDS, ("text", "json"), INITS):
            argv = [command, "--format", fmt, "--init", init]
            if init == "random" or r.random() < 0.2:
                argv += ["--seed", str(r.choice((1, 2, 7)))]
            if r.random() < 0.5:
                argv.append("--stats")
            if r.random() < 0.4:
                argv.append("--verify")
            if n <= 12 and r.random() < 0.4:
                argv.append("--oracle")
            # odd N pins k more often: unpinned, solve refuses it (as ERRORS has)
            if command != "solve-traditional" and n > 1 and r.random() < (0.25, 0.75)[n % 2]:
                argv += ["--cardinality", str(r.randint(1, n - 1))]
            if r.random() < 0.1:
                argv += ["--mode", r.choice(("int", "float"))]
            runs.append((argv, data, True))
        if n <= 12:
            for fmt in ("text", "json"):
                runs.append((["oracle", "--format", fmt], data, True))
    for (tail, data), command in itertools.product(ERRORS, COMMANDS + ("oracle",)):
        if command in ("solve-traditional", "oracle") and "--cardinality" in tail:
            continue  # no such flag: an argparse error, which UNSTABLE covers
        for fmt in ("text", "json"):
            runs.append(([command, "--format", fmt] + tail, data, True))
    runs += [(argv, b"1 2 3 4\n", False) for argv in UNSTABLE]
    return runs


def tier1_slice(runs):
    """The runs test_cli.py digests: every SLICE_STEP-th stable run."""
    return [run for run in runs if run[2]][::SLICE_STEP]


class _Stdin:
    def __init__(self, data):
        self.buffer = io.BytesIO(data)


def results(runs):
    """(exit code, stdout, stderr) of each run, wall_time_ns masked."""
    from eqpart.cli import main
    out = []
    for argv, data, _ in runs:
        stdout, stderr, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = _Stdin(data)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            sys.stdin = stdin
        out.append((code, _MASK.sub(r"\g<1>0", stdout.getvalue()), stderr.getvalue()))
    return out


def digest(runs, outputs):
    h = hashlib.sha256()
    for (argv, data, _), output in zip(runs, outputs):
        h.update(repr((argv, data, output)).encode())
    return h.hexdigest()


def _first_difference(mine, theirs):
    """Where a run's (code, stdout, stderr) first differs from the parent's."""
    for name, a, b in zip(("exit code", "stdout", "stderr"), mine, theirs):
        if a == b:
            continue
        if not isinstance(a, str):
            return f"  {name}: {a!r} here, {b!r} in the parent"
        at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return (f"  {name} from offset {at}: {a[at:at + 120]!r} here,"
                f" {b[at:at + 120]!r} in the parent")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(HERE / "src"), help="run the eqpart package under this")
    ap.add_argument("--slice", action="store_true", help="only the slice test_cli.py pins")
    ap.add_argument("--digest", action="store_true", help="print one sha256 over the runs")
    ap.add_argument("--parent", metavar="DIR", help="compare with the checkout at DIR")
    ap.add_argument("--records", action="store_true", help="print the results as JSON")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    runs = corpus()
    if args.slice:
        runs = tier1_slice(runs)
    outputs = results(runs)
    if args.records:
        print(json.dumps(outputs))
    if args.digest:
        print(digest(runs, outputs))
    if args.parent:
        child = [sys.executable, __file__, "--src", str(Path(args.parent) / "src"), "--records"]
        parent = json.loads(subprocess.run(child + ["--slice"] * args.slice, check=True,
                                           capture_output=True).stdout)
        for i, (run, mine, theirs) in enumerate(zip(runs, outputs, parent)):
            if list(mine) != theirs:
                print(f"run {i} differs: argv {run[0]}, stdin {run[1][:200]!r}")
                print(_first_difference(mine, theirs))
                return 1
        print(f"{len(runs)} runs, none differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
