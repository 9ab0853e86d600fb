"""Command-line front end: solve, solve-traditional, verify, oracle, bench.

Exit codes: 0 success, 1 malformed input or unwritable output (--out, a
closed stdout), 2 constraint violation (odd N, cardinality range, oracle
cap, a sum past the 2^62 integer guard), 3 internal invariant failure.  A
token the mode rejects, a literal past 2^62 or a non-finite float included,
is malformed input and names its line and column.  main maps errors by base
class, in order: InputFormatError 1, InternalConsistencyError 3, any other
PartitionError or a ValueError 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

# bench, oracle and reductions are imported by the handlers that call them,
# so a solve neither loads nor compiles them
from .core import (
    Instance,
    InternalConsistencyError,
    InitStrategy,
    Mode,
    OverflowGuardError,
    PartitionError,
    SolverConfig,
    SUM_GUARD,
    excerpt,
    is_locally_optimal_pairswap,
    solve,
)


class InputFormatError(PartitionError):
    """Malformed input text; message carries line and column."""


_INT_TOKEN = re.compile(r"[+-]?\d+")
# no two quantifiers can split one digit run, so a failed match is linear
_FLOAT_TOKEN = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


def parse_input(data: bytes, mode: Mode | None = None) -> Instance:
    """Parse whitespace/comma separated numbers; '#'-prefixed lines are comments.

    With mode=None, picks exact-integer when every token is an integer
    literal, float64 otherwise.  Integer mode rejects fractions and
    exponents outright.

    Tokenizes and converts in bulk passes (str.split and the regex \\s agree
    on whitespace); only a failed check runs the line scan that locates it.
    A UTF-8 byte-order mark at the start is dropped.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not valid UTF-8: {exc}") from exc
    body = text if "#" not in text else "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#"))
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise InputFormatError("empty input: no numbers found")
    # str.isdecimal matches what \d does, per code point, far cheaper than the regex
    all_int = all(map(str.isdecimal, tokens)) or all(map(_INT_TOKEN.fullmatch, tokens))
    if mode is None:
        mode = Mode.EXACT_INT if all_int else Mode.FLOAT64
    refusal = None
    if all_int or mode is Mode.FLOAT64 and all(map(_FLOAT_TOKEN.fullmatch, tokens)):
        convert = int if mode is Mode.EXACT_INT else float
        try:  # Instance decides which numbers are accepted, in bulk
            return Instance(tuple(map(convert, tokens)), mode)
        except (OverflowGuardError, ValueError) as exc:
            refusal = exc  # int()'s digit limit, a guard, or a non-finite float
    # a sum past a guard is no one token's fault: Instance's own error stands
    raise _first_bad_token(text, mode) or refusal


def _first_bad_token(text: str, mode: Mode) -> InputFormatError | None:
    """The positioned error for the first token, in input order, that the
    mode rejects, or None when every token passes on its own."""
    exact = mode is Mode.EXACT_INT
    pattern, kind = (_INT_TOKEN, "an integer") if exact else (_FLOAT_TOKEN, "a number")
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        for m in re.finditer(r"[^\s,]+", line):
            tok, where = m.group(), f"line {ln}, column {m.start() + 1}"
            if not pattern.fullmatch(tok):
                return InputFormatError(f"{where}: {excerpt(tok)} is not {kind}")
            if exact:
                digits = tok.lstrip("+-").lstrip("0")  # 2^62 has 19 digits
                if len(digits) > 19 or int(digits or "0") >= SUM_GUARD:
                    return InputFormatError(
                        f"{where}: {excerpt(tok)} exceeds the 2^62 integer guard")
                try:
                    int(tok)
                except ValueError:  # int()'s digit limit counts leading zeros too
                    return InputFormatError(f"{where}: integer token of {len(tok)} "
                                            "characters is too long")
            if not exact and not math.isfinite(float(tok)):
                return InputFormatError(f"{where}: {excerpt(tok)} is not finite")
    return None


def _read_instance(args) -> Instance:
    """Parse --input (a path, or - for stdin) in the --mode the args name."""
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {args.input}: {exc.strerror}") from exc
    return parse_input(data, Mode(args.mode) if args.mode else None)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(init_strategy=InitStrategy(args.init), seed=args.seed)


def _cmd_solve(args) -> int:
    """solve, verify and solve-traditional: read, solve, check, print; the
    exit code is 3 when verification failed.  The flags are checked before
    the input is read, and the oracle's cap before the solve."""
    cfg = _config_from_args(args)
    instance = _read_instance(args)
    traditional = args.command == "solve-traditional"
    exact_min = None
    if args.oracle:
        from .oracle import exact_min_diff_unconstrained, oracle_result
        exact_min = (exact_min_diff_unconstrained(instance) if traditional
                     else oracle_result(instance, card1=args.cardinality).exact_min)
    if traditional:
        from .reductions import solve_traditional
        result = solve_traditional(instance, cfg)
        report, objective, sides = (result.extended_report, result.objective,
                                    (result.part1, result.part2))
    else:
        report = solve(instance, cfg, card1=args.cardinality)
        objective, sides = report.objective, (report.original_set1, report.original_set2)
    # solve-traditional's report is the zero-padded solve, where a swap with
    # a dummy zero is a transfer: one check covers both kinds of move
    verified = None
    if args.verify:
        verified = is_locally_optimal_pairswap(report.partition)
    set1, set2 = ([instance.values[i] for i in idx] for idx in sides)
    metrics = dataclasses.asdict(report.metrics)
    del metrics["max_traverse_evaluations"]
    if args.format == "json":
        payload = {
            "objective": objective,
            "set1": set1,
            "set2": set2,
            "metrics": metrics,
        }
        if verified is not None:
            payload["verified"] = verified
        if exact_min is not None:
            payload["exact_min"] = exact_min
        print(json.dumps(payload))
    else:
        print(f"objective: {objective}")
        for name, vals, idx in zip(("set1", "set2"), (set1, set2), sides):
            print(f"{name}: {' '.join(map(str, vals))}  (indices {' '.join(map(str, idx))})")
        if verified is not None:
            print(f"verified: {'PASS' if verified else 'FAIL'}")
        if exact_min is not None:
            status = "globally optimal" if objective == exact_min else "locally optimal only"
            print(f"exact_min: {exact_min} ({status})")
        if args.stats:
            print("stats: " + " ".join(f"{k}={v}" for k, v in metrics.items()))
    return 3 if verified is False else 0


def _cmd_oracle(args) -> int:
    from .oracle import oracle_result
    res = oracle_result(_read_instance(args))
    if args.format == "json":
        print(json.dumps(dataclasses.asdict(res)))
    else:
        print(f"exact_min: {res.exact_min}")
        print(f"local_optima: {' '.join(str(v) for v in res.local_optima)}")
        print(f"partitions_enumerated: {res.num_partitions_enumerated}")
    return 0


def _cmd_bench(args) -> int:
    from . import bench as bench_mod
    family = args.family.replace("-", "_")
    # argparse delivers p1/p2 as floats; integral ones mean integer families
    p1, p2 = (default if p is None else int(p) if p.is_integer() else p
              for p, default in zip((args.p1, args.p2), bench_mod.FAMILIES[family]))
    specs = [
        bench_mod.GeneratorSpec(family=family, n=n, seed=args.seed, p1=p1, p2=p2)
        for n in args.sizes
    ]
    cfg = _config_from_args(args)
    report = bench_mod.run_suite(specs, cfg, repetitions=args.reps)
    data = bench_mod.export_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
        print(f"wrote {args.out} (slope {report.slope:.3f})")
    else:
        sys.stdout.write(data.decode())
    return 0


def _sizes(text: str) -> list:
    """--sizes: comma-separated ints, empty items skipped."""
    sizes = []
    for tok in filter(None, text.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(tok)}") from None
    return sizes


def _add_common(p: argparse.ArgumentParser, cardinality: bool = False) -> None:
    p.add_argument("--input", default="-", help="input file, or - for stdin")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                   help="numeric mode (default: int when all tokens are integers)")
    p.add_argument("--init", choices=[s.value for s in InitStrategy],
                   default=InitStrategy.ALTERNATING.value)
    p.add_argument("--seed", type=int, default=None, help="seed for random init")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--verify", action="store_true",
                   help="check local optimality of the output and report PASS/FAIL")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the exhaustive optimum (small N only; "
                        "with --cardinality, the optimum at that cardinality)")
    p.add_argument("--stats", action="store_true", help="print run counters")
    if cardinality:
        p.add_argument("--cardinality", type=int, default=None, metavar="K",
                       help="pin side-1 cardinality to K instead of N/2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqpart",
        description="Locally optimal balanced number partitioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="equal (or pinned) cardinality solve")
    _add_common(p_solve, cardinality=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_trad = sub.add_parser("solve-traditional",
                            help="free-cardinality solve via the dummy-zero reduction")
    _add_common(p_trad)
    p_trad.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="solve and verify local optimality")
    _add_common(p_verify, cardinality=True)
    p_verify.set_defaults(func=_cmd_solve, verify=True)

    p_oracle = sub.add_parser("oracle", help="exhaustive enumeration (N <= 24)")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_bench = sub.add_parser("bench", help="complexity-scaling benchmark")
    p_bench.add_argument("--family",
                         choices=["uniform-int", "uniform-float", "near-equal", "geometric"],
                         default="uniform-int")
    p_bench.add_argument("--sizes", type=_sizes, default="256,512,1024,2048",
                         help="comma-separated instance sizes")
    p_bench.add_argument("--reps", type=int, default=5, help="seeds per size")
    p_bench.add_argument("--seed", type=int, default=1, help="base seed")
    p_bench.add_argument("--p1", type=float, default=None,
                         help="family parameter: lo / base / ratio (default per family)")
    p_bench.add_argument("--p2", type=float, default=None,
                         help="family parameter: hi / epsilon / scale (default per family)")
    p_bench.add_argument("--init", choices=[s.value for s in InitStrategy],
                         default=InitStrategy.ALTERNATING.value)
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bench.add_argument("--out", default=None, help="write the report here")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
    except BrokenPipeError as exc:  # devnull takes the rest: the exit flush cannot fail
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (PartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
