"""Command-line front end: solve, solve-traditional, verify, oracle, bench.

Exit codes: 0 success, 1 malformed input or unwritable output (--out, a
closed stdout), 2 constraint violation (odd N, cardinality range, oracle
cap, a float sum past the float range), 3 internal invariant failure.  A
token the mode rejects, an integer past int()'s 4300 digits or a non-finite
float included, is malformed input and names its line and column.  main
maps errors by base class, in order: InputFormatError 1,
InternalConsistencyError 3, any other PartitionError or a ValueError 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import re
import sys

# bench, oracle and reductions are imported by the handlers that call them,
# so a solve neither loads nor compiles them
from .core import (
    Instance,
    InternalConsistencyError,
    InitStrategy,
    Metrics,
    Mode,
    OverflowGuardError,
    PartitionError,
    SolverConfig,
    excerpt,
    is_locally_optimal_pairswap,
    solve,
)


class InputFormatError(PartitionError):
    """Malformed input text; message carries line and column."""


# ASCII digits, '-', commas and the six ASCII whitespace bytes: on these, a
# JSON array of ints is a comma-separated list of maximal digit runs, each
# with at most a leading '-' and no leading zero, and json.loads reads each
# as int() reads it, 4300-digit limit included
_PLAIN_INT_BYTES = b"0123456789- \t\n\r\x0b\x0c,"
_WHITESPACE_TO_COMMA = bytes.maketrans(b" \t\n\r\x0b\x0c", b"," * 6)
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

    Outside float mode, input of ASCII digits, '-', whitespace and commas
    alone is read by one json.loads of its tokens joined by single commas,
    with no token objects.  Input JSON refuses (a leading zero such as 007,
    a '-' that does not lead a digit run, a token past int()'s digit limit)
    or that holds no token falls through to the text path, which reads or
    reports it; so does every other input, unchanged.
    """
    if mode is not Mode.FLOAT64 and not data.translate(None, _PLAIN_INT_BYTES):
        body = data.translate(_WHITESPACE_TO_COMMA)
        while b",," in body:
            body = body.replace(b",,", b",")
        body = b"[%b]" % body.strip(b",")
        if body != b"[]":
            try:
                return Instance(tuple(json.loads(body)), Mode.EXACT_INT)
            except ValueError:
                pass  # the text path reads zero-padded ints and names bad tokens
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not valid UTF-8: {exc}") from exc
    body = text if "#" not in text else "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#"))
    tokens = body.replace(",", " ").split()
    del text, body  # the line scan decodes again: the conversion runs without them
    if not tokens:
        raise InputFormatError("empty input: no numbers found")
    # str.isdecimal matches what \d does, per code point, far cheaper than the regex
    all_int = all(map(str.isdecimal, tokens)) or all(map(_INT_TOKEN.fullmatch, tokens))
    if mode is None:
        mode = Mode.EXACT_INT if all_int else Mode.FLOAT64
    refusal = None
    if all_int or mode is Mode.FLOAT64 and all(map(_FLOAT_TOKEN.fullmatch, tokens)):
        try:  # Instance decides which numbers are accepted, in bulk, and floats them
            if mode is Mode.EXACT_INT:
                # in place, a slice at a time: each slice's str tokens are
                # freed as its ints are made, so the two are never all alive
                for k in range(0, len(tokens), 4096):
                    tokens[k:k + 4096] = map(int, tokens[k:k + 4096])
            return Instance(tuple(tokens), mode)
        except (OverflowGuardError, ValueError) as exc:
            refusal = exc  # int()'s digit limit, a float sum, or a non-finite float
    # a float sum past the range is no one token's fault: Instance's error stands
    raise _first_bad_token(data.decode("utf-8-sig"), mode) or refusal


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


def _print_unlimited(render) -> None:
    """Print render()'s lines one at a time, with int()'s str limit lifted
    for the render alone: an objective of two values under the 4300-digit
    parse limit can have 4301 digits.  The old limit is back before the
    first write, so a parse after it, in this process too, keeps the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = render()
    finally:
        sys.set_int_max_str_digits(limit)
    for line in lines:
        print(line)


def _spaced(numbers) -> str:
    """' '.join(map(str, numbers)) for a list or tuple of ints or floats,
    whose repr is their str: repr holds one number's text at a time, where
    join holds all of them."""
    return repr(numbers)[1:-1].replace(",", "")


def _cmd_solve(args) -> int:
    """solve, verify and solve-traditional: read, solve, check, print; the
    exit code is 3 when verification failed.  The flags are checked before
    the input is read, and the oracle's cap before the solve."""
    cfg = _config_from_args(args)
    instance = _read_instance(args)
    traditional = args.command == "solve-traditional"
    text = args.format == "text"
    exact_min = None
    if args.oracle:
        from .oracle import exact_min_diff_unconstrained, oracle_result
        exact_min = (exact_min_diff_unconstrained(instance) if traditional
                     else oracle_result(instance, card1=args.cardinality).exact_min)
    if traditional:
        from .reductions import solve_traditional
        result = solve_traditional(instance, cfg)
        report, objective = result.extended_report, result.objective
        sides = (result.part1, result.part2) if text else None
        del result
    else:
        report = solve(instance, cfg, card1=args.cardinality)
        objective = report.objective
        # only text output, which prints indices, builds the index sides
        sides = (report.original_set1, report.original_set2) if text else None
    # solve-traditional's report is the zero-padded solve, where a swap with
    # a dummy zero is a transfer: one check covers both kinds of move
    verified = None
    if args.verify:
        verified = is_locally_optimal_pairswap(report.partition)
    # the value lists come from the membership; compress stops with the
    # values: for solve-traditional, the first N flags are the inputs'
    member = report.membership
    # the JSON metrics: Metrics' fields in order, all but the per-sweep peak
    metrics = {name: getattr(report.metrics, name) for name in Metrics.__match_args__
               if name != "max_traverse_evaluations"}
    # the render reads none of these: freed here, what the solve built is
    # gone before the value lists and the output text are built
    del report
    set1 = list(itertools.compress(instance.values, member))
    set2 = list(itertools.compress(instance.values, map(operator.not_, member)))
    del instance, member

    def render():
        if not text:
            payload = {"objective": objective, "set1": set1, "set2": set2, "metrics": metrics}
            if verified is not None:
                payload["verified"] = verified
            if exact_min is not None:
                payload["exact_min"] = exact_min
            return [json.dumps(payload)]
        lines = [f"objective: {objective}"]
        for name, vals, idx in zip(("set1", "set2"), (set1, set2), sides):
            lines.append(f"{name}: {_spaced(vals)}  (indices {_spaced(idx)})")
        if verified is not None:
            lines.append(f"verified: {'PASS' if verified else 'FAIL'}")
        if exact_min is not None:
            status = "globally optimal" if objective == exact_min else "locally optimal only"
            lines.append(f"exact_min: {exact_min} ({status})")
        if args.stats:
            lines.append("stats: " + " ".join(f"{k}={v}" for k, v in metrics.items()))
        return lines

    _print_unlimited(render)
    return 3 if verified is False else 0


def _cmd_oracle(args) -> int:
    import dataclasses

    from .oracle import oracle_result
    res = oracle_result(_read_instance(args))
    if args.format == "json":
        _print_unlimited(lambda: [json.dumps(dataclasses.asdict(res))])
    else:
        _print_unlimited(lambda: [f"exact_min: {res.exact_min}",
                                  f"local_optima: {' '.join(map(str, res.local_optima))}",
                                  f"partitions_enumerated: {res.num_partitions_enumerated}"])
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
