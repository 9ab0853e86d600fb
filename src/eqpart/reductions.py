"""Reductions and transforms layered on the equal-cardinality solver.

The free-cardinality (traditional) partition problem reduces to the
equal-cardinality one by appending N dummy zeros: a swap with a dummy acts
as a single-element transfer, so the solved partition is locally optimal
under both pair swaps and transfers.  Dummies are identified by index, never
by value, so genuine zero inputs survive the strip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    InvalidCardinalityError,
    Mode,
    OverflowGuardError,
    SolveReport,
    SolverConfig,
    SUM_GUARD,
    scaled_ints,
    solve,
)


@dataclass(frozen=True)
class TraditionalResult:
    """Free-cardinality partition of the original instance.

    part1/part2 are disjoint original-index tuples covering 0..N-1; either
    may be empty.  extended_report is the equal-cardinality solve over the
    zero-padded instance that produced this result.
    """

    part1: tuple
    part2: tuple
    objective: float | int
    instance: Instance
    extended_report: SolveReport


def to_equal_cardinality(instance: Instance) -> Instance:
    """Append N zeros; the 2N-element result always has even size."""
    n = len(instance)
    if n < 1:
        raise InvalidCardinalityError("need at least one element")
    return Instance(instance.values + (0,) * n, instance.mode)  # float mode makes 0.0


def solve_traditional(
    instance: Instance, cfg: SolverConfig = SolverConfig()
) -> TraditionalResult:
    """Solve the free-cardinality problem via the dummy-zero reduction.

    Dummies occupy extended original indices N..2N-1, so stripping keeps
    exactly the original indices; zeros that were genuine inputs stay.
    """
    n = len(instance)
    extended = to_equal_cardinality(instance)
    report = solve(extended, cfg)
    part1 = tuple(i for i in report.original_set1 if i < n)
    part2 = tuple(i for i in report.original_set2 if i < n)
    return TraditionalResult(
        part1=part1,
        part2=part2,
        objective=report.objective,
        instance=instance,
        extended_report=report,
    )


def is_locally_optimal_transfer(result: TraditionalResult) -> bool:
    """True iff no single element move across the stripped original sides
    shrinks |d|.

    Moving x out of side 1 sends d to d - 2x; out of side 2, to d + 2x.
    Float input is decided exactly, on core.scaled_ints.
    """
    vals = result.instance.values
    if result.instance.mode is Mode.FLOAT64:
        vals = scaled_ints(vals)[0]
    side1 = [vals[i] for i in result.part1]
    side2 = [vals[i] for i in result.part2]
    d = sum(side1) - sum(side2)
    bound = abs(d)
    return all(abs(d - 2 * x) >= bound for x in side1) and all(
        abs(d + 2 * x) >= bound for x in side2
    )


def solve_with_cardinality(
    instance: Instance, k: int, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Solve with side-1 cardinality pinned to k (any input parity).

    The sweep only ever swaps, so the output keeps card1 == k.  Strategies
    adapt: SPLIT_HALF takes the first k sorted elements, ALTERNATING spreads
    k slots round-robin at ratio k:(N-k), GREEDY and RANDOM respect the caps.
    """
    return solve(instance, cfg, card1=k)


def affine_transform(instance: Instance, alpha, beta) -> Instance:
    """Map every value to alpha * x + beta (alpha nonzero).

    Exact mode requires integer alpha/beta and re-checks the overflow guard
    on the transformed values.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if instance.mode is Mode.EXACT_INT:
        if not isinstance(alpha, int) or not isinstance(beta, int):
            raise OverflowGuardError(
                "exact-integer mode requires integer alpha and beta"
            )
        transformed = tuple(alpha * x + beta for x in instance.values)
        if sum(abs(x) for x in transformed) >= SUM_GUARD:
            raise OverflowGuardError("transformed values exceed the 2^62 guard")
        return Instance(transformed, Mode.EXACT_INT)
    return Instance(tuple(alpha * x + beta for x in instance.values), Mode.FLOAT64)
