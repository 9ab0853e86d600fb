"""Locally optimal equal-cardinality number partitioning.

Splits a multiset into two fixed-size subsets whose sums differ as little
as any single cross-side pair swap can achieve, via a sorted sweep that
runs in quadratic time and linear space.  Includes exhaustive oracles for
small instances, a dummy-zero reduction to the free-cardinality partition
problem, and a complexity-scaling benchmark harness.
"""

from .core import (
    ContractViolationError,
    InitStrategy,
    Instance,
    InternalConsistencyError,
    InvalidCardinalityError,
    LocalOptCheck,
    Metrics,
    Mode,
    OverflowGuardError,
    PartitionError,
    PartitionState,
    SolveReport,
    SolverConfig,
    SortedInstance,
    SwapEvent,
    TraverseOutcome,
    apply_swap,
    find_best_swap,
    init_partition,
    is_locally_optimal_pairswap,
    normalize_and_sort,
    recompute_sums,
    run_traverse,
    solve,
    traverse_guard,
)
from .oracle import (
    OracleCapError,
    OracleResult,
    enumerate_equal_partitions,
    exact_min_diff,
    exact_min_diff_unconstrained,
    local_optima_set,
    oracle_result,
    pairswap_witness,
    reference_local_search,
)
from .reductions import (
    TraditionalResult,
    affine_transform,
    is_locally_optimal_transfer,
    solve_traditional,
    solve_with_cardinality,
    to_equal_cardinality,
)
from .bench import (
    BenchInvariantError,
    GeneratorSpec,
    RunRecord,
    ScalingReport,
    ScalingRow,
    export_report,
    generate,
    parse_report,
    run_suite,
)

__version__ = "0.1.0"
