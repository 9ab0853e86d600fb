"""Locally optimal equal-cardinality number partitioning.

Splits a multiset into two fixed-size subsets whose sums differ as little
as any single cross-side pair swap can achieve, via a sorted sweep that
runs in quadratic time and linear space.  Includes exhaustive oracles for
small instances, a dummy-zero reduction to the free-cardinality partition
problem, and a complexity-scaling benchmark harness.

Import names from their modules: eqpart.core (solver and verifier),
eqpart.oracle, eqpart.reductions, eqpart.bench and eqpart.cli.
"""

__version__ = "0.1.0"
