"""Input workload generators.

The paper's code release shipped "eight different benchmarks
corresponding to eight different inputs"; its tables use *benchmark 0*
(uniform random integers).  This package provides the standard
parallel-sorting input suite under those benchmark ids, plus record
helpers (dtypes, validation).
"""

from repro.workloads.generators import (
    BENCHMARKS,
    WorkloadSpec,
    generate,
    make_benchmark,
)
from repro.workloads.records import (
    is_sorted,
    pack_records,
    unpack_records,
    verify_permutation,
    verify_sorted_permutation,
)

__all__ = [
    "BENCHMARKS",
    "WorkloadSpec",
    "generate",
    "is_sorted",
    "make_benchmark",
    "pack_records",
    "unpack_records",
    "verify_permutation",
    "verify_sorted_permutation",
]
