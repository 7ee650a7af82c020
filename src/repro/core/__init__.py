"""The paper's contribution: out-of-core PSRS for heterogeneous clusters.

* :mod:`~repro.core.perf` — the perf vector and the Eq.-2 size condition,
* :mod:`~repro.core.sampling` — hetero-aware regular sampling + pivots,
* :mod:`~repro.core.partition` — binary partitioning of sorted portions,
* :mod:`~repro.core.redistribute` — block-multiple message redistribution,
* :mod:`~repro.core.external_psrs` — Algorithm 1 end to end,
* :mod:`~repro.core.in_core_psrs` — the in-core foundation (§3),
* :mod:`~repro.core.overpartition` — the Li & Sevcik comparator (§3.3),
* :mod:`~repro.core.result` — what every sort returns (Table 3's columns),
* :mod:`~repro.core.calibration` — the Table-2 perf-filling protocol,
* :mod:`~repro.core.theory` — the stated bounds, for tests and reports.
"""

from repro.core.calibration import CalibrationResult, calibrate, sequential_sort_table
from repro.core.dewitt import (
    DeWittConfig,
    DeWittResult,
    sort_array_dewitt,
    sort_dewitt_distributed,
)
from repro.core.external_psrs import (
    PSRSConfig,
    PSRSResult,
    distribute_array,
    gather_output,
    merge_many,
    sort_array,
    sort_distributed,
)
from repro.core.hyperquicksort import (
    HyperquicksortResult,
    sort_array_hyperquicksort,
    sort_hyperquicksort,
    split_group,
)
from repro.core.in_core_psrs import InCorePSRSResult, sort_array_in_core, sort_in_core
from repro.core.overpartition import (
    OverpartitionResult,
    assign_buckets,
    sort_array_overpartitioned,
    sort_overpartitioned,
)
from repro.core.perf import PerfVector
from repro.core.quantiles import (
    QuantileSearchReport,
    boundary_targets,
    exact_quantile_pivots,
    global_count_leq,
)
from repro.core.result import SortResult
from repro.core.sampling import (
    pivot_ranks,
    regular_sample,
    sample_count,
    sample_interval,
    select_pivots,
)
from repro.core.theory import (
    homogeneous_waste_factor,
    ideal_speedup,
    ideal_speedup_vs_fastest,
    load_balance_bound,
    max_duplicate_count,
)

__all__ = [
    "CalibrationResult",
    "DeWittConfig",
    "DeWittResult",
    "sort_array_dewitt",
    "sort_dewitt_distributed",
    "HyperquicksortResult",
    "QuantileSearchReport",
    "boundary_targets",
    "exact_quantile_pivots",
    "global_count_leq",
    "sort_array_hyperquicksort",
    "sort_hyperquicksort",
    "split_group",
    "InCorePSRSResult",
    "OverpartitionResult",
    "PSRSConfig",
    "PSRSResult",
    "PerfVector",
    "SortResult",
    "assign_buckets",
    "calibrate",
    "distribute_array",
    "gather_output",
    "homogeneous_waste_factor",
    "ideal_speedup",
    "ideal_speedup_vs_fastest",
    "load_balance_bound",
    "max_duplicate_count",
    "merge_many",
    "pivot_ranks",
    "regular_sample",
    "sample_count",
    "sample_interval",
    "select_pivots",
    "sequential_sort_table",
    "sort_array",
    "sort_array_in_core",
    "sort_array_overpartitioned",
    "sort_distributed",
    "sort_in_core",
    "sort_overpartitioned",
]
