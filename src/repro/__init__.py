"""repro — Out-of-core PSRS sorting for clusters with processors at
different speed.

A full reproduction of C. Cérin, *"An Out-of-Core Sorting Algorithm for
Clusters with Processors at Different Speed"* (IPPS 2002): the
heterogeneity-aware external PSRS algorithm, every substrate it depends
on (the Parallel Disk Model, polyphase merge sort, a deterministic
simulated heterogeneous cluster with Fast-Ethernet/Myrinet cost models),
the baselines it compares against, and the benches that regenerate the
paper's tables.

Quickstart
----------
>>> import numpy as np
>>> from repro import (Cluster, PerfVector, PSRSConfig, heterogeneous_cluster,
...                    sort_array)
>>> perf = PerfVector([1, 1, 4, 4])
>>> cluster = Cluster(heterogeneous_cluster(perf.values, memory_items=65536))
>>> data = np.random.default_rng(0).integers(
...     0, 2**32, perf.nearest_admissible(100_000), dtype=np.uint32)
>>> result = sort_array(cluster, perf, data, PSRSConfig(block_items=1024))
>>> bool(np.all(np.diff(result.to_array().astype(np.int64)) >= 0))
True
"""

from repro.cluster import (
    Cluster,
    ClusterSpec,
    CpuParams,
    FAST_ETHERNET,
    LinkModel,
    MYRINET,
    Network,
    NodeSpec,
    SimComm,
    SimNode,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
)
from repro.core import (
    CalibrationResult,
    DeWittConfig,
    DeWittResult,
    sort_array_dewitt,
    HyperquicksortResult,
    exact_quantile_pivots,
    sort_array_hyperquicksort,
    InCorePSRSResult,
    OverpartitionResult,
    PSRSConfig,
    PSRSResult,
    PerfVector,
    calibrate,
    gather_output,
    sequential_sort_table,
    sort_array,
    sort_array_in_core,
    sort_array_overpartitioned,
    sort_distributed,
    sort_in_core,
    sort_overpartitioned,
)
from repro.extsort import balanced_merge_sort, distribution_sort, polyphase_sort
from repro.faults import (
    DiskFault,
    DiskFaultError,
    FaultCounters,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    MessageFault,
    NetworkFaultError,
    NodeKill,
    NodeKilledError,
    RetryPolicy,
)
from repro.metrics import (
    PartitionStats,
    Table,
    TrialStats,
    fault_table,
    partition_stats,
)
from repro.pdm import (
    BlockFile,
    BlockReader,
    BlockWriter,
    DiskBackedBlockFile,
    DiskParams,
    FileStore,
    IOStats,
    MemoryBudgetError,
    MemoryManager,
    PDMConfig,
    SimDisk,
    StripedFile,
)
from repro.workloads import (
    BENCHMARKS,
    generate,
    make_benchmark,
    pack_records,
    unpack_records,
    verify_sorted_permutation,
)

__version__ = "1.0.0"

__all__ = [
    "BENCHMARKS",
    "BlockFile",
    "BlockReader",
    "BlockWriter",
    "CalibrationResult",
    "Cluster",
    "DeWittConfig",
    "DeWittResult",
    "sort_array_dewitt",
    "HyperquicksortResult",
    "exact_quantile_pivots",
    "sort_array_hyperquicksort",
    "ClusterSpec",
    "CpuParams",
    "DiskBackedBlockFile",
    "DiskFault",
    "DiskFaultError",
    "DiskParams",
    "FAST_ETHERNET",
    "FaultCounters",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "MessageFault",
    "NetworkFaultError",
    "NodeKill",
    "NodeKilledError",
    "RetryPolicy",
    "fault_table",
    "FileStore",
    "IOStats",
    "InCorePSRSResult",
    "LinkModel",
    "MYRINET",
    "MemoryBudgetError",
    "MemoryManager",
    "Network",
    "NodeSpec",
    "OverpartitionResult",
    "PDMConfig",
    "PSRSConfig",
    "PSRSResult",
    "PartitionStats",
    "PerfVector",
    "SimComm",
    "SimDisk",
    "SimNode",
    "StripedFile",
    "Table",
    "TrialStats",
    "balanced_merge_sort",
    "calibrate",
    "distribution_sort",
    "gather_output",
    "generate",
    "heterogeneous_cluster",
    "homogeneous_cluster",
    "make_benchmark",
    "pack_records",
    "paper_cluster",
    "partition_stats",
    "polyphase_sort",
    "sequential_sort_table",
    "sort_array",
    "sort_array_in_core",
    "sort_array_overpartitioned",
    "sort_distributed",
    "sort_in_core",
    "sort_overpartitioned",
    "unpack_records",
    "verify_sorted_permutation",
    "__version__",
]
