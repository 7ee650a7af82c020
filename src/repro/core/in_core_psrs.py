"""In-core heterogeneous PSRS (paper §3 — the foundation this work extends).

The same four canonical phases as the external algorithm, but portions
live in node RAM: local numpy sort, hetero-aware regular sampling,
partitioning by searchsorted, one alltoallv, and an in-core p-way merge.
Serves as (a) the reference the external algorithm is validated against,
(b) the baseline for the in-core-vs-out-of-core cost comparisons, and
(c) the counterpart of the author's earlier HiPC'2000 algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.core.incore import concat_in_memory, merge_in_memory, sort_in_memory
from repro.core.partition import partition_array
from repro.core.perf import PerfVector
from repro.core.result import SortResult
from repro.core.sampling import regular_positions, select_pivots
from repro.obs.events import step_seconds


@dataclass
class InCorePSRSResult(SortResult[np.ndarray]):
    """Sorted per-node arrays plus the same metrics as the external run."""

    pivots: np.ndarray


def sort_in_core(
    cluster: Cluster,
    perf: PerfVector,
    portions: Sequence[np.ndarray],
    oversample: int = 4,
) -> InCorePSRSResult:
    """Run heterogeneous in-core PSRS over per-node arrays."""
    p = cluster.p
    if perf.p != p or len(portions) != p:
        raise ValueError(
            f"perf ({perf.p}) and portions ({len(portions)}) must match the "
            f"cluster size ({p})"
        )
    n_items = sum(a.size for a in portions)

    # Phase 1: local sort.
    local_sorted: list[np.ndarray] = []
    with cluster.step("1:local-sort"):
        for node, arr in zip(cluster.nodes, portions):
            local_sorted.append(sort_in_memory(np.asarray(arr), node))

    # Phase 2: sampling + pivots on the designated node.
    with cluster.step("2:pivots"):
        samples = []
        for node, s in zip(cluster.nodes, local_sorted):
            if p == 1:
                samples.append(np.empty(0, dtype=s.dtype))
                continue
            pos = regular_positions(s.size, perf[node.rank], p, oversample)
            node.compute(float(pos.size))
            samples.append(s[pos])
        if p > 1:
            gathered = cluster.comm.gather(samples, root=0)
            pivots = select_pivots(
                concat_in_memory(gathered, cluster.nodes[0]),
                perf,
                compute=cluster.nodes[0].compute,
                oversample=oversample,
            )
            pivots = cluster.comm.bcast(pivots, root=0)[0]
        else:
            pivots = np.empty(0, dtype=local_sorted[0].dtype)

    # Phase 3: partition by binary search (in core).
    with cluster.step("3:partition"):
        parts: list[list[np.ndarray]] = []
        for node, s in zip(cluster.nodes, local_sorted):
            node.compute(len(pivots) * float(np.log2(max(2, s.size))))
            parts.append(partition_array(s, pivots))

    # Phase 4: one all-to-all exchange.
    with cluster.step("4:exchange"):
        matrix = [[parts[i][j] for j in range(p)] for i in range(p)]
        recv = cluster.comm.alltoallv(matrix)

    # Phase 5: p-way merge of the received sorted pieces.
    outputs: list[np.ndarray] = []
    received_sizes: list[int] = []
    with cluster.step("5:merge"):
        for j, node in enumerate(cluster.nodes):
            pieces = [recv[j][i] for i in range(p) if recv[j][i] is not None]
            pieces = [q for q in pieces if q.size]
            if pieces:
                merged = merge_in_memory(pieces, node)
            else:
                merged = np.empty(0, dtype=local_sorted[j].dtype)
            outputs.append(merged)
            received_sizes.append(int(merged.size))

    elapsed = cluster.barrier()
    return InCorePSRSResult(
        outputs=outputs,
        perf=perf,
        n_items=n_items,
        elapsed=elapsed,
        step_times=step_seconds(cluster.bus.events),
        pivots=np.asarray(pivots),
        received_sizes=received_sizes,
    )


def sort_array_in_core(
    cluster: Cluster, perf: PerfVector, data: np.ndarray, oversample: int = 4
) -> InCorePSRSResult:
    """Distribute ``data`` perf-proportionally (untimed) and sort in core."""
    cluster.reset()
    return sort_in_core(cluster, perf, perf.split(data), oversample=oversample)
