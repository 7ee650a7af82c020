"""Sorting by overpartitioning (Li & Sevcik), heterogeneous variant (§3.3).

The comparator the paper weighs regular sampling against.  Key ideas:

* skip the initial local sort; pick ``p*s - 1`` pivots from a *random*
  sample of the unsorted data (s = overpartitioning factor),
* split the input into ``p*s`` buckets — many more than processors —
  and assign whole buckets to processors so the totals are as even as
  possible (here: perf-proportional capacities, largest-bucket-first
  greedy),
* each processor sorts its buckets; the global order is the bucket
  order, so the output is the concatenation of sorted buckets.

Li & Sevcik report sublist expansions around 1.3 for large p even with
large s — the paper's stated reason to prefer regular sampling (a few
percent).  The sampling ablation bench reproduces exactly this contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.core.incore import (
    concat_for_verification,
    concat_in_memory,
    sort_in_memory,
)
from repro.core.perf import PerfVector
from repro.core.result import SortResult
from repro.obs.events import step_seconds


@dataclass
class OverpartitionResult(SortResult[np.ndarray]):
    """Outputs plus the load-balance metrics of an overpartitioned sort.

    ``outputs[j]`` is the concatenation of node j's sorted buckets; the
    global order is the *bucket* order, which ``bucket_arrays`` keeps.
    """

    bucket_owner: list[int]  # owner node of each of the p*s buckets
    bucket_sizes: list[int]
    bucket_arrays: list[np.ndarray]  # each bucket, sorted by its owner
    s: int

    def to_array(self) -> np.ndarray:
        """Global sorted output: buckets in order, each sorted by its owner."""
        return concat_for_verification(self.bucket_arrays)


def assign_buckets(
    bucket_sizes: Sequence[int], perf: PerfVector
) -> list[int]:
    """Greedy largest-first assignment of buckets to perf-weighted nodes.

    Each node has capacity proportional to perf[i]; buckets are placed,
    biggest first, on the node with the largest remaining *relative*
    capacity (remaining / perf) — LPT scheduling on uniform-speed
    machines generalised to the heterogeneous case.
    """
    total = sum(bucket_sizes)
    remaining = perf.optimal_shares(total)
    owner = [0] * len(bucket_sizes)
    order = sorted(range(len(bucket_sizes)), key=lambda b: -bucket_sizes[b])
    for b in order:
        i = max(range(perf.p), key=lambda j: remaining[j] / perf[j])
        owner[b] = i
        remaining[i] -= bucket_sizes[b]
    return owner


def sort_overpartitioned(
    cluster: Cluster,
    perf: PerfVector,
    portions: Sequence[np.ndarray],
    s: int = 4,
    oversample: int = 2,
    seed: int = 0,
) -> OverpartitionResult:
    """Run the heterogeneous overpartitioning sort over per-node arrays."""
    p = cluster.p
    if perf.p != p or len(portions) != p:
        raise ValueError("perf/portions must match the cluster size")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n_items = sum(a.size for a in portions)
    n_buckets = p * s
    rng = np.random.default_rng(seed)

    # Phase 1: random sample (no local sort!) -> pivots on the root.
    with cluster.step("1:sample-pivots"):
        samples = []
        for node, arr in zip(cluster.nodes, portions):
            arr = np.asarray(arr)
            want = min(arr.size, max(1, oversample * s * perf[node.rank] * max(1, p - 1)))
            if arr.size:
                idx = rng.integers(0, arr.size, size=want)
                node.compute(float(want))
                samples.append(arr[idx])
            else:
                samples.append(arr[:0])
        gathered = cluster.comm.gather(samples, root=0)
        root = cluster.nodes[0]
        cand = sort_in_memory(concat_in_memory(gathered, root), root)
        if cand.size == 0:
            raise ValueError("cannot overpartition an empty input")
        ranks = (np.arange(1, n_buckets) * cand.size) // n_buckets
        pivots = cand[np.clip(ranks, 0, cand.size - 1)]
        pivots = cluster.comm.bcast(pivots, root=0)[0]

    # Phase 2: bucketize the (unsorted) local data.
    with cluster.step("2:bucketize"):
        local_buckets: list[list[np.ndarray]] = []
        for node, arr in zip(cluster.nodes, portions):
            arr = np.asarray(arr)
            which = np.searchsorted(pivots, arr, side="right")
            node.compute(arr.size * float(np.log2(max(2, n_buckets))))
            local_buckets.append([arr[which == b] for b in range(n_buckets)])

    # Phase 3: global bucket sizes (an allreduce of p*s counts) + assignment.
    with cluster.step("3:assign"):
        counts = [
            np.asarray([lb[b].size for b in range(n_buckets)], dtype=np.int64)
            for lb in local_buckets
        ]
        gathered_counts = cluster.comm.gather(counts, root=0)
        bucket_sizes = list(np.sum(gathered_counts, axis=0))
        owner = assign_buckets([int(x) for x in bucket_sizes], perf)
        owner_arr = cluster.comm.bcast(np.asarray(owner, dtype=np.int64), root=0)[0]
        owner = [int(x) for x in owner_arr]

    # Phase 4: exchange bucket pieces to their owners.
    with cluster.step("4:exchange"):
        matrix: list[list[np.ndarray | None]] = [
            [None] * p for _ in range(p)
        ]
        for i in range(p):
            for j in range(p):
                pieces = [
                    local_buckets[i][b] for b in range(n_buckets) if owner[b] == j
                ]
                pieces = [q for q in pieces if q.size]
                if pieces:
                    matrix[i][j] = concat_in_memory(pieces, cluster.nodes[i])
        recv = cluster.comm.alltoallv(matrix)  # repro: noqa REP104(charge-only exchange; phase 5 reassembles identical content locally - see data-plane note below)

    # Phase 5: each node sorts its buckets (bucket-local sorts).
    # Data plane note: recv[j][i] holds exactly the concatenation of node
    # i's pieces of node j's buckets; we reassemble from local_buckets
    # (identical content) to keep per-bucket boundaries without sending
    # p*s separate messages — the *charged* communication in phase 4 is
    # the same either way.
    bucket_arrays: list[np.ndarray] = [None] * n_buckets  # type: ignore[list-item]
    received_sizes = [0] * p
    with cluster.step("5:sort-buckets"):
        for j, node in enumerate(cluster.nodes):
            for b in range(n_buckets):
                if owner[b] != j:
                    continue
                pieces = [
                    local_buckets[i][b] for i in range(p) if local_buckets[i][b].size
                ]
                if pieces:
                    data = sort_in_memory(concat_in_memory(pieces, node), node)
                else:
                    data = np.empty(0, dtype=np.asarray(portions[0]).dtype)
                bucket_arrays[b] = data
                received_sizes[j] += data.size

    elapsed = cluster.barrier()
    outputs = [
        concat_in_memory(
            [bucket_arrays[b] for b in range(n_buckets) if owner[b] == j]
            or [np.empty(0, dtype=np.asarray(portions[0]).dtype)],
            cluster.nodes[j],
        )
        for j in range(p)
    ]
    return OverpartitionResult(
        outputs=outputs,
        perf=perf,
        n_items=n_items,
        elapsed=elapsed,
        step_times=step_seconds(cluster.bus.events),
        received_sizes=received_sizes,
        bucket_owner=owner,
        bucket_sizes=[int(x) for x in bucket_sizes],
        bucket_arrays=bucket_arrays,
        s=s,
    )


def sort_array_overpartitioned(
    cluster: Cluster,
    perf: PerfVector,
    data: np.ndarray,
    s: int = 4,
    oversample: int = 2,
    seed: int = 0,
) -> OverpartitionResult:
    """Distribute ``data`` perf-proportionally (untimed) and sort."""
    cluster.reset()
    return sort_overpartitioned(
        cluster, perf, perf.split(data), s=s, oversample=oversample, seed=seed
    )
