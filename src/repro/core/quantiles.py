"""Exact quantile pivots by distributed counting search (§3.2 extension).

The paper notes (citing the author's HiPC'2000 work) that *quantiles*
"can be used to partition the inputs in chunks of almost equal sizes and
lead to an algorithm that is less memory consuming than the original
PSRS with equal time performances."  This module implements the
out-of-core version: instead of sampling, the designated node finds each
performance-proportional boundary *exactly* by binary search on the key
space, where each probe value ``v`` is resolved into a global rank by
asking every node for ``|{x <= v}|`` on its sorted file (a charged
O(log n_blocks) binary search per node per probe).

Trade-off (measured in the sampling ablation bench): S(max) becomes
1 + O(p/l_i) — essentially perfect — at the price of
O(p * log(key range) * log(n_blocks)) extra step-2 block reads and one
small message round-trip per probe round, where sampling needs a single
gather.  Memory: only the p-1 search intervals, no candidate buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.core.partition import lower_bound_offset
from repro.core.perf import PerfVector
from repro.pdm.blockfile import BlockFile


@dataclass
class QuantileSearchReport:
    """Diagnostics of one pivot search."""

    rounds: int = 0
    probes: int = 0

    def bump(self, n_probes: int) -> None:
        self.rounds += 1
        self.probes += n_probes


def boundary_targets(perf: PerfVector, n: int) -> list[int]:
    """Global ranks the p-1 pivots must realise: ``round(n*cum_j/total)``."""
    cum = np.cumsum(perf.values)[:-1]
    return [int(round(n * c / perf.total)) for c in cum]


def global_count_leq(
    cluster: Cluster, files: Sequence[BlockFile], value: "int | np.generic"
) -> int:
    """Cluster-wide ``|{x <= value}|`` (charges every node's disk)."""
    total = 0
    with cluster.step("count-leq"):
        for node, f in zip(cluster.nodes, files):
            total += lower_bound_offset(f, value, node.mem)
    return total


def _key_space(cluster: Cluster, files: Sequence[BlockFile]) -> tuple[int, int]:
    """Global [min, max] keys, read (charged) from each file's end blocks."""
    lo, hi = None, None
    for node, f in zip(cluster.nodes, files):
        if f.n_items == 0:
            continue
        with node.mem.reserve(f.block_items(0)):
            first = int(f.read_block(0)[0])
        with node.mem.reserve(f.block_items(f.n_blocks - 1)):
            last = int(f.read_block(f.n_blocks - 1)[-1])
        lo = first if lo is None else min(lo, first)
        hi = last if hi is None else max(hi, last)
    if lo is None:
        raise ValueError("cannot take quantiles of an empty input")
    return lo, hi


def exact_quantile_pivots(
    cluster: Cluster,
    perf: PerfVector,
    sorted_files: Sequence[BlockFile],
    root: int = 0,
) -> tuple[np.ndarray, QuantileSearchReport]:
    """Find the p-1 exact boundary keys for integer-keyed sorted files.

    For each boundary target t, returns the smallest key v with
    ``count_leq(v) >= t`` — the upper-bound partitioning rule the rest of
    the pipeline uses (``side='right'``), so the realised partition
    sizes differ from the targets only by duplicate ties at v.

    Communication per round: the root broadcasts the unresolved probe
    values and gathers one count per node (tiny messages); the per-node
    counting reads are charged to each node's disk and clock.
    """
    p = cluster.p
    if perf.p != p or len(sorted_files) != p:
        raise ValueError("perf/files must match the cluster size")
    dtype = sorted_files[0].dtype
    if dtype.kind not in "iu":
        raise TypeError(f"quantile pivots search an integer key space, got dtype {dtype}")
    # Probes and replies travel as 8-byte integers of the keys' signedness.
    wire = np.uint64 if dtype.kind == "u" else np.int64
    report = QuantileSearchReport()
    if p == 1:
        return np.empty(0, dtype=dtype), report

    n = sum(f.n_items for f in sorted_files)
    if n == 0:
        raise ValueError("cannot take quantiles of an empty input")
    targets = boundary_targets(perf, n)
    key_lo, key_hi = _key_space(cluster, sorted_files)

    lo = [key_lo - 1] * len(targets)  # invariant: count_leq(lo) < target
    hi = [key_hi] * len(targets)  # invariant: count_leq(hi) >= target
    while True:
        unresolved = [j for j in range(len(targets)) if lo[j] + 1 < hi[j]]
        if not unresolved:
            break
        mids = {j: (lo[j] + hi[j]) // 2 for j in unresolved}
        # Root broadcasts probes; every node answers with local counts.
        probe_arr = np.asarray(sorted(set(mids.values())), dtype=wire)
        probes_by_rank = cluster.comm.bcast(probe_arr, root=root)
        counts = {int(v): 0 for v in probe_arr}
        local = []
        for pos, (node, f) in enumerate(zip(cluster.nodes, sorted_files)):
            # Each node answers from its own received copy of the probes.
            # Collectives index by *position* in the (possibly degraded)
            # view, not by global rank — a survivor view of ranks [0, 2]
            # returns a 2-element list.
            probes = probes_by_rank[pos]
            row = np.asarray(
                [lower_bound_offset(f, dtype.type(v), node.mem) for v in probes],
                dtype=wire,
            )
            local.append(row)
        gathered = cluster.comm.gather(local, root=root)
        for row in gathered:
            for v, c in zip(probe_arr, row):
                counts[int(v)] += int(c)
        for j in unresolved:
            if counts[mids[j]] >= targets[j]:
                hi[j] = mids[j]
            else:
                lo[j] = mids[j]
        report.bump(len(unresolved))

    pivots = np.asarray(hi, dtype=dtype)
    pivots = cluster.comm.bcast(pivots, root=root)[0]
    return pivots, report
