"""Heterogeneous hyperquicksort — the paper's stated future work (§6).

    "It is still challenging to explore in deep quicksort based
    approaches ... in the context of non homogeneous clusters."

This module explores exactly that, in core, as a comparator for the
expansion/ablation benches.  Classic hyperquicksort (Quinn '89) works on
a hypercube: at each level the node group picks a pivot, the lower half
of the group keeps keys <= pivot and the upper half the rest, then each
half recurses; after ~log2(p) levels each node holds a contiguous key
range and sorts it locally.

Heterogeneous twist implemented here:

* the group splits so the two halves' *aggregate performance* is as even
  as possible (so p need not be a power of two),
* the pivot targets the quantile matching the lower half's performance
  share (a plain median drowns a {4,4,1,1} machine's slow pair),
* parts arriving into a half are assigned to its least-loaded member
  relative to perf.

The structural weakness versus PSRS is inherent: every level's pivot is
estimated from a fresh small sample and errors *compound* across levels,
so the expansion is noticeably worse than one-step regular sampling —
one concrete reason the paper stuck with sampling algorithms (see the
sampling ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.core.incore import concat_in_memory, merge_in_memory, sort_in_memory
from repro.core.perf import PerfVector
from repro.core.result import SortResult
from repro.obs.events import step_seconds


@dataclass
class HyperquicksortResult(SortResult[np.ndarray]):
    """Sorted per-node arrays plus load-balance metrics."""

    levels: int


def split_group(group: list[int], perf: PerfVector) -> tuple[list[int], list[int], float]:
    """Split a contiguous rank group so both halves' aggregate perf is as
    even as possible; returns ``(low, high, low_perf_share)``."""
    if len(group) < 2:
        raise ValueError("cannot split a group of fewer than 2 nodes")
    total = sum(perf[i] for i in group)
    best_cut, best_gap = 1, float("inf")
    for cut in range(1, len(group)):
        low_share = sum(perf[i] for i in group[:cut]) / total
        gap = abs(low_share - 0.5)
        if gap < best_gap:
            best_cut, best_gap = cut, gap
    low, high = group[:best_cut], group[best_cut:]
    return low, high, sum(perf[i] for i in low) / total


def sort_hyperquicksort(
    cluster: Cluster,
    perf: PerfVector,
    portions: Sequence[np.ndarray],
    sample_per_node: int = 64,
    seed: int = 0,
) -> HyperquicksortResult:
    """Run heterogeneous hyperquicksort over per-node arrays (in core)."""
    p = cluster.p
    if perf.p != p or len(portions) != p:
        raise ValueError("perf/portions must match the cluster size")
    if sample_per_node < 1:
        raise ValueError(f"sample_per_node must be >= 1, got {sample_per_node}")
    n_items = sum(np.asarray(a).size for a in portions)
    rng = np.random.default_rng(seed)
    dtype = np.asarray(portions[0]).dtype if portions else np.dtype(np.uint32)

    # Initial local sort (as in classic hyperquicksort).
    data: list[np.ndarray] = []
    with cluster.step("1:local-sort"):
        for node, arr in zip(cluster.nodes, portions):
            data.append(sort_in_memory(np.asarray(arr), node))

    levels = 0
    groups = [list(range(p))]
    while any(len(g) > 1 for g in groups):
        levels += 1
        next_groups: list[list[int]] = []
        with cluster.step(f"level-{levels}"):
            for group in groups:
                if len(group) == 1:
                    next_groups.append(group)
                    continue
                low, high, low_share = split_group(group, perf)
                _exchange_level(
                    cluster, perf, data, group, low, high, low_share,
                    sample_per_node, rng, dtype,
                )
                next_groups.extend([low, high])
        groups = next_groups

    elapsed = cluster.barrier()
    received = [int(a.size) for a in data]
    return HyperquicksortResult(
        outputs=data,
        perf=perf,
        n_items=n_items,
        elapsed=elapsed,
        step_times=step_seconds(cluster.bus.events),
        levels=levels,
        received_sizes=received,
    )


def _exchange_level(
    cluster: Cluster,
    perf: PerfVector,
    data: list[np.ndarray],
    group: list[int],
    low: list[int],
    high: list[int],
    low_share: float,
    sample_per_node: int,
    rng: np.random.Generator,
    dtype: np.dtype,
) -> None:
    """One hyperquicksort level on one group: pivot, split, exchange, merge."""
    leader = group[0]

    # Pivot from a random sample, at the low half's performance quantile.
    samples = []
    for i in group:
        arr = data[i]
        k = min(arr.size, sample_per_node)
        pick = arr[rng.integers(0, arr.size, size=k)] if k else arr[:0]
        cluster.nodes[i].compute(float(k))
        if i != leader and pick.size:
            # The leader works on its *received* copy, not the sender's array.
            pick = cluster.comm.send(i, leader, pick)
        samples.append(pick)
    root = cluster.nodes[leader]
    cand = sort_in_memory(concat_in_memory(samples, root), root)
    if cand.size == 0:
        return  # group holds no data; nothing to exchange
    pivot_local = cand[min(cand.size - 1, int(low_share * cand.size))]
    # Every member splits on its own received copy of the pivot; copies are
    # identical, so the leader's suffices for the loop below.
    pivot = cluster.comm.bcast(np.asarray([pivot_local]), root=leader)[leader][0]

    # Split every member's sorted holdings at the pivot.
    lows: dict[int, np.ndarray] = {}
    highs: dict[int, np.ndarray] = {}
    for i in group:
        arr = data[i]
        cut = int(np.searchsorted(arr, pivot, side="right"))
        cluster.nodes[i].compute(float(np.log2(max(2, arr.size))))
        lows[i], highs[i] = arr[:cut], arr[cut:]

    # Route misplaced parts to the least-loaded (relative to perf) member
    # of the destination half, then merge at each receiver.
    incoming: dict[int, list[np.ndarray]] = {i: [] for i in group}
    kept = {i: (lows[i] if i in low else highs[i]) for i in group}
    load = {i: kept[i].size / perf[i] for i in group}

    def route(part: np.ndarray, src: int, half: list[int]) -> None:
        if not part.size:
            return
        dst = min(half, key=lambda j: load[j])
        if dst != src:
            # The receiver merges its own copy of the part.
            part = cluster.comm.send(src, dst, part)
        incoming[dst].append(part)
        load[dst] += part.size / perf[dst]

    for i in high:
        route(lows[i], i, low)
    for i in low:
        route(highs[i], i, high)

    for i in group:
        pieces = [kept[i]] + incoming[i]
        pieces = [q for q in pieces if q.size]
        if pieces:
            data[i] = merge_in_memory(pieces, cluster.nodes[i])
        else:
            data[i] = np.empty(0, dtype=dtype)


def sort_array_hyperquicksort(
    cluster: Cluster,
    perf: PerfVector,
    data: np.ndarray,
    sample_per_node: int = 64,
    seed: int = 0,
) -> HyperquicksortResult:
    """Distribute ``data`` perf-proportionally (untimed) and sort."""
    cluster.reset()
    return sort_hyperquicksort(
        cluster, perf, perf.split(data), sample_per_node=sample_per_node, seed=seed
    )
