"""Exact quantile pivots by distributed counting search (§3.2 extension).

The paper notes (citing the author's HiPC'2000 work) that *quantiles*
"can be used to partition the inputs in chunks of almost equal sizes and
lead to an algorithm that is less memory consuming than the original
PSRS with equal time performances."  This module implements the
out-of-core version: instead of sampling, the designated node finds each
performance-proportional boundary *exactly* by binary search on the key
space, where each probe value ``v`` is resolved into a global rank by
asking every node for ``|{x <= v}|`` on its sorted file.

Search state.  The root keeps one key interval per boundary with
``count_leq(lo) < target <= count_leq(hi)``.  Every node keeps the
probes it has answered, sorted (:class:`_ProbeMemo`): ``value -> (cut,
pred, succ)``, its local ``|{x <= value}|`` and the file items on either
side of that cut, seeded from the file's first and last key.  The two
answered neighbours of a new probe either settle it with no read
(nothing of the file lies between them, or all of it on one side of the
probe) or confine a block binary search to the blocks between their
cuts, each read once.

Reply.  A node answers each probe with that triple, so the root knows
the largest real key ``<= v`` (max of the ``pred``) and the smallest one
``> v`` (min of the ``succ``) and moves ``hi`` or ``lo`` onto it: the
empty stretches of the key space (2**32 / n per gap for uniform 32-bit
keys) are never bisected.

Trade-off (measured in the sampling ablation bench): S(max) becomes
1 + O(p/l_i) — essentially perfect — at the price of, per node and
boundary, O(log^2(n_blocks) + rounds) step-2 block reads at worst
(measured: about log(n_blocks) plus a handful) and one small message
round-trip per round, where sampling needs a single gather.  Rounds are
about log2(distinct keys), never more than the key width + 1: each still
halves the key interval.  Memory: the p-1 search intervals at the root
and, per node, one small tuple per probe answered (at most
rounds * (p-1)); no candidate buffer, one block pinned at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.core.partition import lower_bound_offset
from repro.core.perf import PerfVector
from repro.pdm.blockfile import BlockFile
from repro.pdm.memory import MemoryManager

#: One answered probe: local ``|{x <= v}|``, the file item just below
#: that cut and the one just above it.
Answer = tuple[int, int, int]


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


class _ProbeMemo:
    """One node's side of the search: every probe it has answered.

    ``values`` is sorted and ``answers[i]`` belongs to ``values[i]``.  The
    two seeds bracket every probe the root can send and cost the two
    end-block reads.  The key dtype's extremes stand in for a ``pred`` /
    ``succ`` the file does not have: they cannot win the root's max / min
    against a real key.
    """

    __slots__ = ("file", "mem", "first", "last", "values", "answers")

    def __init__(self, file: BlockFile, mem: MemoryManager) -> None:
        self.file = file
        self.mem = mem
        info = np.iinfo(file.dtype)
        self.first, self.last = info.max, info.min  # of an empty file: the stand-ins
        if file.n_items:
            with mem.reserve(file.block_items(0)):
                self.first = int(file.read_block(0)[0])
            with mem.reserve(file.block_items(file.n_blocks - 1)):
                self.last = int(file.read_block(file.n_blocks - 1)[-1])
        self.values = [info.min - 1, info.max]
        self.answers: list[Answer] = [
            (0, info.min, self.first),
            (file.n_items, self.last, info.max),
        ]

    def answer(self, v: int) -> Answer:
        """``(cut, pred, succ)`` of probe ``v``; reads only what the
        answered neighbours leave open."""
        i = bisect_left(self.values, v)
        if self.values[i] == v:
            return self.answers[i]
        below, above = self.answers[i - 1], self.answers[i]
        if below[0] == above[0] or below[2] > v:
            found = below  # no item in (lower neighbour, v]
        elif above[1] <= v:
            found = above  # no item in (v, upper neighbour]
        else:
            found = self._search(v, below, above)
        self.values.insert(i, v)
        self.answers.insert(i, found)
        return found

    def _search(self, v: int, below: Answer, above: Answer) -> Answer:
        """The cut lies strictly between the neighbours' cuts: take it
        from the leftmost block whose last key exceeds ``v``, among the
        blocks that can hold it, reading each at most once."""
        f, B = self.file, self.file.B
        key = f.dtype.type(v)
        lo, hi = (below[0] + 1) // B, (above[0] - 1) // B
        # Last key of the block left of the answer; should the answer
        # open the window's first block, the item at the lower cut.
        before = below[2]
        # Block ``hi`` holds the upper neighbour's pred, which exceeds v.
        cut, succ = above[0], above[2]
        inside: Optional[int] = None  # pred, when it lies in the answer's block
        while lo <= hi:
            mid = (lo + hi) // 2
            with self.mem.reserve(f.block_items(mid)):
                blk = f.read_block(mid)
                if blk[-1] > key:
                    within = int(np.searchsorted(blk, key, side="right"))
                    cut, succ = mid * B + within, int(blk[within])
                    inside = int(blk[within - 1]) if within else None
                    hi = mid - 1
                else:
                    before = int(blk[-1])
                    lo = mid + 1
        return cut, before if inside is None else inside, succ


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
    values and gathers one ``(count, pred, succ)`` row per probe from
    every node (tiny messages); the per-node counting reads are charged
    to each node's disk and clock.
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
    memos = [_ProbeMemo(f, node.mem) for node, f in zip(cluster.nodes, sorted_files)]
    key_lo = min(memo.first for memo in memos)
    key_hi = max(memo.last for memo in memos)

    lo = [key_lo - 1] * len(targets)  # invariant: count_leq(lo) < target
    hi = [key_hi] * len(targets)  # invariant: count_leq(hi) >= target
    while True:
        unresolved = [j for j in range(len(targets)) if lo[j] + 1 < hi[j]]
        if not unresolved:
            break
        mids = {j: (lo[j] + hi[j]) // 2 for j in unresolved}
        # Root broadcasts probes; every node answers with local triples.
        probe_arr = np.asarray(sorted(set(mids.values())), dtype=wire)
        # Each node answers from its own received copy of the probes.
        # Collectives index by *position* in the (possibly degraded)
        # view, not by global rank — a survivor view of ranks [0, 2]
        # returns a 2-element list.
        local = [
            np.asarray([memo.answer(v) for v in probes.tolist()], dtype=wire)
            for memo, probes in zip(memos, cluster.comm.bcast(probe_arr, root=root))
        ]
        reply = np.stack(cluster.comm.gather(local, root=root))  # node, probe, field
        counts = reply[:, :, 0].sum(axis=0).tolist()
        preds = reply[:, :, 1].max(axis=0).tolist()
        succs = reply[:, :, 2].min(axis=0).tolist()
        column = {v: i for i, v in enumerate(probe_arr.tolist())}
        for j in unresolved:
            i = column[mids[j]]
            # Snap onto the real keys around the probe.
            if counts[i] >= targets[j]:
                hi[j] = preds[i]
            else:
                lo[j] = succs[i] - 1
        report.bump(len(unresolved))

    pivots = np.asarray(hi, dtype=dtype)
    pivots = cluster.comm.bcast(pivots, root=root)[0]
    return pivots, report
