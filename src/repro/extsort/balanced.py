"""Balanced k-way external merge sort (baseline comparator).

The straightforward external sort: form runs, then repeatedly merge
groups of k runs until one remains, writing every item once per pass.
Compared with polyphase (which avoids moving all data every phase), a
balanced sort makes exactly ``ceil(log_k(initial_runs))`` full passes —
the §2/§4 ablation bench contrasts the two sorts' measured I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.extsort.multiway import RunRef, max_merge_order, merge_runs
from repro.extsort.runs import CollectingSink, ComputeHook, RunPolicy, form_runs
from repro.pdm.blockfile import BlockFile
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryManager


@dataclass
class BalancedResult:
    """Outcome of :func:`balanced_merge_sort`."""

    output: BlockFile
    n_items: int
    n_initial_runs: int
    merge_order: int
    n_passes: int


def balanced_merge_sort(
    source: BlockFile,
    disk: SimDisk,
    mem: MemoryManager,
    merge_order: Optional[int] = None,
    run_policy: RunPolicy = "load",
    compute: ComputeHook = None,
) -> BalancedResult:
    """Sort ``source`` into a fresh file on ``disk`` by balanced merging.

    ``merge_order`` defaults to the largest k the memory budget allows
    (``M/B - 1``).
    """
    B = source.B
    k = max_merge_order(mem, B) if merge_order is None else merge_order
    if k < 2:
        raise ValueError(f"merge order must be >= 2, got {k}")
    if mem.capacity is not None and (k + 1) * B > mem.available:
        raise ValueError(
            f"merge order {k} needs {(k + 1) * B} items of memory, "
            f"only {mem.available} available"
        )

    sink = CollectingSink(disk, B, source.dtype, mem)
    n_runs = form_runs(source, sink, mem, policy=run_policy, compute=compute)

    if n_runs == 0:
        empty = disk.new_file(B, source.dtype, name=disk.next_file_name("sorted"))
        return BalancedResult(empty, 0, 0, k, 0)

    level = [RunRef.whole(f) for f in sink.runs]
    n_passes = 0
    while len(level) > 1:
        nxt: list[RunRef] = []
        for i in range(0, len(level), k):
            group = level[i : i + k]
            if len(group) == 1:
                nxt.append(group[0])
                continue
            out = disk.new_file(B, source.dtype, name=disk.next_file_name("merge"))
            merge_runs(group, out, mem, compute=compute)
            for r in group:
                if r.start == 0 and r.stop == r.file.n_items:
                    r.file.clear()
            nxt.append(RunRef.whole(out))
        level = nxt
        n_passes += 1

    final = level[0]
    return BalancedResult(final.file, final.file.n_items, n_runs, k, n_passes)
