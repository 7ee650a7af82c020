"""External distribution (bucket) sort with sampled splitters.

The §2 baseline: a recursive algorithm in which the input is partitioned
by ``S-1`` splitters into ``S`` buckets, buckets are sorted recursively
(in core once they fit), and the sorted buckets concatenate into the
output.  With splitters that balance the buckets, there are
``log_S(n)`` levels of recursion and the sort meets the PDM bound; the
paper notes the hard part is finding splitters that keep bucket sizes
"within a constant factor of one another" — which is exactly the
weakness the sampled splitters here exhibit under adversarial key
distributions (see the duplicates tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.runs import ComputeHook, _sort_ops
from repro.pdm.blockfile import BlockFile, BlockReader, BlockWriter, close_all
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryManager


@dataclass
class DistributionResult:
    """Outcome of :func:`distribution_sort`."""

    output: BlockFile
    n_items: int
    fanout: int
    max_depth: int
    n_fallbacks: int


def _sample_splitters(
    source: BlockFile,
    mem: MemoryManager,
    n_splitters: int,
    oversample: int,
    compute: ComputeHook,
) -> np.ndarray:
    """Pick splitters from evenly-spaced sample blocks (charged reads)."""
    want = max(n_splitters * oversample, n_splitters + 1)
    mem_blocks = (mem.available // source.B) if mem.capacity is not None else 1 << 16
    # Spread the sample over at least ~one block per splitter: reading a
    # single block would make the splitters hostage to that block's key
    # range (catastrophic on presorted inputs, where block 0 holds only
    # the smallest keys).
    n_sample_blocks = min(
        source.n_blocks,
        max(-(-want // source.B), n_splitters + 1),
        max(1, mem_blocks - 2),
    )
    idxs = np.unique(
        np.linspace(0, source.n_blocks - 1, n_sample_blocks).astype(int)
    )
    total = sum(source.block_items(int(i)) for i in idxs)
    with mem.reserve(total):
        parts = [source.read_block(int(i)) for i in idxs]
        sample = np.concatenate(parts)
        del parts
        sample.sort()  # repro: noqa REP002(block sample held under mem.reserve; compute charged below)
        sample = sample.copy()
    if compute is not None:
        compute(_sort_ops(sample.size))
    # Evenly spaced order statistics of the sample.
    pos = (np.arange(1, n_splitters + 1) * sample.size) // (n_splitters + 1)
    return sample[np.clip(pos, 0, sample.size - 1)]


def distribution_sort(
    source: BlockFile,
    disk: SimDisk,
    mem: MemoryManager,
    fanout: Optional[int] = None,
    oversample: int = 8,
    compute: ComputeHook = None,
) -> DistributionResult:
    """Sort ``source`` into a fresh file on ``disk`` by distribution.

    ``fanout`` S defaults to the memory-feasible maximum ``m - 2`` (one
    input block, S bucket writers, one shared output writer).  Buckets
    that fail to shrink (pathological splitters, e.g. a single massive
    duplicate value) fall back to a balanced merge sort — counted in the
    result's ``n_fallbacks``.
    """
    B = source.B
    m = mem.available // B if mem.capacity is not None else 1 << 16
    if m < 4:
        raise ValueError(
            f"memory budget of {mem.available} items (m={m} blocks) is too "
            "small for distribution sort; need at least 4 blocks"
        )
    S = (m - 2) if fanout is None else fanout
    if S < 2:
        raise ValueError(f"fanout must be >= 2, got {S}")
    if mem.capacity is not None and (S + 2) * B > mem.available:
        raise ValueError(
            f"fanout {S} needs {(S + 2) * B} items of memory, "
            f"only {mem.available} available"
        )

    out = disk.new_file(B, source.dtype, name=disk.next_file_name("sorted"))
    stats = {"max_depth": 0, "fallbacks": 0}
    with BlockWriter(out, mem) as writer:
        _sort_into(source, writer, disk, mem, S, oversample, compute, 0, stats)
    return DistributionResult(
        out, out.n_items, S, stats["max_depth"], stats["fallbacks"]
    )


def _sort_into(
    bucket: BlockFile,
    writer: BlockWriter,
    disk: SimDisk,
    mem: MemoryManager,
    S: int,
    oversample: int,
    compute: ComputeHook,
    depth: int,
    stats: dict,
) -> None:
    stats["max_depth"] = max(stats["max_depth"], depth)
    B = bucket.B
    # In-core base case: needs the bucket plus nothing else (writer block
    # already pinned by the caller).
    in_core_cap = (mem.available - B) if mem.capacity is not None else 1 << 62
    if bucket.n_items <= in_core_cap:
        if bucket.n_items:
            data = BlockReader(bucket, mem).read_all()
            data.sort()  # repro: noqa REP002(in-core base case under the read_all reservation; compute charged below)
            if compute is not None:
                compute(_sort_ops(data.size))
            with mem.reserve(data.size):
                writer.write(data)
        return

    parent_n = bucket.n_items
    splitters = _sample_splitters(bucket, mem, S - 1, oversample, compute)
    subfiles = [
        disk.new_file(B, bucket.dtype, name=disk.next_file_name(f"bkt{depth}_"))
        for _ in range(S)
    ]
    sub_writers = [BlockWriter(f, mem) for f in subfiles]
    try:
        for block in BlockReader(bucket, mem):
            which = np.searchsorted(splitters, block, side="right")
            if compute is not None:
                compute(block.size * float(np.log2(max(2, S))))
            for j in range(S):
                sel = block[which == j]
                if sel.size:
                    sub_writers[j].write(sel)
    finally:
        close_all(sub_writers)
    if depth == 0:
        pass  # keep the original input intact
    else:
        bucket.clear()

    for f in subfiles:
        if f.n_items == 0:
            continue
        if _bucket_is_constant(f):
            # A constant bucket is already sorted; stream it through.
            for block in BlockReader(f, mem):
                writer.write(block)
        elif f.n_items < parent_n:
            _sort_into(f, writer, disk, mem, S, oversample, compute, depth + 1, stats)
        else:
            # Splitters failed to split (pathological distribution):
            # escape the recursion with a merge sort of this bucket.
            stats["fallbacks"] += 1
            res = balanced_merge_sort(f, disk, mem, compute=compute)
            for block in BlockReader(res.output, mem):
                writer.write(block)
            res.output.clear()
        f.clear()


def _bucket_is_constant(f: BlockFile) -> bool:
    """Charge-free metadata check: all items equal (min == max)?

    Uses inspect (directory-style metadata the simulation grants for
    free); a real system would track per-bucket min/max while writing.
    """
    lo = f.inspect_block(0)[0]  # repro: noqa REP005(per-bucket min/max a real system tracks at write time)
    hi = f.inspect_block(f.n_blocks - 1)[-1]  # repro: noqa REP005(per-bucket min/max a real system tracks at write time)
    if lo == hi:
        return all(
            f.inspect_block(i).min() == lo and f.inspect_block(i).max() == lo  # repro: noqa REP005(per-bucket min/max a real system tracks at write time)
            for i in range(f.n_blocks)
        )
    return False
