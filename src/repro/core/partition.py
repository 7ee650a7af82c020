"""Binary partitioning of a sorted local portion by the pivots (step 3).

The pivots fit in core, so each node finds the p cut offsets of its
*sorted* file by binary search (reading O(p * log(n_blocks)) blocks),
then — in the paper's formulation — writes the p sublists out as files,
costing at most ``2 * Q / B`` block I/Os (read + write of Q items).

Because a sublist of a sorted file is just an item range, the
``materialize=False`` mode skips the copy and hands
:class:`~repro.extsort.multiway.RunRef` ranges straight to the
redistribution step — an ablation on the paper's design (it trades one
full read+write pass for seekier reads during redistribution).

Both loops, the search and the copy, have a plan: their charges are a
pure function of the pivots' cuts and the block sizes, so where
:func:`~repro.pdm.blockfile.plannable` allows, each charges its whole
list as one batch (:meth:`~repro.pdm.blockfile.BlockFile.read_planned`),
applies its memory trajectory at once and moves its payload in bulk.
The loops stay: for fault-hooked disks and spill files, and as the
reference ``tests/test_step_plans.py`` and ``tests/test_plan_pin.py``
hold the plans to.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.extsort.multiway import RunCursor, RunRef
from repro.pdm.blockfile import BlockFile, BlockWriter, plannable, records_reservations
from repro.pdm.disk import Charge, SimDisk
from repro.pdm.memory import MemoryManager


def lower_bound_offset(
    sorted_file: BlockFile, pivot: "int | np.generic", mem: MemoryManager
) -> int:
    """Item offset of the first element ``> pivot`` (upper-bound cut).

    Binary search at block granularity: O(log n_blocks) charged block
    reads, then a searchsorted within the final block.  Using the
    upper-bound (``side='right'``) cut sends keys equal to a pivot to the
    lower partition, matching the PSRS duplicates analysis (a heavy
    duplicate inflates one partition by at most d).
    """
    nb = sorted_file.n_blocks
    if nb == 0:
        return 0
    lo, hi = 0, nb - 1  # invariant: answer block in [lo, hi+1)
    # Find the first block whose last item is > pivot.
    target = -1
    while lo <= hi:
        mid = (lo + hi) // 2
        with mem.reserve(sorted_file.block_items(mid)):
            blk = sorted_file.read_block(mid)
            if blk[-1] > pivot:
                target = mid
                hi = mid - 1
            else:
                lo = mid + 1
    if target == -1:
        return sorted_file.n_items  # everything <= pivot
    with mem.reserve(sorted_file.block_items(target)):
        blk = sorted_file.read_block(target)
        within = int(np.searchsorted(blk, pivot, side="right"))
    return target * sorted_file.B + within


def _joint_lower_bounds(
    B: int,
    piv: np.ndarray,
    read: Callable[[int], np.ndarray],
    out: list[int],
    plo: int,
    phi: int,
    blo: int,
    bhi: int,
) -> None:
    """Resolve ``out[plo:phi]`` over the block range ``[blo, bhi]``,
    probing block ``b`` of the ``B``-item-block file as ``read(b)``.

    One probe of the midpoint block answers *every* pivot in the range at
    once: pivots below the block's last key descend left (recording the
    in-block upper-bound cut as their current best answer, overwritten by
    any smaller block found later), the rest descend right.  Each block
    is read at most once per descent tree, so duplicate or clustered
    pivots share probes — never more reads than p-1 independent binary
    searches.  Iterative with an explicit work stack; traversal order is
    free because an entry only ever overwrites answers recorded by its
    own ancestors, which are popped before it.
    """
    work = [(plo, phi, blo, bhi)]
    while work:
        plo, phi, blo, bhi = work.pop()
        if plo >= phi or blo > bhi:
            continue
        mid = (blo + bhi) // 2
        blk = read(mid)
        # Pivots strictly below the block's last key have their
        # target (first block with last > pivot) at or before ``mid``.
        k = plo + int(np.searchsorted(piv[plo:phi], blk[-1], side="left"))
        if k > plo:
            within = np.searchsorted(blk, piv[plo:k], side="right")
            base = mid * B
            for idx, w in zip(range(plo, k), within):
                out[idx] = base + int(w)
        work.append((plo, k, blo, mid - 1))
        work.append((k, phi, mid + 1, bhi))


def partition_offsets(
    sorted_file: BlockFile, pivots: Sequence, mem: MemoryManager
) -> list[int]:
    """The p+1 cut offsets [0, c_1, ..., c_{p-1}, n] for p-1 pivots.

    Pivots must be non-decreasing (they come from a sorted sample).  All
    p-1 cuts are found by one joint memoized descent over the block tree
    (:func:`_joint_lower_bounds`); each cut equals what
    :func:`lower_bound_offset` would return for that pivot alone, with
    strictly fewer block reads whenever pivots share search paths.  Each
    probe pins its block while it is read; where
    :func:`~repro.pdm.blockfile.plannable` allows, the probes are charged
    in descent order as one batch and their memory applied at once.
    """
    piv = list(pivots)
    for a, b in zip(piv, piv[1:]):
        if a > b:
            raise ValueError("pivots must be non-decreasing")
    n, nb, B = sorted_file.n_items, sorted_file.n_blocks, sorted_file.B
    out = [n] * len(piv)  # "no block has last > pivot" => everything <= pivot
    if piv and nb:
        # The peak: the first probe's block, a whole one unless it is the only one.
        first = sorted_file.block_items(0)
        if plannable(sorted_file) and mem.available >= first:
            batch: list[Charge] = []
            use, pinned, who = mem.in_use, records_reservations(mem), mem.owner
            itemsize, name = sorted_file.itemsize, sorted_file.name

            def probe(b: int) -> np.ndarray:
                size = sorted_file.block_items(b)
                entry = ("read", itemsize, name, b, (size,))
                if pinned:
                    batch.extend(([size, use + size, who], entry, [-size, use, who]))
                else:
                    batch.append(entry)
                return sorted_file.load_items(b * B, b * B + size)  # repro: noqa REP005(the descent needs each block before it picks the next; the batch below charges it)

            _joint_lower_bounds(B, np.asarray(piv), probe, out, 0, len(piv), 0, nb - 1)
            sorted_file.read_planned(batch)
            mem.apply_planned(use + first, len(batch) // 3 if pinned else len(batch), 0)  # entries per probe: 3 or 1
        else:

            def read(b: int) -> np.ndarray:
                with mem.reserve(sorted_file.block_items(b)):
                    return sorted_file.read_block(b)

            _joint_lower_bounds(B, np.asarray(piv), read, out, 0, len(piv), 0, nb - 1)
    cuts = [0, *out, n]
    for a, b in zip(cuts, cuts[1:]):
        assert a <= b, "cut offsets must be monotone"
    return cuts


def partition_refs(sorted_file: BlockFile, cuts: Sequence[int]) -> list[RunRef]:
    """Zero-copy partitions: item ranges of the sorted file."""
    return [
        RunRef(sorted_file, cuts[j], cuts[j + 1]) for j in range(len(cuts) - 1)
    ]


def materialize_partitions(
    sorted_file: BlockFile,
    cuts: Sequence[int],
    disk: SimDisk,
    mem: MemoryManager,
) -> list[BlockFile]:
    """Copy each partition range into its own file (paper-faithful step 3).

    Costs one streaming read + write of the whole portion
    (``<= 2 * Q / B`` block I/Os, the paper's bound): per sublist, a
    cursor reads each source block and a writer writes each output block
    it completes, then flushes the partial last one.  Where
    :func:`~repro.pdm.blockfile.plannable` allows, that loop runs as its
    plan (:func:`_copy_planned`).
    """

    def new(j: int) -> BlockFile:
        name = disk.next_file_name(f"part{j}_")
        return disk.new_file(sorted_file.B, sorted_file.dtype, name=name)

    out = [new(0)]
    if plannable(sorted_file, out[0]):
        out += map(new, range(1, len(cuts) - 1))
        if _copy_planned(sorted_file, cuts, out, mem):
            return out
    for j in range(len(cuts) - 1):
        if j == len(out):
            out.append(new(j))
        ref = RunRef(sorted_file, cuts[j], cuts[j + 1])
        cur = RunCursor(ref, mem)
        try:
            with BlockWriter(out[j], mem) as w:
                while not cur.exhausted:
                    w.write(cur.take_upto(sorted_file.B))
        finally:
            cur.drop()
    return out


def _copy_planned(
    sorted_file: BlockFile, cuts: Sequence[int], out: Sequence[BlockFile], mem: MemoryManager
) -> bool:
    """:func:`materialize_partitions`' loop as its plan: each source block
    read, followed by the write of the output block it completes, and
    each sublist's final partial flush, charged as one batch (with the
    loop's acquires and releases where the bus records them); the loop's
    memory (a writer's block per sublist, a cursor's part per read)
    applied at once; the sublists stored from one range.  False, with
    nothing done, where the loop raises: a peak over M or a bad cut."""
    B, itemsize, n, name = sorted_file.B, sorted_file.itemsize, sorted_file.n_items, sorted_file.name
    use, pinned, who = mem.in_use, records_reservations(mem), mem.owner
    whole, short = (B,), n // B  # a whole block's sizes; the partial last block, if any
    batch: list[Charge] = []
    reads = top = 0  # source reads; the most items one of them pins
    for f, lo, hi in zip(out, cuts, cuts[1:]):
        if not 0 <= lo <= hi <= n:
            return False
        first, stop = lo // B, -(-hi // B) if hi > lo else lo // B
        reads += stop - first
        top = max(top, min((first + 1) * B, hi) - lo, hi - max((stop - 1) * B, lo), B if stop - first > 2 else 0)
        if pinned:  # the writer's block
            batch.append([B, use + B, who])
        target, done = f.name, 0  # output blocks written
        for b in range(first, stop):
            batch.append(("read", itemsize, name, b, whole if b != short else (n - b * B,)))
            end = (b + 1) * B if (b + 1) * B < hi else hi
            if pinned:  # the cursor pins the part, the writer takes it
                part = end - (b * B if b * B > lo else lo)
                batch += [[part, use + B + part, who], [-part, use + B, who]]
            if end - lo >= (done + 1) * B:
                batch.append(("write", itemsize, target, done, whole))
                done += 1
        if (hi - lo) % B:
            batch.append(("write", itemsize, target, done, ((hi - lo) % B,)))
        if pinned:
            batch.append([-B, use, who])
    if not mem.apply_planned(use + B + top, len(out) + reads, 0):
        return False
    (items,) = sorted_file.read_planned(batch, (cuts[0], cuts[-1]))  # the sublists tile it
    for f, lo, hi in zip(out, cuts, cuts[1:]):
        f.store_charged((items[lo - cuts[0] : hi - cuts[0]],))
    return True


def partition_array(
    sorted_data: np.ndarray, pivots: Sequence
) -> list[np.ndarray]:
    """In-core analogue (used by the in-core PSRS baseline)."""
    piv = np.asarray(list(pivots))
    cuts = np.concatenate(  # repro: noqa REP006(O(p) cut-index vector, metadata not record data)
        ([0], np.searchsorted(sorted_data, piv, side="right"), [sorted_data.size])
    )
    return [sorted_data[cuts[j] : cuts[j + 1]] for j in range(len(cuts) - 1)]

