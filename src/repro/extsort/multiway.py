"""Block-buffered k-way merging of sorted runs under a memory budget.

One production engine and one reference, identical observable semantics
(same output, same block I/O; ``tests/test_multiway.py`` holds them to it):

* :func:`merge_cursors` — what every sort runs.  Per round, each run
  holds one buffered block; the safe horizon ``t`` is the minimum of the
  per-run buffer maxima; every buffered item ``<= t`` can be emitted this
  round (any unseen item of run *i* is ``>=`` its buffer max ``>= t``),
  so the round cuts every buffer at ``t``, merges the cut-off heads
  in core (:func:`~repro.extsort.losertree.kway_merge_sorted`)
  and streams the chunk out.  A round is two passes over the cursors —
  refill + horizon, then cut + release — and at least one whole buffer
  drains per round, so the number of rounds is bounded by the total
  block count: the Python-level overhead is O(blocks·k) while the data
  plane stays in numpy.
* :func:`merge_cursors_itemwise` — the textbook loser-tree merge
  (ceil(log2 k) comparisons per item), kept as the reference the
  differential tests and the micro-benchmark compare against.  Only
  :func:`merge_runs` can select it (``engine="itemwise"``); no sort
  and no config passes that on.

A k-way merge needs k input buffers plus one output buffer in core:
``k <= M/B - 1`` (:func:`max_merge_order`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.extsort.losertree import LoserTree, kway_merge_sorted
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.memory import MemoryManager

ComputeHook = Optional[Callable[[float], None]]


def max_merge_order(mem: MemoryManager, B: int) -> int:
    """Largest k for a k-way merge: k input blocks + 1 output block <= M."""
    if mem.capacity is None:
        return 1 << 16
    k = mem.available // B - 1
    if k < 2:
        raise ValueError(
            f"memory budget too small to merge: available={mem.available}, "
            f"B={B} (need >= 3 blocks)"
        )
    return k


@dataclass(frozen=True)
class RunRef:
    """A sorted run = an item range [start, stop) of a block file."""

    file: BlockFile
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.stop <= self.file.n_items):
            raise ValueError(
                f"run range [{self.start}, {self.stop}) outside file of "
                f"{self.file.n_items} items"
            )

    @property
    def length(self) -> int:
        return self.stop - self.start

    @staticmethod
    def whole(file: BlockFile) -> "RunRef":
        return RunRef(file, 0, file.n_items)


class RunCursor:
    """Buffered forward cursor over one sorted run.

    Reads the underlying file block by block (each read charged to the
    disk), pinning buffered-but-unconsumed items in the memory manager.
    Item addressing exploits the BlockFile invariant that every block
    except the last holds exactly B items.
    """

    def __init__(self, run: RunRef, mem: MemoryManager) -> None:
        self.run = run
        self.mem = mem
        self._pos = run.start  # next unread item offset in the file
        #: Unconsumed tail of the current block (never empty), or None.
        self._buf: Optional[np.ndarray] = None

    @property
    def exhausted(self) -> bool:
        return self._buf is None and self._pos >= self.run.stop

    def _fill(self) -> None:
        """Ensure a non-empty buffer or exhaustion."""
        if self._buf is None and self._pos < self.run.stop:
            self._refill()

    def _refill(self) -> np.ndarray:
        """Read and pin the run's next block (the buffer must be drained
        and the run not exhausted); returns the new buffer."""
        B = self.run.file.B
        block_index = self._pos // B
        block = self.run.file.read_block(block_index)
        lo = self._pos - block_index * B
        hi = min(block.size, self.run.stop - block_index * B)
        self._buf = buf = block[lo:hi]
        self._pos = block_index * B + hi
        self.mem.acquire(hi - lo)
        return buf

    def _pop(self, n: int) -> np.ndarray:
        """Consume and unpin the first ``n`` buffered items (maybe none)."""
        buf = self._buf
        assert buf is not None, "pop from a drained cursor"
        if n:
            self.mem.release(n)
        self._buf = buf[n:] if n < buf.size else None
        return buf[:n]

    def buffer_max(self) -> np.generic:
        """Largest key currently buffered (fills the buffer if needed)."""
        self._fill()
        if self._buf is None:
            raise RuntimeError("cursor exhausted")
        return self._buf[-1]

    def take_leq(self, t: "int | np.generic") -> np.ndarray:
        """Pop every buffered item ``<= t`` (possibly none)."""
        self._fill()
        if self._buf is None:
            return np.empty(0, dtype=self.run.file.dtype)
        return self._pop(int(self._buf.searchsorted(t, "right")))

    def take_one(self) -> np.generic:
        """Pop a single item (item-at-a-time engine)."""
        self._fill()
        if self._buf is None:
            raise RuntimeError("cursor exhausted")
        return self._pop(1)[0]

    def take_upto(self, n: int) -> np.ndarray:
        """Pop up to ``n`` items from the current buffer (message chunking)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self._fill()
        if self._buf is None:
            return np.empty(0, dtype=self.run.file.dtype)
        return self._pop(min(n, self._buf.size))

    def peek(self) -> "np.generic | None":
        """Current head item without consuming, or None if exhausted."""
        self._fill()
        if self._buf is None:
            return None
        return self._buf[0]

    def drop(self) -> None:
        """Release any buffered items (abandon the cursor)."""
        if self._buf is not None:
            self.mem.release(self._buf.size)
            self._buf = None


def merge_cursors(
    cursors: Sequence[RunCursor],
    writer: BlockWriter,
    mem: MemoryManager,
    compute: ComputeHook = None,
) -> int:
    """Vectorised k-way merge; returns the number of items written."""
    active = [c for c in cursors if not c.exhausted]
    log_k = float(np.log2(max(2, len(active))))
    total = 0
    while active:
        # Pass 1: refill drained buffers; the horizon is the least tail.
        bufs = [c._buf if c._buf is not None else c._refill() for c in active]
        t = min([buf[-1] for buf in bufs])
        # Pass 2: cut every buffer at the horizon and unpin what leaves.
        parts = []
        finished = False
        for c, buf in zip(active, bufs):
            cut = int(buf.searchsorted(t, "right"))
            if cut:
                parts.append(c._pop(cut))
                finished = finished or c.exhausted
        n = sum([p.size for p in parts])
        mem.acquire(n)
        try:
            # A lone part is already the chunk; the writer copies it out.
            writer.write(parts[0] if len(parts) == 1 else kway_merge_sorted(parts))
        finally:
            mem.release(n)
        total += n
        if compute is not None:
            compute(n * log_k)
        if finished:
            active = [c for c in active if not c.exhausted]
    return total


def merge_cursors_itemwise(
    cursors: Sequence[RunCursor],
    writer: BlockWriter,
    mem: MemoryManager,
    compute: ComputeHook = None,
) -> int:
    """Loser-tree k-way merge, one item at a time (reference engine)."""
    heads = [c.peek() for c in cursors]
    tree = LoserTree([None if h is None else h for h in heads])
    total = 0
    while not tree.exhausted:
        src = tree.winner
        writer.write_one(cursors[src].take_one())
        total += 1
        tree.replace(src, cursors[src].peek())
    if compute is not None:
        compute(float(tree.comparisons))
    return total


def merge_runs(
    runs: Sequence[RunRef],
    out: BlockFile,
    mem: MemoryManager,
    compute: ComputeHook = None,
    engine: str = "vector",
) -> int:
    """Merge ``runs`` into ``out`` in one k-way pass.

    The caller must guarantee ``len(runs) <= max_merge_order(mem, B)``;
    multi-pass scheduling lives in the sort algorithms.
    """
    k_max = max_merge_order(mem, out.B)
    if len(runs) > k_max:
        raise ValueError(f"{len(runs)} runs exceed merge order {k_max}")
    if engine not in ("vector", "itemwise"):
        raise ValueError(f"unknown merge engine {engine!r}")
    cursors = [RunCursor(r, mem) for r in runs]
    try:
        with BlockWriter(out, mem) as w:
            if engine == "vector":
                return merge_cursors(cursors, w, mem, compute)
            return merge_cursors_itemwise(cursors, w, mem, compute)
    finally:
        for c in cursors:
            c.drop()
