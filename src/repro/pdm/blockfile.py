"""Block-structured files on simulated disks.

A :class:`BlockFile` is the unit of on-disk storage for every external
algorithm in this package: a growable sequence of ``B``-item blocks (all
full except possibly the last) living on one :class:`~repro.pdm.disk.SimDisk`.
Payloads are numpy arrays; every block-level access charges the disk's
cost model and counters.

:class:`BlockWriter` and :class:`BlockReader` provide the buffered
streaming interfaces the sorting engines use; both pin exactly one block
of internal memory while open, which is how the
:class:`~repro.pdm.memory.MemoryManager` budget is made honest.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.analysis.sanitizers import active_sanitizer
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryManager


class BlockFile:
    """A file of fixed-size blocks on a simulated disk.

    Invariant: every block holds exactly ``B`` items except possibly the
    last.  Item-compact packing is what makes the paper's per-step block
    I/O counts (`2 Q / B` etc.) well defined.

    Direct use of :meth:`append_block` / :meth:`read_block` charges the
    disk; the charge-free ``inspect_*`` / :meth:`to_array` accessors exist
    for tests and validation only and must not be used by algorithms.
    """

    def __init__(
        self,
        disk: SimDisk,
        B: int,
        dtype: np.dtype | type = np.uint32,
        name: Optional[str] = None,
    ) -> None:
        if B < 1:
            raise ValueError(f"B must be >= 1, got {B}")
        self.disk = disk
        self.B = B
        self.dtype = np.dtype(dtype)
        self.name = name if name is not None else disk.next_file_name()
        self._block_sizes: list[int] = []
        self._n_items = 0
        self._init_store()

    # -- storage hooks (overridden by DiskBackedBlockFile) ----------------

    def _init_store(self) -> None:
        self._blocks: list[np.ndarray] = []

    def _store_append(self, arr: np.ndarray) -> None:
        self._blocks.append(arr.copy())

    def _store_load(self, index: int) -> np.ndarray:
        return self._blocks[index]

    def _store_clear(self) -> None:
        self._blocks.clear()

    # -- metadata (free: directory information, not data I/O) ------------

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def n_blocks(self) -> int:
        return len(self._block_sizes)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    def __len__(self) -> int:
        return self._n_items

    def block_items(self, index: int) -> int:
        """Item count of block ``index`` (what a reader must reserve)."""
        return self._block_sizes[index]

    # -- charged block I/O ------------------------------------------------

    def append_block(self, items: np.ndarray) -> None:
        """Append one block (<= B items).  Charges one block write.

        Appending after a partial final block is rejected — writers must
        pack items compactly (use :class:`BlockWriter`).

        The write is charged *before* the payload is stored: block writes
        are atomic, so an injected disk fault (raised from the charge)
        leaves the file unchanged — a retried step never sees phantom
        data from a failed attempt.
        """
        arr = np.asarray(items, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError(f"blocks must be 1-D, got shape {arr.shape}")
        size = arr.size
        if size == 0:
            return
        if size > self.B:
            raise ValueError(f"block of {size} items exceeds B={self.B}")
        sizes = self._block_sizes
        if sizes and sizes[-1] < self.B:
            raise ValueError(
                f"file {self.name!r} already ends in a partial block; "
                "blocks must be packed compactly"
            )
        self.charge_block("write", size, len(sizes))
        self._put(arr)

    def _put(self, arr: np.ndarray) -> None:
        """Store one already-charged block."""
        self._store_append(arr)
        self._block_sizes.append(arr.size)
        self._n_items += arr.size

    def read_block(self, index: int) -> np.ndarray:
        """Read block ``index``.  Charges one block read."""
        blk = self._store_load(index)  # IndexError propagates
        self.charge_block("read", blk.size, index)
        return blk.copy()

    def charge_block(self, op: str, n_items: int, index: int) -> None:
        """Charge one block ``op`` ("read"/"write") of ``n_items`` items at
        block ``index``, sanitizer-bracketed: every block charge, no payload."""
        disk = self.disk
        charge = disk.charge_read if op == "read" else disk.charge_write
        san = active_sanitizer()
        if san is None:
            charge(n_items, self.dtype.itemsize, self.name, index)
        else:
            with san.expect_block_charge(disk, op):
                charge(n_items, self.dtype.itemsize, self.name, index)

    def clear(self) -> None:
        """Truncate to empty (metadata operation, not charged)."""
        self._store_clear()
        self._block_sizes.clear()
        self._n_items = 0

    # -- charge-free accessors (validation / tests only) -------------------

    def inspect_block(self, index: int) -> np.ndarray:
        """Charge-free read-only view of a block.  *Not* for algorithms."""
        return self._store_load(index)

    def load_items(self, start: int, stop: int) -> np.ndarray:
        """Charge-free payload of items ``[start, stop)``; *not* for
        algorithms, bar a merge that replays every block's charge."""
        B = self.B
        first = start // B
        arr = np.concatenate([self._store_load(i) for i in range(first, -(-stop // B))])
        return arr[start - first * B : stop - first * B]

    def to_array(self) -> np.ndarray:
        """Charge-free concatenation of the whole file.  *Not* for algorithms."""
        if not self._block_sizes:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate([self._store_load(i) for i in range(self.n_blocks)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockFile({self.name!r}, {self._n_items} items in {self.n_blocks} blocks)"


class BlockWriter:
    """Buffered item-stream writer: packs items into full B-item blocks.

    Pins one block (B items) of memory in ``mem`` while open.  Use as a
    context manager, or call :meth:`close` explicitly to flush the final
    partial block and release the buffer.
    """

    def __init__(self, file: BlockFile, mem: MemoryManager) -> None:
        self.file = file
        self.mem = mem
        self._buf = np.empty(file.B, dtype=file.dtype)
        self._fill = 0
        self._closed = False
        self.items_written = 0
        mem.acquire(file.B)

    def write(self, items: np.ndarray) -> None:
        """Append a 1-D array of items to the stream."""
        if self._closed:
            raise ValueError("writer is closed")
        arr = np.asarray(items, dtype=self.file.dtype).ravel()
        self._stage(arr, self.file.append_block)

    def write_charged(self, items: np.ndarray) -> None:
        """:meth:`write` for a caller that has charged every block write
        it completes (:meth:`BlockFile.charge_block`): stores, no charge."""
        self._stage(items, self.file._put)

    @property
    def staged(self) -> int:
        """Items staged in the partial block, not yet stored."""
        return self._fill

    def _stage(self, arr: np.ndarray, store: Callable[[np.ndarray], None]) -> None:
        """Top up the staged block, store whole blocks, stage the tail."""
        n = arr.size
        B = self.file.B
        pos = 0
        if self._fill:  # top up the staged partial block first
            pos = min(B - self._fill, n)
            self._buf[self._fill : self._fill + pos] = arr[:pos]
            self._fill += pos
            if self._fill == B:
                store(self._buf)
                self._fill = 0
        # Whole blocks go straight from the caller's array (the file
        # stores its own copy); only a partial tail is staged.
        try:
            while n - pos >= B:
                store(arr[pos : pos + B])
                pos += B
        except BaseException:
            # A faulted block stays staged, so close() retries the flush.
            self._buf[:] = arr[pos : pos + B]
            self._fill = B
            raise
        if pos < n:
            self._fill = n - pos
            self._buf[: self._fill] = arr[pos:]
        self.items_written += n

    def write_one(self, item) -> None:
        """Append a single item (used by item-at-a-time merges)."""
        if self._closed:
            raise ValueError("writer is closed")
        self._buf[self._fill] = item
        self._fill += 1
        if self._fill == self.file.B:
            self.file.append_block(self._buf)
            self._fill = 0
        self.items_written += 1

    def close(self) -> None:
        """Flush the final partial block and release the buffer.

        The buffer reservation is released even if the flush write
        fails, so a disk fault cannot leak memory accounting.
        """
        if self._closed:
            return
        try:
            if self._fill:
                self.file.append_block(self._buf[: self._fill])
                self._fill = 0
        finally:
            self.mem.release(self.file.B)
            self._closed = True

    def abandon(self) -> None:
        """Discard any buffered items and release the buffer (no flush).

        For error paths: after a failure the partial output is useless
        and flushing it could fault again.
        """
        if self._closed:
            return
        self._fill = 0
        self.mem.release(self.file.B)
        self._closed = True

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def close_all(writers) -> None:
    """Close every writer, attempting all even if one flush faults.

    Re-raises the first failure after the sweep; each writer's memory
    reservation is released regardless (see :meth:`BlockWriter.close`).
    """
    first: Exception | None = None
    for w in writers:
        try:
            w.close()
        except Exception as exc:
            if first is None:
                first = exc
    if first is not None:
        raise first


class BlockReader:
    """Buffered block-stream reader over a :class:`BlockFile` range.

    Iterating yields blocks; each block is charged as one read and pins
    one block of memory for the duration of the loop body.  ``start`` /
    ``stop`` are block indices, enabling several readers over disjoint
    regions of one file (how partitions are streamed out in step 3).
    """

    def __init__(
        self,
        file: BlockFile,
        mem: MemoryManager,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self.file = file
        self.mem = mem
        self.start = start
        self.stop = file.n_blocks if stop is None else stop
        if not (0 <= self.start <= self.stop <= file.n_blocks):
            raise ValueError(
                f"invalid block range [{start}, {stop}) for {file.n_blocks}-block file"
            )

    def __iter__(self) -> Iterator[np.ndarray]:
        B = self.file.B
        for i in range(self.start, self.stop):
            with self.mem.reserve(B):
                yield self.file.read_block(i)

    def read_all(self) -> np.ndarray:
        """Read the whole range into one array.

        Reserves the full range size — only legal when it fits in memory
        (the in-core fast path the paper uses for the pivot sample).
        """
        n = sum(self.file.block_items(i) for i in range(self.start, self.stop))
        out = np.empty(n, dtype=self.file.dtype)
        with self.mem.reserve(n):
            pos = 0
            for i in range(self.start, self.stop):
                blk = self.file.read_block(i)
                out[pos : pos + blk.size] = blk
                pos += blk.size
        return out
