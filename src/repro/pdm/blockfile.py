"""Block-structured files on simulated disks.

A :class:`BlockFile` is the unit of on-disk storage for every external
algorithm in this package: a growable sequence of ``B``-item blocks (all
full except possibly the last) living on one :class:`~repro.pdm.disk.SimDisk`.
Payloads are numpy arrays, stored a span at a time (see :class:`BlockFile`);
every block-level access charges the disk's cost model and counters.  A
loop whose charges are a pure function of what is on disk may run as its
plan instead (:func:`plannable` says when): the plan builds its whole
batch of charges, and :meth:`BlockFile.read_planned` charges it at once
and hands back the payload of the item ranges the plan reads, one view
per range.

:class:`BlockWriter` and :class:`BlockReader` provide the buffered
streaming interfaces the sorting engines use; both pin exactly one block
of internal memory while open, which is how the
:class:`~repro.pdm.memory.MemoryManager` budget is made honest.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.pdm.disk import Blocks, Charge, SimDisk
from repro.pdm.memory import MemoryManager

_PARTIAL = "file {!r} already ends in a partial block; blocks must be packed compactly"


class BlockFile:
    """A file of fixed-size blocks on a simulated disk.

    Invariant: every block holds exactly ``B`` items except possibly the
    last, so block sizes are derived from ``n_items`` and ``B``.
    Item-compact packing is what makes the paper's per-step block I/O
    counts (`2 Q / B` etc.) well defined.

    Each store copies its whole span once into an *extent*; extents start
    at block boundaries, so a block is a slice of one extent, found in O(1).
    Accessors raise ``IndexError`` outside the file, before any charge.

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
        self._n_items = 0
        self._init_store()

    # -- storage hooks (overridden by DiskBackedBlockFile) ----------------

    def _init_store(self) -> None:
        """Empty the store.  Extents are dropped, never overwritten, so a
        view handed out earlier keeps what it read."""
        self._extent_of: list[tuple[np.ndarray, int]] = []  # per block: its extent, and where that starts

    def _store_span(self, parts: Sequence[np.ndarray], size: int) -> None:
        """Store the ``size`` items of ``parts``, in order, after the
        file's last whole block: one copy, into a new extent."""
        ext = parts[0].copy() if len(parts) == 1 else np.concatenate(parts)
        self._extent_of += [(ext, self._n_items)] * -(-size // self.B)

    def _store_range(self, lo: int, hi: int) -> np.ndarray:
        """Items ``[lo, hi)`` (``0 <= lo < hi <= n_items``): a view of one
        extent, or a fresh concatenation where the range crosses extents."""
        B, of = self.B, self._extent_of
        ext, s = of[lo // B]
        if hi - s <= ext.size:
            return ext[lo - s : hi - s]
        parts: list[np.ndarray] = []
        while hi - s > ext.size:
            parts.append(ext[lo - s :])
            lo = s = s + ext.size
            ext = of[s // B][0]
        parts.append(ext[: hi - s])
        return np.concatenate(parts)

    # -- metadata (free: directory information, not data I/O) ------------

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def n_blocks(self) -> int:
        return -(-self._n_items // self.B)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    def __len__(self) -> int:
        return self._n_items

    def block_items(self, index: int) -> int:
        """Item count of block ``index`` (what a reader must reserve)."""
        lo = index * self.B
        if not 0 <= lo < self._n_items:
            raise self._outside(index, index + 1)
        return min(self.B, self._n_items - lo)

    def items_in(self, blocks: Sequence[int] | np.ndarray) -> int:
        """Item count of the distinct blocks ``blocks``, ascending (a
        ``range`` or a sorted index array): all full but the file's last."""
        if not len(blocks):
            return 0
        return (len(blocks) - 1) * self.B + self.block_items(int(blocks[-1]))

    def _outside(self, start: int, stop: int) -> IndexError:
        """The error for blocks ``[start, stop)``, not a non-empty range of the file."""
        return IndexError(f"blocks [{start}, {stop}) outside the {self.n_blocks}-block file")

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
        if arr.size > self.B:
            raise ValueError(f"block of {arr.size} items exceeds B={self.B}")
        if arr.size:
            self.append_blocks((arr,))

    def append_blocks(self, parts: Sequence[np.ndarray]) -> None:
        """Append the items of ``parts``, in order, as blocks (every part
        but the last holds whole blocks): one batch charge, then one
        store; block by block where a charge or store can fault."""
        B, itemsize = self.B, self.dtype.itemsize
        if self._n_items % B:
            raise ValueError(_PARTIAL.format(self.name))
        if self._batched():
            size = sum(map(len, parts))
            sizes = [B] * -(-size // B)
            if size % B:
                sizes[-1] = size % B
            self.charge_blocks((("write", itemsize, self.name, self._n_items // B, sizes),))
            self._store_span(parts, size)
            self._n_items += size
            return
        for part in parts:
            for i in range(0, part.size, B):
                blk = part[i : i + B]
                self.charge_blocks((("write", itemsize, self.name, self._n_items // B, (blk.size,)),))
                self._store_span((blk,), blk.size)
                self._n_items += blk.size

    def store_charged(self, parts: Sequence[np.ndarray]) -> None:
        """Store the items of ``parts``, in order, as blocks whose writes
        the caller has charged (:meth:`charge_blocks`): a plan's output,
        no charge.  Every part but the last holds whole blocks."""
        if self._n_items % self.B:
            raise ValueError(_PARTIAL.format(self.name))
        size = sum(map(len, parts))
        if size:
            self._store_span(parts, size)
            self._n_items += size

    def read_block(self, index: int) -> np.ndarray:
        """Read block ``index``.  Charges one block read."""
        n, B = self._n_items, self.B
        lo = index * B
        if not 0 <= lo < n:
            raise self._outside(index, index + 1)
        blk = self._store_range(lo, lo + B if lo + B < n else n)
        self.charge_blocks((("read", blk.itemsize, self.name, index, (blk.size,)),))
        return blk.copy()

    def read_blocks(self, start: int, stop: int) -> np.ndarray:
        """Blocks ``[start, stop)`` as one fresh array: one batch charge;
        block by block (load, charge) where a charge or a load can fault."""
        entry = self.reads(start, stop)
        if not self._batched():
            return np.concatenate([self.read_block(b) for b in range(start, stop)])
        arr = self._store_range(start * self.B, min(stop * self.B, self._n_items))
        self.charge_blocks((entry,))
        return arr if arr.base is None else arr.copy()

    def reads(self, start: int, stop: int) -> Blocks:
        """The batch entry reading blocks ``[start, stop)`` (non-empty)."""
        B, n = self.B, self._n_items
        if not (0 <= start < stop and (stop - 1) * B < n):
            raise self._outside(start, stop)
        sizes = [B] * (stop - start)
        if stop * B > n:
            sizes[-1] = n - (stop - 1) * B
        return ("read", self.dtype.itemsize, self.name, start, sizes)

    def read_planned(self, batch: Sequence[Charge], *spans: tuple[int, int]) -> list[np.ndarray]:
        """Charge a plan's finished ``batch`` as one (:meth:`charge_blocks`)
        and return the payload of each item range ``(lo, hi)`` in ``spans``:
        a view not to be written (or, across extents, a fresh copy).  The
        one accounted payload access of a planned loop, so a span covers
        only blocks the batch reads.  Every read of this file the batch
        lists, and every span, must lie inside the file: else
        ``IndexError``, checked in one pass before any charge."""
        name, B, n = self.name, self.B, self._n_items
        for e in batch:
            if type(e) is tuple and e[2] == name and e[0] == "read":
                stop = e[3] + len(e[4])
                if not (0 <= e[3] < stop and (stop - 1) * B < n):
                    raise self._outside(e[3], stop)
        views = [self.load_items(lo, hi) for lo, hi in spans]
        self.charge_blocks(batch)
        return views

    def _batched(self) -> bool:
        """Whether this file's block I/Os may be charged in batches: no
        fault hook, and a store that cannot fail (a spilled file's can)."""
        return type(self) is BlockFile and self.disk.fault_hook is None

    def charge_blocks(self, batch: Sequence[Charge]) -> None:
        """Charge ``batch`` (:meth:`SimDisk.charge`, entries of any file on
        this disk; sanitizer-bracketed there).  Every block charge comes
        here."""
        self.disk.charge(batch)

    def clear(self) -> None:
        """Truncate to empty (metadata operation, not charged)."""
        self._init_store()
        self._n_items = 0

    # -- charge-free accessors (validation / tests only) -------------------

    def inspect_block(self, index: int) -> np.ndarray:
        """Charge-free read-only view of a block.  *Not* for algorithms."""
        lo = index * self.B
        return self.load_items(lo, lo + self.block_items(index))

    def load_items(self, start: int, stop: int) -> np.ndarray:
        """Charge-free payload of items ``[start, stop)``; *not* for
        algorithms, bar a plan that charges every block it covers."""
        if not 0 <= start <= stop <= self._n_items:
            raise IndexError(f"items [{start}, {stop}) outside the {self._n_items}-item file")
        if start == stop:
            return np.empty(0, dtype=self.dtype)
        return self._store_range(start, stop)

    def to_array(self) -> np.ndarray:
        """Charge-free copy of the whole file.  *Not* for algorithms."""
        arr = self.load_items(0, self._n_items)
        return arr if arr.base is None else arr.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockFile({self.name!r}, {self._n_items} items in {self.n_blocks} blocks)"


class BlockWriter:
    """Buffered item-stream writer: packs items into full B-item blocks.

    Pins one block (B items) of memory in ``mem`` while open.  Use as a
    context manager, or call :meth:`close` explicitly to flush the final
    partial block and release the buffer.  A ``with`` body that raised
    writes nothing more: its exit calls :meth:`abandon`, as every owner
    does after a raise, so a faulted write need not restore its staging.
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
        self._stage(arr, self.file.append_blocks)

    def write_charged(self, items: np.ndarray) -> None:
        """:meth:`write` for a caller that has charged every block write
        it completes (:meth:`BlockFile.charge_blocks`): stores, no charge."""
        self._stage(items, self.file.store_charged)

    @property
    def staged(self) -> int:
        """Items staged in the partial block, not yet stored."""
        return self._fill

    def _stage(self, arr: np.ndarray, store: Callable[[list[np.ndarray]], None]) -> None:
        """Top up the staged block, store it and the whole blocks after
        it as one span, stage the tail."""
        n = arr.size
        file = self.file
        B, fill = file.B, self._fill
        if fill + n < B:  # no block completes: stage it all
            self._buf[fill : fill + n] = arr
            self._fill = fill + n
            self.items_written += n
            return
        pos = B - fill if fill else 0
        end = pos + (n - pos) // B * B
        # Whole blocks go straight from the caller's array (the file
        # stores its own copy); only a partial tail is staged.
        span = [arr[pos:end]]
        if fill:  # top up the staged partial block first
            self._buf[fill:] = arr[:pos]
            span.insert(0, self._buf)
        store(span)  # a raise leaves the writer to be abandoned
        self._fill = n - end
        if end < n:
            self._buf[: n - end] = arr[end:]
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

    def __exit__(self, exc_type: object, *exc: object) -> None:
        # A body that raised writes nothing more: no flush, just release.
        if exc_type is None:
            self.close()
        else:
            self.abandon()


def plannable(*files: BlockFile) -> bool:
    """Whether a loop over ``files``' blocks may run as its plan: one
    batch of charges, the memory trajectory applied at once, the payload
    moved in bulk.  The files must share one disk (a batch is one disk's)
    and charge in batches (:meth:`BlockFile._batched`: no fault hook, so
    no charge raises midway, and no spill file).  On a bus that records
    reservations the plan puts the loop's acquires and releases in its
    batch (:func:`records_reservations`), so its rows are the loop's."""
    disk = files[0].disk
    return all(f.disk is disk and f._batched() for f in files)


def records_reservations(mem: MemoryManager) -> bool:
    """Whether a plan's batch carries its loop's reservation changes
    (``[n, in_use, node]`` entries): only where ``mem``'s bus records them."""
    bus = mem.bus
    return bus is not None and bus.captures_memory


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
        n = self.file.items_in(range(self.start, self.stop))
        out = np.empty(n, dtype=self.file.dtype)
        with self.mem.reserve(n):
            pos = 0
            for i in range(self.start, self.stop):
                blk = self.file.read_block(i)
                out[pos : pos + blk.size] = blk
                pos += blk.size
        return out
