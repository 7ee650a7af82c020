"""Run formation for external merge sorting.

Two policies are provided:

* ``"load"`` — memory-load sorting: stream ``L`` items into core, sort
  them (numpy's default kind), write them out as one run.  Produces
  ``ceil(N / L)`` runs of length ``L`` (last one shorter).  This is the
  policy the paper's step-1 bound ``2 l_i (1 + ceil(log_m l_i))``
  assumes.
* ``"replacement"`` — replacement selection (Knuth 5.4.1): a selection
  heap of ``H`` items emits the smallest key not below the last emitted
  one; keys that can no longer extend the current run are frozen for the
  next.  On random input the expected run length is ``2H`` — about half
  the merge passes for the same memory (the run-policy ablation bench
  measures exactly this).

Runs are delivered through a sink callback so the caller (polyphase
distribution, balanced merge sort) chooses their physical placement
without an extra copy pass.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Literal, Optional

import numpy as np

from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryManager

RunPolicy = Literal["load", "replacement"]

#: ``compute`` callbacks receive abstract operation counts (comparisons);
#: the cluster layer converts them to model time.
ComputeHook = Optional[Callable[[float], None]]


def _sort_ops(n: int) -> float:
    """Comparison count charged for an in-core sort of n items."""
    if n <= 1:
        return float(n)
    return n * float(np.log2(n))


class RunSink:
    """Receives formed runs; implemented by the consumers of run formation."""

    def start_run(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def write(self, items: np.ndarray) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def end_run(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class CollectingSink(RunSink):
    """Writes each run to its own fresh :class:`BlockFile` on one disk."""

    def __init__(
        self, disk: SimDisk, B: int, dtype: "np.dtype | type", mem: MemoryManager
    ) -> None:
        self.disk = disk
        self.B = B
        self.dtype = dtype
        self.mem = mem
        self.runs: list[BlockFile] = []
        self._writer: Optional[BlockWriter] = None

    def start_run(self) -> None:
        f = self.disk.new_file(self.B, self.dtype, name=self.disk.next_file_name("run"))
        self.runs.append(f)
        self._writer = BlockWriter(f, self.mem)

    def write(self, items: np.ndarray) -> None:
        assert self._writer is not None, "start_run not called"
        self._writer.write(items)

    def end_run(self) -> None:
        assert self._writer is not None, "start_run not called"
        self._writer.close()
        self._writer = None

    def abort(self) -> None:
        """Release the open writer after a mid-run failure (no flush)."""
        if self._writer is not None:
            self._writer.abandon()
            self._writer = None


def form_runs(
    source: BlockFile,
    sink: RunSink,
    mem: MemoryManager,
    policy: RunPolicy = "load",
    compute: ComputeHook = None,
) -> int:
    """Form sorted runs from ``source`` into ``sink``; returns run count."""
    if policy not in ("load", "replacement"):
        raise ValueError(f"unknown run policy {policy!r}")
    try:
        if policy == "load":
            return _form_runs_load(source, sink, mem, compute)
        return _form_runs_replacement(source, sink, mem, compute)
    except BaseException:
        abort = getattr(sink, "abort", None)
        if abort is not None:
            abort()
        raise


def _load_size(mem: MemoryManager, B: int) -> int:
    """Largest memory load leaving room for one output block."""
    if mem.capacity is None:
        return max(B, 1 << 22)
    L = mem.available - B
    if L < B:
        raise ValueError(
            f"memory budget too small for run formation: available="
            f"{mem.available}, B={B} (need >= 2 blocks)"
        )
    return L


def _iter_loads(source: BlockFile, L: int, mem: MemoryManager) -> Iterator[np.ndarray]:
    """Stream the source in consecutive loads of about L items.

    Loads are whole numbers of blocks (block-granular reads, one batch
    charge per load), pinned in memory for the duration of each yield.
    Each load is a fresh array the consumer owns (it may sort it in place).
    """
    blocks_per_load = max(1, L // source.B)
    i = 0
    while i < source.n_blocks:
        j = min(i + blocks_per_load, source.n_blocks)
        with mem.reserve(source.items_in(range(i, j))):
            yield source.read_blocks(i, j)
        i = j


def _form_runs_load(
    source: BlockFile, sink: RunSink, mem: MemoryManager, compute: ComputeHook
) -> int:
    L = _load_size(mem, source.B)
    n_runs = 0
    for load in _iter_loads(source, L, mem):
        load.sort()
        if compute is not None:
            compute(_sort_ops(load.size))
        sink.start_run()
        sink.write(load)
        sink.end_run()
        n_runs += 1
    return n_runs


def _form_runs_replacement(
    source: BlockFile, sink: RunSink, mem: MemoryManager, compute: ComputeHook
) -> int:
    """Replacement selection with a (run_epoch, key) heap.

    Heap capacity ``H = available - 2B`` (one input block, one output
    block).  Items whose key is below the last emitted key are pushed
    with the next run's epoch ("frozen"), so the heap never violates the
    current run's ordering.
    """
    B = source.B
    if mem.capacity is not None:
        H = mem.available - 2 * B
        if H < 1:
            raise ValueError(
                f"memory budget too small for replacement selection: "
                f"available={mem.available}, need > 2*B={2 * B}"
            )
    else:
        H = 1 << 20

    heap: list[tuple[int, int]] = []  # (epoch, key) — ints compare fast

    def input_items() -> Iterator[np.ndarray]:
        for i in range(source.n_blocks):
            with mem.reserve(source.block_items(i)):
                yield source.read_block(i)

    blocks = input_items()
    pending = np.empty(0, dtype=source.dtype)
    pending_pos = 0
    exhausted = False

    def refill() -> None:
        nonlocal pending, pending_pos, exhausted
        if pending_pos < pending.size or exhausted:
            return
        try:
            pending = next(blocks)
            pending_pos = 0
        except StopIteration:
            exhausted = True

    # Prime the heap.
    with mem.reserve(H):
        refill()
        while len(heap) < H and not (exhausted and pending_pos >= pending.size):
            heapq.heappush(heap, (0, int(pending[pending_pos])))
            pending_pos += 1
            refill()
        if compute is not None:
            compute(_sort_ops(len(heap)))

        n_runs = 0
        epoch = 0
        out: Optional[BlockWriter] = None
        ops = 0.0
        while heap:
            e, key = heapq.heappop(heap)
            ops += np.log2(max(2, len(heap) + 1))
            if e != epoch or out is None:
                if out is not None:
                    out.flush()
                    sink.end_run()
                sink.start_run()
                out = _SinkItemWriter(sink, source.dtype)
                epoch = e
                n_runs += 1
            out.write_one(key)
            refill()
            if not (exhausted and pending_pos >= pending.size):
                nxt = int(pending[pending_pos])
                pending_pos += 1
                new_epoch = e if nxt >= key else e + 1
                heapq.heappush(heap, (new_epoch, nxt))
                ops += np.log2(max(2, len(heap)))
        if out is not None:
            out.flush()
            sink.end_run()
        if compute is not None:
            compute(ops)
    return n_runs


class _SinkItemWriter:
    """Small item buffer in front of a sink (keeps sink.write array-based)."""

    _CHUNK = 1024

    def __init__(self, sink: RunSink, dtype: np.dtype) -> None:
        self.sink = sink
        self.dtype = dtype
        self._buf: list[int] = []

    def write_one(self, item: int) -> None:
        self._buf.append(item)
        if len(self._buf) >= self._CHUNK:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            # explicit dtype: inferred, uint64 keys either side of 2**63 become float64
            self.sink.write(np.array(self._buf, dtype=self.dtype))
            self._buf.clear()

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.flush()
        except Exception:  # repro: noqa REP007(defensive __del__ flush; teardown order is arbitrary)
            pass
