"""Block-buffered k-way merging of sorted runs under a memory budget.

One production engine and one reference, identical observable semantics
(same output, same block I/O; ``tests/test_multiway.py`` holds them to it,
and holds the production loop to the op stream of the two-pass loop it
replaced, ``tests/merge_reference.py``):

* :func:`merge_cursors` — what every sort runs.  Each run buffers its
  whole-block share of the budget (:func:`share_budget`); per round, the
  safe horizon ``t`` is the minimum of the per-run buffer maxima; every
  buffered item ``<= t`` can be emitted this round (any unseen item of
  run *i* is ``>=`` its buffer max ``>= t``), so the round cuts every
  buffer at ``t``, merges the cut-off heads in core
  (:func:`~repro.extsort.losertree.kway_merge_sorted`) and streams the
  chunk out.  Two paths make the same charges in the same order:

  - *The round loop.*  A round is one pass over the cursors: the
    horizon comes from tails cached at refill; a buffer whose tail
    equals ``t`` drains whole (keys are integers, so no NaN), one whose
    head exceeds ``t`` is skipped, any other is cut by one
    ``searchsorted`` and releases its cut in cursor order; then the
    chunk is written and the drained cursors are refilled, in cursor
    order.  Each drained buffer is cleared during the cut, before the
    write and any refill, so a fault in either leaves no stale buffer
    for :meth:`RunCursor.drop` to release a second time.  At most one
    round per block: O(blocks·k) Python-level work.
  - *The plan* (:func:`_merge_planned`).  Key each refill unit (one
    ``_refill``: ``depth`` blocks clamped at the run's end, the first
    maybe mid-block or already pinned) by (tail, layer), the layer
    counting its cursor's earlier units of that tail.  While the horizon
    is ``t`` no buffer has a smaller tail, so each cursor with tail-``t``
    units is at its first and each such round drains one: round *r*
    drains the units of the *r*-th distinct key, then refills their
    successors in cursor order; cursor *i* has emitted all it loaded if it
    drained a unit, else ``items_i.searchsorted(t_r, "right")``.  The plan
    applies that memory trajectory at once, replays every block and
    compute charge in order as one kernel batch (a compute hook other
    than the node's own, or a bus that records compute, splits it at
    each compute call), then sorts and stores the payload.  On a bus that
    records reservations the batch also carries the loop's acquires and
    releases, so the plan publishes the loop's rows.

  :func:`_plans` keeps the loop where :func:`~repro.pdm.blockfile.plannable`
  rules a plan out — the files span disks (a batch is one disk's), a
  disk involved has a fault hook (a raising charge must leave the loop's
  partial state) or a file spills to the host (an O(M) host footprint) —
  and when the merge reads under ``_PLAN_FLOOR`` blocks.
* :func:`merge_cursors_itemwise` — the textbook loser-tree merge
  (ceil(log2 k) comparisons per item), kept as the reference the
  differential tests and the micro-benchmark compare against.  Only
  :func:`merge_runs` can select it (``engine="itemwise"``); no sort
  and no config passes that on.

A k-way merge needs k input buffers of at least one block plus one
output block in core: ``k <= M/B - 1`` (:func:`max_merge_order`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.extsort.losertree import LoserTree, kway_merge_sorted
from repro.pdm.blockfile import BlockFile, BlockWriter, plannable, records_reservations
from repro.pdm.disk import Blocks, Charge
from repro.pdm.memory import MemoryManager

ComputeHook = Optional[Callable[[float], None]]


def max_merge_order(mem: MemoryManager, B: int) -> int:
    """Largest k for a k-way merge: k input blocks + 1 output block <= M.
    A smaller k leaves each run a deeper buffer (:func:`share_budget`)."""
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

    @staticmethod
    def whole(file: BlockFile) -> "RunRef":
        return RunRef(file, 0, file.n_items)


class RunCursor:
    """Buffered forward cursor over one sorted run.

    Each refill reads ``depth`` consecutive blocks of the run (one unless
    :func:`share_budget` gave it more; never past the run's last block),
    each read charged to the disk, and pins the buffered-but-unconsumed
    items in the memory manager.  Item addressing exploits the BlockFile
    invariant that every block except the last holds exactly B items.
    """

    def __init__(self, run: RunRef, mem: MemoryManager) -> None:
        self.run = run
        self.mem = mem
        self._pos = run.start  # next unread item offset in the file
        #: Unconsumed tail of the current refill (never empty), or None.
        self._buf: Optional[np.ndarray] = None
        #: Blocks per refill (set only by :func:`share_budget`).
        self._depth = 1
        self._end_block = -(-run.stop // run.file.B)  # past the run's last block

    @property
    def exhausted(self) -> bool:
        return self._buf is None and self._pos >= self.run.stop

    def _fill(self) -> None:
        """Ensure a non-empty buffer or exhaustion."""
        if self._buf is None and self._pos < self.run.stop:
            self._refill()

    def _refill(self) -> np.ndarray:
        """Read and pin the run's next ``depth`` blocks (the buffer must be
        drained and the run not exhausted); returns the new buffer."""
        file = self.run.file
        B = file.B
        block_index = self._pos // B
        last = block_index + self._depth
        if last > self._end_block:  # an `if`, not min(): no call per refill
            last = self._end_block
        if last > block_index + 1:  # one batch read; one block as read
            block = file.read_blocks(block_index, last)
        else:
            block = file.read_block(block_index)
        lo = self._pos - block_index * B
        hi = min(block.size, self.run.stop - block_index * B)
        self.mem.acquire(hi - lo)  # before publishing: drop() releases only what is pinned
        self._buf = buf = block[lo:hi]
        self._pos = block_index * B + hi
        return buf

    def _pop(self, n: int) -> np.ndarray:
        """Consume and unpin the first ``n`` buffered items (maybe none)."""
        buf = self._buf
        assert buf is not None, "pop from a drained cursor"
        if n:
            self.mem.release(n)
        self._buf = buf[n:] if n < buf.size else None
        return buf[:n]

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
        buf = self._buf
        if buf is None:
            if self._pos >= self.run.stop:
                return np.empty(0, dtype=self.run.file.dtype)
            buf = self._refill()
        n = min(n, buf.size)
        self.mem.release(n)
        self._buf = buf[n:] if n < buf.size else None
        return buf[:n]

    def take_planned(self, n: int) -> Optional[np.ndarray]:
        """Up to ``n`` items across refills, as a loop of :meth:`take_upto`
        calls pops them (``redistribute.take_chunk``), planned: the
        refills' blocks charged as one read entry (per refill, between the
        loop's acquire and release rows, where the bus records
        reservations), their memory applied at once.  None, with nothing
        done, where the loop must run: nothing to read, a file
        :func:`plannable` rules out, or a peak over M (the loop raises
        there)."""
        file, stop, pos, buf = self.run.file, self.run.stop, self._pos, self._buf
        held = 0 if buf is None else buf.size
        need = min(n - held, stop - pos)  # items the refills must supply
        if need <= 0 or not plannable(file):
            return None
        B, depth = file.B, self._depth
        first = pos // B
        # The refills: ``depth`` blocks each from ``first``, clamped at the run's end.
        units = -(-((pos + need - 1) // B + 1 - first) // depth)
        last = min(first + units * depth, self._end_block)
        starts = [pos, *range((first + depth) * B, last * B, depth * B)]
        ends = [*starts[1:], min(last * B, stop)]
        rest = ends[-1] - pos - need  # left buffered
        mem = self.mem
        use = mem.in_use
        peak = use - held + max(e - s for s, e in zip(starts, ends))
        if not mem.apply_planned(peak, len(starts), rest - held):
            return None
        if records_reservations(mem):  # the held part's release, then per refill
            who, use, left = mem.owner, use - held, need
            entries: list[Charge] = []
            if held:
                entries.append([-held, use, who])
            for b, s, e in zip(range(first, last, depth), starts, ends):
                size = e - s
                took = min(left, size)
                entries += [
                    file.reads(b, min(b + depth, last)),
                    [size, use + size, who],
                    [-took, use + size - took, who],
                ]
                use, left = use + size - took, left - took
        else:
            entries = [file.reads(first, last)]
        (payload,) = file.read_planned(entries, (pos, ends[-1]))
        taken = payload[:need]
        self._buf = payload[need:] if rest else None
        self._pos = ends[-1]
        return taken if buf is None else np.concatenate((buf, taken))

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


def share_budget(cursors: Sequence[RunCursor], mem: MemoryManager) -> None:
    """Give each cursor an equal whole-block share of the free budget."""
    if mem.capacity is None:
        return
    for c in cursors:
        c._depth = max(1, mem.available // (len(cursors) * c.run.file.B))


def merge_cursors(
    cursors: Sequence[RunCursor],
    writer: BlockWriter,
    mem: MemoryManager,
    compute: ComputeHook = None,
) -> int:
    """Vectorised k-way merge; returns the number of items written."""
    active = [c for c in cursors if not c.exhausted]
    share_budget(active, mem)
    log_k = float(np.log2(max(2, len(active))))
    if active and _plans(active, writer, mem):
        total = _merge_planned(active, writer, mem, compute, log_k)
        if total is not None:
            return total
    # Parallel to ``active``: each buffer and its tail, read once per refill.
    bufs = [c._buf if c._buf is not None else c._refill() for c in active]
    tails = [buf[-1] for buf in bufs]
    release = mem.release
    total = 0
    while active:
        t = min(tails)  # a numpy scalar: searchsorted takes it fastest
        parts = []
        drained = []
        n = 0
        for i, buf in enumerate(bufs):
            if tails[i] == t:  # integer keys: equal tail, whole buffer
                cut = buf.size
                parts.append(buf)
                active[i]._buf = None
                drained.append(i)
            elif buf[0] > t:
                continue
            else:
                cut = int(buf.searchsorted(t, "right"))
                parts.append(buf[:cut])
                active[i]._buf = bufs[i] = buf[cut:]
            release(cut)
            n += cut
        mem.acquire(n)
        try:
            # A lone part is already the chunk; the writer copies it out.
            writer.write(parts[0] if len(parts) == 1 else kway_merge_sorted(parts))
        finally:
            release(n)
        total += n
        if compute is not None:
            compute(n * log_k)
        # Drained buffers are already None: a fault here strands none.
        exhausted = False
        for i in drained:
            c = active[i]
            if c._pos < c.run.stop:
                bufs[i] = buf = c._refill()
                tails[i] = buf[-1]
            else:
                exhausted = True
        if exhausted:
            live = [i for i, c in enumerate(active) if c._buf is not None]
            active = [active[i] for i in live]
            bufs = [bufs[i] for i in live]
            tails = [tails[i] for i in live]
    return total


#: Below this many blocks a plan does not pay (B = 256: 4 × 4 break even).
_PLAN_FLOOR = 16
_SORT_CHUNK = 1 << 15  #: items per payload sort: cache-sized chunks sort faster


def _plans(active: Sequence[RunCursor], writer: BlockWriter, mem: MemoryManager) -> bool:
    """Whether :func:`merge_cursors` plans this merge (module docstring)."""
    if not plannable(*(c.run.file for c in active), writer.file):
        return False
    blocks = sum(c._end_block - c._pos // c.run.file.B for c in active if c._pos < c.run.stop)
    return blocks >= _PLAN_FLOOR


def _merge_planned(
    active: Sequence[RunCursor],
    writer: BlockWriter,
    mem: MemoryManager,
    compute: ComputeHook,
    log_k: float,
) -> Optional[int]:
    """The round loop's merge planned from its block tails: its charges
    replayed in the loop's order, its payload moved in bulk.  None, with
    nothing done, if the loop would overflow M (it raises there)."""
    runs: list[np.ndarray] = []  # each cursor's items still to merge
    tails: list[np.ndarray] = []  # views of the units' tails, in unit order
    ends: list[int] = []  # per refill unit, cursor by cursor: where it ends in its cursor's items
    reads: list[Optional[Blocks]] = []  # the blocks it reads
    owner: list[int] = []  # its cursor
    firsts: list[int] = []  # each cursor's first unit
    pinned = [c._buf.size for c in active if c._buf is not None]
    for i, c in enumerate(active):
        f, pos, stop, last = c.run.file, c._pos, c.run.stop, c._end_block
        firsts.append(len(ends))
        parts: list[np.ndarray] = []
        size = 0
        if c._buf is not None:  # the first unit is the pinned buffer
            parts.append(c._buf)
            size = c._buf.size
            ends.append(size)
            reads.append(None)
            tails.append(c._buf[-1:])
        if pos < stop:  # _refill's units: each ends where the next starts
            loaded = f.load_items(pos, stop)  # repro: noqa REP005(the replay below charges every block it covers)
            parts.append(loaded)
            B, depth, itemsize, name = f.B, c._depth, f.itemsize, f.name
            blocks = range(pos // B, last, depth)
            whole = [B] * depth  # shared: no charge writes to its sizes
            reads += [("read", itemsize, name, b, whole) for b in blocks[:-1]]
            reads.append(f.reads(blocks[-1], last))  # may end short: the run's end, or the file's
            inner = range((blocks.start + depth) * B - pos, last * B - pos, depth * B)  # in ``loaded``
            ends += range(inner.start + size, inner.stop + size, inner.step)
            size += stop - pos
            ends.append(size)
            # The inner units' tails as one strided view, the last's as another.
            tails += (loaded[inner.start - 1 : inner.stop - 1 : inner.step], loaded[-1:])
        owner += [i] * (len(ends) - firsts[-1])
        runs.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
    k = len(active)
    end, cursor, tail = np.array(ends), np.array(owner), np.concatenate(tails)
    same = cursor[1:] == cursor[:-1]  # unit u + 1 is unit u's cursor's next
    grows = np.append(np.where(same, np.diff(end), 0), 0)  # the items loaded once unit u drains
    unit = np.arange(end.size)
    group = np.ones(end.size, dtype=bool)
    group[1:] = ~same | (tail[1:] != tail[:-1])
    layer = unit - np.maximum.accumulate(np.where(group, unit, 0))
    # Rounds: the distinct (tail, layer) keys in order, ties in cursor order.
    order = np.lexsort((cursor, layer, tail))  # repro: noqa REP002(orders the refill units, one key per unit: block metadata, not items)
    ts, ls = tail[order], layer[order]
    new = np.ones(end.size, dtype=bool)
    new[1:] = (ts[1:] != ts[:-1]) | (ls[1:] != ls[:-1])
    round_sorted = np.cumsum(new) - 1
    R = int(round_sorted[-1]) + 1
    # Round r: cursor i has emitted its items <= the horizon, or, where it
    # drains a unit, exactly through that unit's end (later ones may tie).
    horizons = ts[new]
    out_by = np.array([a.searchsorted(horizons, "right") for a in runs])
    out_by[cursor[order], round_sorted] = end[order]
    emitted = np.zeros(R + 1, dtype=np.intp)  # by the end of round r - 1
    emitted[1:] = out_by.sum(axis=0)
    # Items loaded by round r: the first units, then each earlier refill's (never empty).
    grown = grows[order]
    more = grown > 0
    held = sum(ends[u] for u in firsts) + (np.cumsum(grown) - grown)[new]
    use = mem.in_use
    peak = use - sum(pinned) + int((held - emitted[:-1]).max())
    if not mem.apply_planned(peak, end.size - len(pinned) + R, -sum(pinned)):
        return None
    for c in active:
        c._buf, c._pos = None, c.run.stop
    # Replay: first units' reads; per round its writes, compute, refills.
    out = writer.file
    done = (out.n_blocks + (writer.staged + emitted) // out.B).tolist()
    n = (emitted[1:] - emitted[:-1]).tolist()
    refills = [*firsts, *(order[more] + 1).tolist()]
    by_round = [0, *(k + round_sorted[more].searchsorted(np.arange(R + 1))).tolist()]
    node = out.disk.owner  # the batch carries its node's own compute
    carry = node is not None and compute == node.compute
    itemsize, name, B = out.itemsize, out.name, out.B
    logged, who = records_reservations(mem), mem.owner
    if logged:  # the loop's reservation rows: each unit's size, each round's cuts
        begin = np.r_[0, end[:-1]]
        begin[firsts] = 0
        unit_items = (end - begin).tolist()
        cuts = np.diff(out_by, axis=1, prepend=0).T.tolist()
    batch: list[Charge] = []
    for r in range(R + 1):
        if r:
            m = n[r - 1]
            if logged:  # the cuts' releases in cursor order, the chunk's acquire
                for d in cuts[r - 1]:
                    if d:
                        use -= d
                        batch.append([-d, use, who])
                batch.append([m, use + m, who])
            if done[r] > done[r - 1]:
                batch.append(("write", itemsize, name, done[r - 1], [B] * (done[r] - done[r - 1])))
            if logged:
                batch.append([-m, use, who])
            if carry:
                batch.append(m * log_k)
            elif compute is not None:
                out.charge_blocks(batch)
                batch = []
                compute(m * log_k)
        # The round's refills (each read, then its acquire); a pinned buffer's unit reads nothing.
        for u in refills[by_round[r] : by_round[r + 1]]:
            if reads[u] is not None:
                batch.append(reads[u])
                if logged:
                    use += unit_items[u]
                    batch.append([unit_items[u], use, who])
    out.charge_blocks(batch)
    lo, prev = [0] * k, 0
    for r in [*emitted.searchsorted(range(_SORT_CHUNK, int(emitted[-1]), _SORT_CHUNK)), R]:
        if r > prev:
            hi = out_by[:, r - 1].tolist()
            parts = [a[i:j] for a, i, j in zip(runs, lo, hi)]
            writer.write_charged(parts[0] if k == 1 else kway_merge_sorted(parts))
            lo, prev = hi, r
    return int(emitted[-1])


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
