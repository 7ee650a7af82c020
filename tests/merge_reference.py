"""The two-pass merge round, kept as the oracle.

``repro.extsort.multiway.merge_cursors`` visits each cursor once per
round; :func:`reference_merge_cursors` is the loop it replaced, kept
unchanged: every round rebuilds the buffer list (refilling the drained
cursors), reads every tail, and cuts every buffer with ``searchsorted``
through ``RunCursor._pop``.  The two must produce the same output through
the same operation stream — the same block I/Os, memory reservations,
releases and compute charges in the same order
(``tests/test_multiway.py::test_property_merge_loop_equals_reference``).
Both size their refills with the shared ``share_budget``; the multi-block
read itself is held to depth 1 by ``test_property_deep_refills_equal_one_block_refills``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.extsort.losertree import kway_merge_sorted
from repro.extsort.multiway import ComputeHook, RunCursor, share_budget
from repro.pdm.blockfile import BlockWriter
from repro.pdm.memory import MemoryManager


def reference_merge_cursors(
    cursors: Sequence[RunCursor],
    writer: BlockWriter,
    mem: MemoryManager,
    compute: ComputeHook = None,
) -> int:
    """Vectorised k-way merge; returns the number of items written."""
    active = [c for c in cursors if not c.exhausted]
    share_budget(active, mem)
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
