"""Polyphase merge sort (Knuth vol. 3, §5.4.2) — the paper's sequential engine.

Polyphase merging uses ``T`` files to obtain a ``(T-1)``-way merge
*without* a separate redistribution of runs after every pass: initial
runs are dealt onto ``T-1`` files following a generalized-Fibonacci
distribution (padded with *dummy* runs), and each phase merges
``min_j(runs on file j)`` groups of ``T-1`` runs onto the single idle
file, emptying exactly one input file, which becomes the next phase's
output.  The paper (step 1 / step 5) bounds its I/O by
``2 l_i (1 + ceil(log_m l_i))`` item I/Os; Table 3 runs it with "15
intermediate files".

Implementation notes
--------------------
* A *tape* is a queue of :class:`~repro.extsort.multiway.RunRef` plus a
  dummy-run counter, backed by one physical
  :class:`~repro.pdm.blockfile.BlockFile` for the runs written while the
  tape was the output; initial runs live in their own files, so the
  distribution step costs no copy pass.
* A merge needs ``T-1`` input buffers plus one output buffer, so ``T``
  may not exceed ``m = M/B``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.extsort.multiway import RunCursor, RunRef, merge_cursors
from repro.extsort.runs import CollectingSink, ComputeHook, RunPolicy, form_runs
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryManager


def fibonacci_distribution(n_runs: int, n_tapes: int) -> tuple[list[int], int]:
    """Perfect polyphase distribution for ``n_runs`` over ``T-1`` input tapes.

    Returns ``(counts, level)`` where ``counts`` (length ``T-1``, sorted
    descending) is the smallest perfect distribution with
    ``sum(counts) >= n_runs``.  The number of dummy runs to add is
    ``sum(counts) - n_runs``; ``level`` equals the number of merge phases
    a perfect input needs.
    """
    k = n_tapes - 1
    if k < 2:
        raise ValueError(f"polyphase needs at least 3 tapes, got {n_tapes}")
    if n_runs <= 1:
        return [n_runs] + [0] * (k - 1), 0
    a = [1] + [0] * (k - 1)
    level = 0
    while sum(a) < n_runs:
        a = [a[0] + a[i + 1] for i in range(k - 1)] + [a[0]]
        level += 1
    return a, level


@dataclass
class _Tape:
    """One polyphase tape: queued runs, dummies, and a physical file."""

    file: BlockFile
    runs: deque = field(default_factory=deque)
    dummies: int = 0

    @property
    def total(self) -> int:
        return len(self.runs) + self.dummies

    @property
    def real(self) -> int:
        return len(self.runs)


@dataclass
class PolyphaseResult:
    """Outcome of :func:`polyphase_sort`."""

    output: BlockFile
    n_items: int
    n_initial_runs: int
    n_tapes: int
    n_phases: int
    n_dummy_runs: int


def merge_blocks(available: int, B: int) -> int:
    """Blocks ``m = available // B`` of a budget; ``ValueError`` below 3."""
    m = available // B
    if m < 3:
        raise ValueError(
            f"memory budget of {available} items (m={m} blocks) is too "
            "small for external merging; need at least 3 blocks"
        )
    return m


def polyphase_sort(
    source: BlockFile,
    disk: SimDisk,
    mem: MemoryManager,
    n_tapes: Optional[int] = None,
    run_policy: RunPolicy = "load",
    compute: ComputeHook = None,
) -> PolyphaseResult:
    """Sort ``source`` into a fresh file on ``disk`` with polyphase merging.

    Parameters
    ----------
    source:
        Unsorted input file (left untouched).
    disk:
        Device for run files, tape files and the output.
    mem:
        Memory budget; must allow at least 3 blocks.
    n_tapes:
        Number of files T (merge arity T-1).  Defaults to ``min(m, 8)``;
        capped at ``m = M/B`` so the merge fits in memory.
    run_policy:
        ``"load"`` (memory-load sorting) or ``"replacement"``.
    compute:
        Optional hook receiving abstract comparison counts, for the
        cluster time model.
    """
    B = source.B
    m = merge_blocks(mem.available, B) if mem.capacity is not None else 1 << 16
    T = min(m, 8) if n_tapes is None else n_tapes
    if T > m:
        raise ValueError(f"n_tapes={T} exceeds the memory budget (m={m} blocks)")
    if T < 3:
        raise ValueError(f"polyphase needs at least 3 tapes, got {T}")

    # -- run formation ------------------------------------------------------
    sink = CollectingSink(disk, B, source.dtype, mem)
    n_runs = form_runs(source, sink, mem, policy=run_policy, compute=compute)

    if n_runs == 0:
        empty = disk.new_file(B, source.dtype, name=disk.next_file_name("sorted"))
        return PolyphaseResult(empty, 0, 0, T, 0, 0)
    if n_runs == 1:
        out = sink.runs[0]
        return PolyphaseResult(out, out.n_items, 1, T, 0, 0)

    # -- distribution (logical: no copy pass) -------------------------------
    counts, _level = fibonacci_distribution(n_runs, T)
    n_dummies = sum(counts) - n_runs
    tapes = [
        _Tape(disk.new_file(B, source.dtype, name=disk.next_file_name("tape")))
        for _ in range(T)
    ]
    run_iter = iter(sink.runs)
    dummies_left = n_dummies
    for j, want in enumerate(counts):
        # Spread dummies as evenly as possible over the input tapes,
        # never exceeding a tape's quota (Knuth: dummies merge first).
        share = min(want, -(-dummies_left // (len(counts) - j)))
        tapes[j].dummies = share
        dummies_left -= share
        for _ in range(want - share):
            f = next(run_iter)
            tapes[j].runs.append(RunRef.whole(f))
    assert dummies_left == 0

    # -- merge phases --------------------------------------------------------
    out_idx = T - 1  # the idle tape
    n_phases = 0
    while sum(t.real for t in tapes) > 1 or tapes[out_idx].real > 0:
        inputs = [t for i, t in enumerate(tapes) if i != out_idx]
        out_tape = tapes[out_idx]
        phase_merges = min(t.total for t in inputs)
        if phase_merges == 0:
            raise RuntimeError("polyphase phase made no progress (bad distribution)")
        boundaries: list[tuple[int, int]] = []
        out_dummies = 0
        with BlockWriter(out_tape.file, mem) as writer:
            for _ in range(phase_merges):
                refs: list[RunRef] = []
                for t in inputs:
                    if t.dummies > 0:
                        t.dummies -= 1
                    else:
                        refs.append(t.runs.popleft())
                if not refs:
                    out_dummies += 1
                    continue
                start = writer.items_written
                cursors = [RunCursor(r, mem) for r in refs]
                try:
                    merge_cursors(cursors, writer, mem, compute)
                finally:
                    for c in cursors:
                        c.drop()
                boundaries.append((start, writer.items_written))
                _reclaim_consumed(refs, tapes)
        for start, stop in boundaries:
            out_tape.runs.append(RunRef(out_tape.file, start, stop))
        out_tape.dummies += out_dummies
        n_phases += 1
        # The minimal input tape(s) emptied: reclaim them all, make one
        # the next output (linear-space discipline).
        emptied = [i for i, t in enumerate(tapes) if i != out_idx and t.total == 0]
        if not emptied:
            raise RuntimeError("no tape emptied during polyphase phase")
        for i in emptied:
            tapes[i].file.clear()
        out_idx = emptied[0]

    # The single surviving run fills its file alone (tests/test_polyphase.py
    # checks 2-120 initial runs on 3-8 tapes), so it is the output as is.
    out = next(t for t in tapes if t.real == 1).file
    return PolyphaseResult(out, out.n_items, n_runs, T, n_phases, n_dummies)


def _reclaim_consumed(refs: list[RunRef], tapes: list[_Tape]) -> None:
    """Free the payload of fully-consumed initial run files.

    Tape files are reclaimed when their tape empties; initial run files
    (one run each, not a tape file) can be dropped right after their
    single consumption.
    """
    tape_files = {id(t.file) for t in tapes}
    for r in refs:
        if id(r.file) not in tape_files and r.start == 0 and r.stop == r.file.n_items:
            r.file.clear()


def theoretical_phase_count(n_runs: int, n_tapes: int) -> int:
    """Phases a perfect distribution needs (for tests/bench reporting)."""
    _, level = fibonacci_distribution(n_runs, n_tapes)
    return level


def polyphase_item_io_bound(n_items: int, n_runs: int, n_tapes: int) -> float:
    """Loose upper bound on item I/Os: ``2 N (1 + phases)``.

    Each phase moves at most all N items once (read + write); polyphase
    moves strictly less in all but the last phase, so measured counters
    must come in under this.
    """
    return 2.0 * n_items * (1 + theoretical_phase_count(n_runs, n_tapes))
