"""Hypothesis stateful tests on the storage machinery's invariants.

Drives random interleavings of writers, cursors and memory reservations
and checks the global invariants: accounting balances, files stay
compactly packed, cursors deliver exactly their range in order.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.extsort.multiway import RunCursor, RunRef
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager


class StorageMachine(RuleBasedStateMachine):
    """Random writer/cursor/file interleavings on one disk."""

    B = 8

    @initialize()
    def setup(self):
        self.disk = SimDisk(DiskParams(seek_time=1e-5, bandwidth=1e9))
        self.mem = MemoryManager(None)
        self.files: list[BlockFile] = []
        self.expected: list[list[int]] = []  # mirror of each file's items
        self.writers: list[tuple[int, BlockWriter]] = []
        self.cursors: list[tuple[int, RunCursor, list[int]]] = []

    # -- rules ---------------------------------------------------------------

    @rule()
    def new_file(self):
        self.files.append(BlockFile(self.disk, self.B))
        self.expected.append([])

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def open_writer(self, data):
        idx = data.draw(st.integers(0, len(self.files) - 1))
        # Only one writer per file, and only while no cursor reads it and
        # the file is compactly packed (not ended by another writer).
        if any(i == idx for i, _ in self.writers):
            return
        f = self.files[idx]
        if f.n_blocks and f.inspect_block(f.n_blocks - 1).size < self.B:
            return
        self.writers.append((idx, BlockWriter(f, self.mem)))

    @precondition(lambda self: self.writers)
    @rule(data=st.data(), items=st.lists(st.integers(0, 2**32 - 1), max_size=30))
    def write_items(self, data, items):
        wi = data.draw(st.integers(0, len(self.writers) - 1))
        idx, w = self.writers[wi]
        w.write(np.asarray(items, dtype=np.uint32))
        self.expected[idx].extend(int(x) & 0xFFFFFFFF for x in items)

    @precondition(lambda self: self.writers)
    @rule(data=st.data())
    def close_writer(self, data):
        wi = data.draw(st.integers(0, len(self.writers) - 1))
        _idx, w = self.writers.pop(wi)
        w.close()

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def open_cursor(self, data):
        idx = data.draw(st.integers(0, len(self.files) - 1))
        if any(i == idx for i, _ in self.writers):
            return  # don't read files mid-write
        f = self.files[idx]
        if f.n_items == 0:
            return
        lo = data.draw(st.integers(0, f.n_items - 1))
        hi = data.draw(st.integers(lo, f.n_items))
        ref = RunRef(f, lo, hi)
        self.cursors.append((idx, RunCursor(ref, self.mem), self.expected[idx][lo:hi]))

    @precondition(lambda self: self.cursors)
    @rule(data=st.data(), n=st.integers(1, 20))
    def advance_cursor(self, data, n):
        ci = data.draw(st.integers(0, len(self.cursors) - 1))
        idx, cur, remaining = self.cursors[ci]
        if cur.exhausted:
            self.cursors.pop(ci)
            return
        got = cur.take_upto(n)
        assert list(got) == remaining[: got.size]
        self.cursors[ci] = (idx, cur, remaining[got.size :])

    @precondition(lambda self: self.cursors)
    @rule(data=st.data())
    def drop_cursor(self, data):
        ci = data.draw(st.integers(0, len(self.cursors) - 1))
        _, cur, _ = self.cursors.pop(ci)
        cur.drop()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def files_match_mirror(self):
        for f, exp in zip(self.files, self.expected):
            # Items the writers have flushed are a prefix of the mirror.
            flushed = f.to_array()
            assert list(flushed) == exp[: flushed.size]

    @invariant()
    def compact_packing(self):
        for f in self.files:
            for b in range(max(0, f.n_blocks - 1)):
                assert f.inspect_block(b).size == self.B

    @invariant()
    def accounting_is_bounded(self):
        # Every open writer holds exactly B; cursors hold at most B each.
        lower = len(self.writers) * self.B
        upper = lower + len(self.cursors) * self.B
        assert lower <= self.mem.in_use <= upper

    def teardown(self):
        for _, w in self.writers:
            w.close()
        for _, cur, _ in self.cursors:
            cur.drop()
        assert self.mem.in_use == 0


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
