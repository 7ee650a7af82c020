"""Hypothesis stateful test: the PDM layer under injected disk faults.

Random interleavings of BlockFile writers, run cursors and fault
arming/disarming on one disk.  The invariants the machine enforces are
the fault subsystem's core guarantees:

* **atomic block I/O** — a faulted write leaves the file unchanged (no
  phantom blocks), a faulted read charges nothing;
* **consistent accounting** — the armed faults' ``FaultCounters`` and
  the bus's ``FaultInjected`` rows count exactly the observed typed
  errors, and the block/item counters never move on a faulted op;
* **balanced memory** — reservations stay bounded while open and return
  to zero at teardown, no matter where a fault interrupted an operation.
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
from repro.faults import DiskFault, DiskFaultError, install_disk_faults
from repro.obs.bus import TelemetryBus
from repro.obs.events import FaultInjected
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager


class FaultyStorageMachine(RuleBasedStateMachine):
    """Writer/cursor interleavings with faults armed and disarmed live."""

    B = 8

    @initialize()
    def setup(self):
        self.disk = SimDisk(DiskParams(seek_time=1e-5, bandwidth=1e9))
        self.disk.bus = TelemetryBus()  # fault rows are recorded at every level
        self.armed = []  # the FaultCounters of every arming
        self.mem = MemoryManager(None)
        self.files: list[BlockFile] = []
        self.expected: list[list[int]] = []  # mirror of each file's items
        self.writers: list[tuple[int, BlockWriter]] = []
        self.cursors: list[tuple[int, RunCursor, list[int]]] = []
        self.observed_faults = 0  # typed errors we caught

    # -- fault arming --------------------------------------------------------

    @rule(after_ios=st.integers(0, 40), count=st.integers(1, 3))
    def arm_fault(self, after_ios, count):
        """(Re)arm the disk: the k-th I/O from now will fault."""
        self.armed.append(install_disk_faults(
            self.disk, [DiskFault(after_ios=after_ios, count=count)]
        ))

    @rule()
    def disarm(self):
        self.disk.fault_hook = None

    # -- file / writer rules -------------------------------------------------

    @rule()
    def new_file(self):
        self.files.append(BlockFile(self.disk, self.B))
        self.expected.append([])

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def open_writer(self, data):
        idx = data.draw(st.integers(0, len(self.files) - 1))
        if any(i == idx for i, _ in self.writers):
            return  # one writer per file
        f = self.files[idx]
        if f.n_blocks and f.inspect_block(f.n_blocks - 1).size < self.B:
            return  # compact packing: can't append after a partial block
        self.writers.append((idx, BlockWriter(f, self.mem)))

    @precondition(lambda self: self.writers)
    @rule(data=st.data(), items=st.lists(st.integers(0, 2**32 - 1), max_size=30))
    def write_items(self, data, items):
        wi = data.draw(st.integers(0, len(self.writers) - 1))
        idx, w = self.writers[wi]
        try:
            w.write(np.asarray(items, dtype=np.uint32))
        except DiskFaultError:
            self.observed_faults += 1
            # The interrupted stream is useless: abandon the writer (no
            # flush — flushing could fault again) and resync the mirror
            # to what actually reached the disk.
            self.writers.pop(wi)
            w.abandon()
            self.expected[idx] = [int(x) for x in self.files[idx].to_array()]
        else:
            self.expected[idx].extend(int(x) & 0xFFFFFFFF for x in items)

    @precondition(lambda self: self.writers)
    @rule(data=st.data())
    def close_writer(self, data):
        wi = data.draw(st.integers(0, len(self.writers) - 1))
        idx, w = self.writers.pop(wi)
        try:
            w.close()
        except DiskFaultError:
            self.observed_faults += 1
            # The final flush faulted: buffered tail items never landed.
            self.expected[idx] = [int(x) for x in self.files[idx].to_array()]

    # -- cursor rules ----------------------------------------------------------

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
        before = self.disk.stats.snapshot()
        try:
            got = cur.take_upto(n)
        except DiskFaultError:
            self.observed_faults += 1
            # A faulted read charges nothing and buffers nothing.
            after = self.disk.stats.snapshot()
            assert after.blocks_read == before.blocks_read
            assert after.items_read == before.items_read
            self.cursors.pop(ci)
            cur.drop()
        else:
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
            flushed = f.to_array()
            assert list(flushed) == exp[: flushed.size]

    @invariant()
    def no_phantom_blocks(self):
        """Atomicity: every stored block was a charged, successful write,
        so sizes are compact regardless of where faults interrupted."""
        for f in self.files:
            for b in range(max(0, f.n_blocks - 1)):
                assert f.inspect_block(b).size == self.B
            assert f.n_items == sum(
                f.inspect_block(b).size for b in range(f.n_blocks)
            )

    @invariant()
    def fault_counter_matches_observed(self):
        assert sum(c.disk_faults for c in self.armed) == self.observed_faults
        rows = sum(isinstance(e, FaultInjected) for e in self.disk.bus.events)
        assert rows == self.observed_faults

    @invariant()
    def accounting_is_bounded(self):
        lower = len(self.writers) * self.B
        upper = lower + len(self.cursors) * self.B
        assert lower <= self.mem.in_use <= upper

    def teardown(self):
        self.disk.fault_hook = None  # heal: teardown flushes must succeed
        for _, w in self.writers:
            w.close()
        for _, cur, _ in self.cursors:
            cur.drop()
        assert self.mem.in_use == 0


TestFaultyStorageMachine = FaultyStorageMachine.TestCase
TestFaultyStorageMachine.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
