"""One batch against the per-access charging it replaced.

``SimDisk.charge`` applies a disk's accesses (and its owner's CPU work,
and the reservation changes of a plan on a bus that records them) in one
kernel pass.  ``tests/kernel_reference.py`` holds the per-access path
verbatim; the property applies a drawn sequence both ways, under each
kernel and on a standalone disk, at capture ``io`` and ``full``, and
demands the same clock, drive and stream state, ``IOStats``,
``ops_charged``, JSONL bytes (at ``full`` the ``Compute`` rows too) and
events a subscriber saw — also when a fault hook raises partway.
The pins below hold the three batching callers to one batch each, and a
faulted multi-block write to its staged retry.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import EventKernel
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.extsort import multiway
from repro.extsort.multiway import RunCursor, RunRef
from repro.extsort.runs import _iter_loads
from repro.faults import DiskFault, DiskFaultError, install_disk_faults
from repro.obs.bus import TelemetryBus
from repro.obs.exporters import events_to_jsonl
from repro.pdm.blockfile import BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from tests import kernel_reference as ref

B = 8
#: Item width per stream; ``None`` is an access outside any stream.
STREAMS = {"s0": 4, "s1": 8, "s2": 2, "s3": 1, None: 4}


@st.composite
def _sequences(draw, cpu: bool, owners: tuple = ()):
    """Up to 300 accesses (1..B items, streams continued or jumped, now
    and then none) with CPU charges and reservation changes (``[n,
    in_use, node]``, ``node`` one of ``owners``) between them."""
    nxt = {s: 0 for s in STREAMS}
    seq: list = []
    for _ in range(draw(st.integers(1, 300))):
        if cpu and draw(st.integers(0, 3)) == 0:
            seq.append(draw(st.floats(0.0, 1e6)))
        if owners and draw(st.integers(0, 2)) == 0:
            n = draw(st.integers(-64, 64))
            seq.append([n, draw(st.integers(0, 1 << 12)), draw(st.sampled_from(owners))])
        stream = draw(st.sampled_from(sorted(STREAMS, key=str)))
        offset = None
        if stream is not None:
            offset = nxt[stream] if draw(st.booleans()) else draw(st.integers(0, 40))
            nxt[stream] = offset + 1
        op = draw(st.sampled_from(["read", "write"]))
        seq.append((op, draw(st.integers(1, B)), STREAMS[stream], stream, offset))
    return seq


def _batch(seq: list, group: bool) -> list:
    """``seq`` as batch entries, a continuing stretch of one op and
    stream as one entry when ``group``."""
    batch: list = []
    for a in seq:
        if isinstance(a, (float, list)):
            batch.append(a)
            continue
        op, n, size, stream, offset = a
        last = batch[-1] if batch else None
        if (
            group
            and isinstance(last, tuple)
            and stream is not None
            and last[:3] == (op, size, stream)
            and last[3] + len(last[4]) == offset
        ):
            last[4].append(n)
        else:
            batch.append((op, size, stream, offset, [n]))
    return batch


def _setup(mode: str, level: str = "io", seen: Optional[list] = None):
    """A fresh disk (and its node and kernel) at capture ``level``, and
    the nodes whose memory a reservation entry may name: on a cluster the
    disk's owner and a second node (a salvage reads a dead node's disk
    into its buddy's memory), on a standalone disk an ownerless manager.
    Every event is appended to ``seen``, if given, as it is emitted."""
    if mode == "standalone":
        disk = SimDisk(DiskParams(seek_time=2e-3, bandwidth=3e6), name="d0", slowdown=1.5)
        disk.bus = TelemetryBus(level)
        if seen is not None:
            disk.bus.subscribe(seen.append)
        return None, disk, disk.bus, (None,)
    cluster = Cluster(heterogeneous_cluster([2.5, 1.0], memory_items=1 << 12), kernel=mode)
    cluster.bus.set_level(level)
    if seen is not None:
        cluster.bus.subscribe(seen.append)
    node, other = cluster.nodes
    node.clock.advance(0.25)  # the batch starts mid-run
    other.clock.advance(0.75)
    return node, node.disk, cluster.bus, (node, other)


def _state(node, disk, bus) -> dict:
    kernel = disk.kernel
    event = isinstance(kernel, EventKernel)
    return {
        "clock": None if node is None else node.clock.time,
        "ops_charged": None if node is None else node.ops_charged,
        "disk_free": dict(kernel._disk_free) if event else None,
        "rank_free": dict(kernel._rank_free) if event else None,
        "streams": dict(kernel._streams) if event else None,
        "last_queued": disk.last_queued,
        "stats": replace(disk.stats),
        "jsonl": events_to_jsonl(bus.events),
    }


def _owners(mode: str) -> tuple:
    """Stand-ins for the nodes :func:`_setup` names, for drawing: 0 is the
    disk's owner, 1 the other node, None an ownerless manager."""
    return (None,) if mode == "standalone" else (0, 1)


def _run(mode, level, seq: list, prefix: list, fault_at, batched: bool, group: bool, seen):
    node, disk, bus, owners = _setup(mode, level, seen)
    seq = [
        [a[0], a[1], None if a[2] is None else owners[a[2]]] if isinstance(a, list) else a
        for a in seq
    ]
    # The same drive, stream and clock state on both sides; a float last
    # leaves a ``Compute`` row at the stream's tail for the batch's first
    # CPU entry to coalesce into.
    ref.apply(node, disk, bus, prefix)
    if fault_at is not None:
        install_disk_faults(disk, [DiskFault(after_ios=fault_at)])
    error = None
    try:
        if batched and fault_at is None:
            disk.charge(_batch(seq, group))
        elif batched:  # a hooked disk is charged one block per batch
            for e in _batch(seq, False):
                disk.charge((e,))
        else:
            ref.apply(node, disk, bus, seq)
    except DiskFaultError as exc:
        error = (type(exc), str(exc))
    return {**_state(node, disk, bus), "seen": seen}, error


def _check(mode: str, data) -> None:
    # A batch carries CPU work on a node's disk (a standalone one has no
    # clock to charge), at ``full`` with its ``Compute`` rows.
    level = data.draw(st.sampled_from(["io", "full"]))
    cpu = mode != "standalone"
    seq = data.draw(_sequences(cpu=cpu, owners=_owners(mode)))
    prefix = data.draw(_sequences(cpu=False).map(lambda s: s[:4]))
    if cpu and data.draw(st.booleans()):
        prefix.append(data.draw(st.floats(0.0, 1e6)))
    blocks = sum(1 for a in seq if isinstance(a, tuple))
    fault_at = data.draw(st.none() | st.integers(0, blocks - 1))
    group = data.draw(st.booleans())
    subscribed = data.draw(st.booleans())
    got = _run(mode, level, seq, prefix, fault_at, True, group, [] if subscribed else None)
    want = _run(mode, level, seq, prefix, fault_at, False, group, [] if subscribed else None)
    assert got == want
    assert (got[1] is not None) == (fault_at is not None)


MODES = ["event", "lockstep", "standalone"]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_batch_equals_per_access(mode, data):
    """A drawn access sequence with CPU charges and reservation changes
    between its accesses, applied as one batch and access by access through
    the verbatim reference: the same clock, drive-free time, write-behind
    mark, stream offsets, ``last_queued``, ``IOStats`` (``busy_time``
    too), ``ops_charged``, JSONL bytes (memory and ``Compute`` rows at
    ``full``, stamped with their node's clock at their place, a CPU entry
    coalesced into a ``Compute`` row before it, the stream's tail too) and
    events a subscriber saw, and with a fault hook raising at a drawn block
    (one-block batches, as ``BlockFile`` sends them on a hooked disk), the
    same partial state and error."""
    _check(mode, data)


@pytest.mark.no_sanitizers
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_batch_equals_per_access_unsanitized(mode, data):
    """The same property with the sanitizer off: the branch the
    benchmark and ``repro sort`` run."""
    _check(mode, data)


@pytest.mark.parametrize("mode", MODES)
def test_reservations_below_full_leave_no_row_and_move_nothing(mode):
    """At capture ``io`` a batch of reservation entries is a no-op: no
    row, no clock, no drive state; at ``full`` it leaves only its rows."""
    for level, rows in (("io", 0), ("full", 2)):
        node, disk, bus, owners = _setup(mode, level)
        before = _state(node, disk, bus)
        disk.charge([[4, 4, owners[0]], [-4, 0, owners[0]]])
        after = _state(node, disk, bus)
        assert len(bus.events.rows) == rows
        assert {**after, "jsonl": ""} == {**before, "jsonl": ""}


@pytest.mark.parametrize("mode", ["event", "lockstep"])
def test_cpu_entries_at_full_write_the_rows_compute_calls_write(mode):
    """At ``full`` a batch's CPU entry writes the ``Compute`` row that
    ``SimNode.compute`` writes: the first two coalesce into the stream's
    tail, the next two into one new row after a block's, the last is a row
    of its own after a write; a subscriber hears of each new row once."""
    prefix = [("read", 8, 4, "s0", 7), 6e5]
    seq = [2e5, 3e5, ("read", 8, 4, "s0", 0), 1e5, 4e5, ("write", 8, 4, "s1", 0), 5e5]
    got = _run(mode, "full", seq, prefix, None, True, True, [])
    assert got == _run(mode, "full", seq, prefix, None, False, True, [])
    heard = [type(e).__name__ for e in got[0]["seen"]]
    assert heard == ["BlockRead", "Compute", "BlockRead", "Compute", "BlockWrite", "Compute"]
    ops = [e["ops"] for e in map(json.loads, got[0]["jsonl"].splitlines()) if e["kind"] == "compute"]
    assert ops == [11e5, 5e5, 5e5]


def _counting_batches():
    calls = []
    real = SimDisk.charge

    def spy(disk, batch):
        calls.append(len(batch))
        return real(disk, batch)

    return calls, mock.patch.object(SimDisk, "charge", spy)


def _node(memory_items: int):
    cluster = Cluster(heterogeneous_cluster([1.0], memory_items=memory_items))
    return cluster, cluster.nodes[0]


class TestOneBatch:
    """Each batching caller charges its blocks in one ``SimDisk.charge``."""

    def test_a_planned_seven_by_eight_block_merge(self):
        self._planned_merge("steps")

    def test_a_planned_merge_at_full_capture_carries_its_compute(self):
        self._planned_merge("full")

    @staticmethod
    def _planned_merge(level: str) -> None:
        cluster, node = _node(8 * B)
        cluster.bus.set_level(level)
        refs = []
        with cluster.step("load"):
            for i in range(7):
                f = node.disk.new_file(B, np.uint32)
                with BlockWriter(f, node.mem) as w:
                    w.write(np.arange(i, 8 * B * 7, 7, dtype=np.uint32))
                refs.append(RunRef.whole(f))
        out = node.disk.new_file(B, np.uint32)
        calls, spy = _counting_batches()
        planned = mock.patch.object(multiway, "_merge_planned", wraps=multiway._merge_planned)
        with cluster.step("merge"), BlockWriter(out, node.mem) as w:
            cursors = [RunCursor(r, node.mem) for r in refs]
            with spy, planned as plan:
                assert multiway.merge_cursors(cursors, w, node.mem, node.compute) == 7 * 8 * B
        assert plan.call_count == 1 and len(calls) == 1
        np.testing.assert_array_equal(out.to_array(), np.arange(7 * 8 * B))

    def test_a_seven_block_load(self):
        cluster, node = _node(16 * B)
        src = node.disk.new_file(B, np.uint32)
        with BlockWriter(src, node.mem) as w:
            w.write(np.arange(7 * B, dtype=np.uint32))
        calls, spy = _counting_batches()
        with spy:
            loads = list(_iter_loads(src, 8 * B, node.mem))
        assert len(calls) == 1 and len(loads) == 1
        np.testing.assert_array_equal(loads[0], np.arange(7 * B))
        assert node.disk.stats.blocks_read == 7

    def test_a_thirty_two_block_write(self):
        cluster, node = _node(16 * B)
        f = node.disk.new_file(B, np.uint32)
        calls, spy = _counting_batches()
        with BlockWriter(f, node.mem) as w:
            with spy:
                w.write(np.arange(32 * B, dtype=np.uint32))
        assert len(calls) == 1 and f.n_blocks == 32


def test_a_fault_at_the_third_block_of_a_five_block_write_leaves_two_stored():
    """Under a fault hook the write goes block by block: the 3rd block's
    fault leaves 2 stored and charged, and the ``with`` exit abandons the
    writer, flushing nothing and releasing its block."""
    cluster, node = _node(16 * B)
    f = node.disk.new_file(B, np.uint32)
    install_disk_faults(node.disk, [DiskFault(after_ios=2, count=1)])
    with pytest.raises(DiskFaultError):
        with BlockWriter(f, node.mem) as w:
            w.write(np.arange(5 * B, dtype=np.uint32))
    np.testing.assert_array_equal(f.to_array(), np.arange(2 * B))
    assert node.disk.stats.blocks_written == 2 and node.mem.in_use == 0


def test_a_hooked_disk_charges_a_faulting_multi_block_batch_not_at_all():
    """The hook sees every block of a batch before any is charged."""
    cluster, node = _node(16 * B)
    install_disk_faults(node.disk, [DiskFault(after_ios=2, count=1)])
    before = (node.clock.time, replace(node.disk.stats))
    with pytest.raises(DiskFaultError):
        node.disk.charge((("read", 4, "s", 0, [B] * 5),))
    assert (node.clock.time, node.disk.stats) == before
