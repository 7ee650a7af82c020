"""Steps 2–4's planned loops against the loops they replace.

The sample gather (``read_samples``), the partition search
(``partition_offsets``), the partition copy (``materialize_partitions``)
and the step-4 message (``take_chunk`` in ``stream_run``) each run as a
plan where ``pdm.blockfile.plannable`` allows: the loop's charges listed
from the positions, cuts or message size and the block sizes, charged as
one batch through ``BlockFile.read_planned``, its memory applied at once,
its payload moved in bulk.  The properties run each both ways on fresh
clusters at capture ``io`` under both kernels — the loop by patching
``plannable`` to refuse — and demand the same result and JSONL bytes,
``IOStats`` (``busy_time`` too), clocks, memory high-water, reservation
count and ``in_use``, and the same raised error.  ``TestSelection`` pins
which path runs; ``TestWideBatches`` counts a ``wide16`` sort's batches.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core import partition, redistribute, sampling
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.extsort import multiway
from repro.extsort.multiway import RunCursor, RunRef
from repro.faults import DiskFault, install_disk_faults
from repro.obs.exporters import events_to_jsonl
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import SimDisk
from repro.pdm.memory import MemoryBudgetError
from repro.workloads.generators import make_benchmark
from repro.workloads.records import SUPPORTED_KEY_DTYPES

#: Every module that asks ``plannable`` for one of the four loops.
_CALLERS = (sampling, partition, multiway)


def _loops():
    """Patch every step 2–4 caller's ``plannable`` to refuse: the loops run."""
    stack = contextlib.ExitStack()
    for module in _CALLERS:
        stack.enter_context(mock.patch.object(module, "plannable", return_value=False))
    return stack


@st.composite
def _files(draw):
    """``(dtype, B, items)``: a sorted file's geometry and keys, tie-heavy
    or spread, often ending in a partial block."""
    dtype = draw(st.sampled_from(SUPPORTED_KEY_DTYPES))
    info = np.iinfo(dtype)
    B = draw(st.integers(1, 9))
    n = draw(st.integers(0, 12 * B))
    hi = draw(st.sampled_from([2, 50, int(min(info.max, 2**40))]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    items = np.sort(rng.integers(max(int(info.min), -hi), hi, size=n, endpoint=True).astype(dtype))
    return dtype, B, items


def _observe(plan: bool, kernel: str, B: int, items: np.ndarray, p: int, memory, held, body, level="io"):
    """Run ``body(cluster, file)`` on a fresh ``p``-node cluster at capture
    ``level``, node 0 holding ``items`` in a ``B``-item-block file and
    ``held`` items pinned elsewhere; planned or looped; what it did."""
    cluster = Cluster(heterogeneous_cluster([2.0, 1.0][:p], memory_items=memory), kernel=kernel)
    cluster.bus.set_level(level)
    node = cluster.nodes[0]
    f = node.disk.new_file(B, items.dtype)
    with cluster.step("load"):
        with BlockWriter(f, node.mem) as w:
            w.write(items)
    spy = mock.patch.object(BlockFile, "read_planned", autospec=True, side_effect=BlockFile.read_planned)
    error = result = None
    node.mem.acquire(held)
    with spy as planned, contextlib.ExitStack() as stack:
        if not plan:
            stack.enter_context(_loops())
        try:
            with cluster.step("work"):
                result = body(cluster, f)
        except MemoryBudgetError as exc:
            error = repr(exc)
    node.mem.release(held)
    return {
        "result": result,
        "error": error,
        "jsonl": events_to_jsonl(cluster.bus.events),
        "stats": [n.disk.stats for n in cluster.nodes],
        "clock": ([n.clock.time for n in cluster.nodes], cluster.barrier()),
        "mem": [(n.mem.high_water, n.mem.total_reservations, n.mem.in_use) for n in cluster.nodes],
        "planned": planned.call_count,
    }


def _same(got: dict, want: dict) -> None:
    assert want["planned"] == 0
    want = {**want, "planned": got["planned"]}
    assert got == want


def _budget(draw, B: int):
    """``(memory, held)``: a budget from unlimited down to three blocks,
    and items pinned elsewhere — up to all of it, so that a plan's peak
    can overflow and the loop must raise."""
    memory = draw(st.sampled_from([None, 3 * B, 4 * B + 1, 64 * B]))
    if memory is None:
        return 10**9, draw(st.integers(0, B))
    edges = [memory - k * B + d for k in (1, 2) for d in (0, 1)]  # one or two blocks (don't) fit
    return memory, draw(st.one_of(st.integers(0, memory // 3), st.sampled_from(edges)))


# ---------------------------------------------------------------------------
# (a) the sample gather
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(case=_files(), data=st.data())
def test_property_planned_sample_gather_equals_loop(kernel, case, data):
    dtype, B, items = case
    memory, held = _budget(data.draw, B)
    positions = sorted(
        data.draw(st.lists(st.integers(0, max(0, items.size - 1)), max_size=40))
        if items.size
        else []
    )

    def gather(cluster, f):
        return sampling.read_samples(f, positions, cluster.nodes[0].mem).tobytes()

    got = _observe(True, kernel, B, items, 1, memory, held, gather)
    want = _observe(False, kernel, B, items, 1, memory, held, gather)
    _same(got, want)
    if want["error"] is None:
        assert want["result"] == items[positions].tobytes()
        assert got["planned"] == (len(positions) > 0)


# ---------------------------------------------------------------------------
# (b) the partition search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(case=_files(), data=st.data())
def test_property_planned_partition_search_equals_loop(kernel, case, data):
    dtype, B, items = case
    memory, held = _budget(data.draw, B)
    info = np.iinfo(dtype)
    keys = [*items.tolist(), int(info.min), int(info.max)]
    pivots = sorted(data.draw(st.lists(st.sampled_from(keys), max_size=12)))

    def search(cluster, f):
        return partition.partition_offsets(f, np.asarray(pivots, dtype=dtype), cluster.nodes[0].mem)

    got = _observe(True, kernel, B, items, 1, memory, held, search)
    want = _observe(False, kernel, B, items, 1, memory, held, search)
    _same(got, want)
    if want["error"] is None:
        assert want["result"] == [0, *np.searchsorted(items, pivots, "right").tolist(), items.size]
        assert got["planned"] == (len(pivots) > 0 and items.size > 0)


# ---------------------------------------------------------------------------
# (c) the partition copy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(case=_files(), data=st.data())
def test_property_planned_partition_copy_equals_loop(kernel, case, data):
    dtype, B, items = case
    memory, held = _budget(data.draw, B)
    inner = sorted(data.draw(st.lists(st.integers(0, items.size), max_size=8)))
    cuts = [0, *inner, items.size]

    def copy(cluster, f):
        node = cluster.nodes[0]
        out = partition.materialize_partitions(f, cuts, node.disk, node.mem)
        return [(g.name, g.n_blocks, g.to_array().tobytes()) for g in out]

    got = _observe(True, kernel, B, items, 1, memory, held, copy)
    want = _observe(False, kernel, B, items, 1, memory, held, copy)
    _same(got, want)
    if want["error"] is None:
        assert [r[2] for r in want["result"]] == [
            items[lo:hi].tobytes() for lo, hi in zip(cuts, cuts[1:])
        ]
        assert got["planned"] == 1


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("level", ["io", "full"])
@pytest.mark.parametrize(
    "cuts",
    [
        [0, 8, 12, 28, 30],  # every cut on a block boundary (B = 4)
        [0, 0, 5, 5, 9, 30, 30],  # empty sublists: first, mid-block and last
        [0, 30],  # one sublist: the whole file
    ],
)
def test_planned_partition_copy_at_special_cuts(kernel, level, cuts):
    """The copy's plan against its loop where a sublist starts on a block
    boundary (each read then completes an output block), is empty (it
    reads nothing, even mid-block) or is the whole file, which ends in a
    partial block; at ``full`` with the loop's reservation rows."""
    items = np.arange(30, dtype=np.uint32)

    def copy(cluster, f):
        node = cluster.nodes[0]
        out = partition.materialize_partitions(f, cuts, node.disk, node.mem)
        return [(g.name, g.n_blocks, g.to_array().tobytes()) for g in out]

    got = _observe(True, kernel, 4, items, 1, 64 * 4, 0, copy, level)
    want = _observe(False, kernel, 4, items, 1, 64 * 4, 0, copy, level)
    _same(got, want)
    assert got["planned"] == 1
    assert [r[2] for r in got["result"]] == [items[lo:hi].tobytes() for lo, hi in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# (d) the step-4 messages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(case=_files(), data=st.data())
def test_property_planned_messages_equal_loop(kernel, case, data):
    """A run streamed to the other node or to a file of its own, in
    messages below, at and above B, by a cursor refilling one block or a
    drawn deeper share."""
    dtype, B, items = case
    memory, held = _budget(data.draw, B)
    start = data.draw(st.integers(0, items.size))
    stop = data.draw(st.integers(start, items.size))
    message = data.draw(st.integers(1, 5 * B))
    depth = data.draw(st.integers(1, 3))
    remote = data.draw(st.booleans())

    def stream(cluster, f):
        src = cluster.nodes[0]
        dst = cluster.nodes[1] if remote else src
        out = dst.disk.new_file(B, dtype)
        cur = RunCursor(RunRef(f, start, stop), src.mem)
        cur._depth = depth
        report = redistribute.RedistributionReport()
        with BlockWriter(out, dst.mem) as w:
            redistribute.stream_run(cluster.network, src, dst, cur, w, message, report)
        return out.to_array().tobytes(), vars(report)

    got = _observe(True, kernel, B, items, 2, memory, held, stream)
    want = _observe(False, kernel, B, items, 2, memory, held, stream)
    _same(got, want)
    if want["error"] is None:
        assert want["result"][0] == items[start:stop].tobytes()


# ---------------------------------------------------------------------------
# Which path runs
# ---------------------------------------------------------------------------


class TestSelection:
    """The plans run where nobody watches op by op; the loop runs on a
    fault-hooked disk, on a spill file and on a memory-capturing bus."""

    @staticmethod
    def _planned(level="io", fault=False, spill=None) -> list[int]:
        """``read_planned`` calls made by each of the four loops, in order:
        sample gather, partition search, partition copy, messages."""
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0], memory_items=64))
        cluster.bus.set_level(level)
        src, dst = cluster.nodes
        if spill is not None:
            src.disk.file_factory = spill.create
        f = src.disk.new_file(4, np.uint32)
        with cluster.step("load"):
            with BlockWriter(f, src.mem) as w:
                w.write(np.arange(64, dtype=np.uint32))
        if fault:
            install_disk_faults(src.disk, [DiskFault(after_ios=10**9)])
        counts = []
        spy = mock.patch.object(
            BlockFile, "read_planned", autospec=True, side_effect=BlockFile.read_planned
        )
        with spy as planned, cluster.step("work"):
            steps = [
                lambda: sampling.read_samples(f, [3, 7, 30, 50], src.mem),
                lambda: partition.partition_offsets(f, [20, 40], src.mem),
                lambda: partition.materialize_partitions(f, [0, 21, 41, 64], src.disk, src.mem),
                lambda: TestSelection._stream(cluster, f),
            ]
            for run in steps:
                before = planned.call_count
                run()
                counts.append(planned.call_count - before)
        return counts

    @staticmethod
    def _stream(cluster, f) -> None:
        src, dst = cluster.nodes
        out = dst.disk.new_file(4, np.uint32)
        with BlockWriter(out, dst.mem) as w:
            redistribute.stream_run(
                cluster.network, src, dst, RunCursor(RunRef(f, 5, 60), src.mem), w, 16
            )
        np.testing.assert_array_equal(out.to_array(), np.arange(5, 60))

    def test_unwatched_io_capture_plans(self):
        # Four messages of 16 items from item 5: each reads its blocks.
        assert self._planned() == [1, 1, 1, 4]

    def test_steps_capture_plans(self):
        assert self._planned(level="steps") == [1, 1, 1, 4]

    def test_full_capture_plans(self):
        assert self._planned(level="full") == [1, 1, 1, 4]

    def test_a_disk_fault_hook_loops(self):
        assert self._planned(fault=True) == [0, 0, 0, 0]

    def test_a_spill_file_loops(self):
        from repro.pdm.filestore import FileStore

        with FileStore() as store:
            assert self._planned(spill=store) == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Batches per wide16 operation
# ---------------------------------------------------------------------------


class TestWideBatches:
    """On the benchmark's ``wide16`` operation (p = 16, 256 sublists), a
    ``SimDisk.charge`` spy sees one batch per node for the sample gather,
    one for the partition search and one for the copy, and in step 4 at
    most one batch with reads per message."""

    def test_one_batch_per_node_per_loop(self):
        perf = PerfVector([1, 1, 2, 2, 4, 4, 8, 8] * 2)
        n = perf.nearest_exact(2**19)
        data = make_benchmark("uniform", n, seed=5)
        cluster = Cluster(
            heterogeneous_cluster([float(v) for v in perf.values], memory_items=2**14)
        )
        cluster.bus.set_level("io")
        batches: dict[str, list[tuple[str, int, int]]] = {}
        charge = SimDisk.charge

        def spy(disk, batch):
            reads = sum(len(e[4]) for e in batch if not isinstance(e, float) and e[0] == "read")
            writes = sum(len(e[4]) for e in batch if not isinstance(e, float) and e[0] == "write")
            batches.setdefault(cluster.bus.current_step, []).append((disk.name, reads, writes))
            return charge(disk, batch)

        take_chunk = redistribute.take_chunk
        messages = []

        def count(cur, size):
            messages.append(size)
            return take_chunk(cur, size)

        with mock.patch.object(SimDisk, "charge", spy), mock.patch.object(
            redistribute, "take_chunk", count
        ):
            res = sort_array(cluster, perf, data, PSRSConfig(block_items=256, message_items=8192))
        np.testing.assert_array_equal(res.to_array(), np.sort(data))
        disks = sorted(node.disk.name for node in cluster.nodes)
        step2 = batches["2:pivots"]
        assert sorted(d for d, _, _ in step2) == disks
        assert all(r > 0 and w == 0 for _, r, w in step2)
        # Per node: the search's batch (reads only), then the copy's.
        step3 = batches["3:partition"]
        assert sorted(d for d, _, _ in step3) == sorted(disks * 2)
        for disk in disks:
            search, copy = [(r, w) for d, r, w in step3 if d == disk]
            assert search[0] > 0 and search[1] == 0
            assert copy[0] > 0 and copy[1] > 0
        step4_reads = [r for _, r, _ in batches["4:redistribute"] if r]
        assert 0 < len(step4_reads) <= len(messages)
