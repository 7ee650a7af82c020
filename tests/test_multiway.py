"""Tests for run cursors and the two k-way merge engines."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.extsort import multiway
from repro.extsort.multiway import (
    RunCursor,
    RunRef,
    max_merge_order,
    merge_runs,
)
from repro.faults import DiskFault, DiskFaultError, install_disk_faults
from repro.obs.exporters import events_to_jsonl
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.memory import MemoryBudgetError, MemoryManager
from repro.workloads.records import SUPPORTED_KEY_DTYPES, is_sorted, verify_permutation

from tests.conftest import file_from_array, make_disk
from tests.merge_reference import reference_merge_cursors


class TestMaxMergeOrder:
    def test_basic(self):
        assert max_merge_order(MemoryManager(capacity=64), B=8) == 7

    def test_unlimited(self):
        assert max_merge_order(MemoryManager(None), B=8) > 1000

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            max_merge_order(MemoryManager(capacity=16), B=8)


class TestRunRef:
    def test_whole(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        r = RunRef.whole(f)
        assert (r.start, r.stop) == (0, 20)

    def test_invalid_range(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        with pytest.raises(ValueError):
            RunRef(f, 5, 25)
        with pytest.raises(ValueError):
            RunRef(f, 10, 5)


class TestRunCursor:
    def test_take_all_in_order(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=16)
        c = RunCursor(RunRef.whole(f), mem)
        got = []
        while not c.exhausted:
            got.extend(c.take_upto(8).tolist())
        assert got == list(range(20))
        assert mem.in_use == 0

    def test_subrange_mid_block(self, disk):
        f = file_from_array(np.arange(32, dtype=np.uint32), disk, B=8)
        c = RunCursor(RunRef(f, 5, 19), MemoryManager(None))
        got = []
        while not c.exhausted:
            got.extend(c.take_upto(8).tolist())
        assert got == list(range(5, 19))

    def test_take_one_and_peek(self, disk):
        f = file_from_array(np.array([3, 7], dtype=np.uint32), disk, B=8)
        c = RunCursor(RunRef.whole(f), MemoryManager(None))
        assert c.peek() == 3
        assert c.take_one() == 3
        assert c.take_one() == 7
        assert c.peek() is None
        assert c.exhausted

    def test_exhausted_take_one_raises(self, disk):
        f = BlockFile(disk, B=8)
        c = RunCursor(RunRef.whole(f), MemoryManager(None))
        assert c.exhausted
        with pytest.raises(RuntimeError):
            c.take_one()

    def test_memory_budget_enforced(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=7)  # less than one block
        c = RunCursor(RunRef.whole(f), mem)
        with pytest.raises(MemoryBudgetError):
            c.take_one()

    @pytest.mark.parametrize("capacity, held", [(6, 3), (8, 5)])
    def test_refill_over_budget_keeps_no_buffer(self, disk, capacity, held):
        # Regression: a refill published its buffer before acquiring it, so
        # after the budget error drop() released items it never pinned —
        # raising a ValueError that masked the error (3 held, 4 released)
        # or silently freeing another holder's memory (5 held).
        f = file_from_array(np.arange(8, dtype=np.uint32), disk, B=4)
        mem = MemoryManager(capacity=capacity)
        mem.acquire(held)
        c = RunCursor(RunRef.whole(f), mem)
        with pytest.raises(MemoryBudgetError):
            c.take_upto(4)
        c.drop()
        assert mem.in_use == held
        assert not c.exhausted


def _merge_case(run_arrays, engine, B=8, capacity=None):
    disk = make_disk()
    mem = MemoryManager(capacity=capacity)
    refs = [
        RunRef.whole(file_from_array(np.sort(np.asarray(a, dtype=np.uint32)), disk, B))
        for a in run_arrays
    ]
    out = BlockFile(disk, B, np.uint32)
    n = merge_runs(refs, out, mem, engine=engine)
    assert mem.in_use == 0, "merge leaked memory reservations"
    return n, out


@pytest.mark.parametrize("engine", ["vector", "itemwise"])
class TestMergeEngines:
    def test_basic_merge(self, engine, rng):
        runs = [rng.integers(0, 1000, 30) for _ in range(4)]
        n, out = _merge_case(runs, engine, capacity=200)
        all_items = np.concatenate(runs)
        assert n == all_items.size
        assert is_sorted(out.to_array())
        assert verify_permutation(all_items, out.to_array())

    def test_single_run_copy(self, engine, rng):
        run = rng.integers(0, 100, 20)
        _, out = _merge_case([run], engine)
        np.testing.assert_array_equal(out.to_array(), np.sort(run))

    def test_empty_runs_mixed(self, engine, rng):
        runs = [rng.integers(0, 100, 10), [], rng.integers(0, 100, 5)]
        n, out = _merge_case(runs, engine)
        assert n == 15
        assert is_sorted(out.to_array())

    def test_all_empty(self, engine):
        n, out = _merge_case([[], []], engine)
        assert n == 0 and out.n_items == 0

    def test_heavy_duplicates(self, engine):
        runs = [[5] * 20, [5] * 10 + [6] * 10, [4] * 5 + [5] * 5]
        n, out = _merge_case(runs, engine)
        arr = out.to_array()
        assert is_sorted(arr)
        assert verify_permutation(np.concatenate([np.asarray(r) for r in runs]), arr)

    def test_disjoint_ranges(self, engine):
        runs = [range(0, 10), range(20, 30), range(10, 20)]
        _, out = _merge_case([list(r) for r in runs], engine)
        np.testing.assert_array_equal(out.to_array(), np.arange(30))

    def test_respects_tight_budget(self, engine, rng):
        # 3 runs + output + chunk scratch inside capacity 8 blocks of 4.
        runs = [rng.integers(0, 1000, 25) for _ in range(3)]
        n, out = _merge_case(runs, engine, B=4, capacity=32)
        assert n == 75 and is_sorted(out.to_array())

    def test_compute_hook_called(self, engine, rng):
        disk = make_disk()
        mem = MemoryManager(None)
        refs = [
            RunRef.whole(
                file_from_array(np.sort(rng.integers(0, 99, 16).astype(np.uint32)), disk, 8)
            )
            for _ in range(2)
        ]
        out = BlockFile(disk, 8, np.uint32)
        ops = []
        merge_runs(refs, out, mem, compute=ops.append, engine=engine)
        assert sum(ops) > 0


class TestMergeScheduling:
    def test_too_many_runs_rejected(self, rng):
        disk = make_disk()
        mem = MemoryManager(capacity=32)  # B=8 -> order 3
        refs = [
            RunRef.whole(file_from_array(np.sort(rng.integers(0, 99, 8).astype(np.uint32)), disk, 8))
            for _ in range(4)
        ]
        out = BlockFile(disk, 8, np.uint32)
        with pytest.raises(ValueError, match="exceed merge order"):
            merge_runs(refs, out, mem)

    def test_unknown_engine(self, rng):
        disk = make_disk()
        refs = [RunRef.whole(file_from_array(np.arange(4, dtype=np.uint32), disk, 8))]
        out = BlockFile(disk, 8, np.uint32)
        with pytest.raises(ValueError, match="unknown merge engine"):
            merge_runs(refs, out, MemoryManager(None), engine="bogus")


def _observed_merge(run_arrays, engine, B):
    """Output, the disk's counters for the merge alone, the memory
    high-water mark and the compute charged by one ``merge_runs``."""
    disk = make_disk()
    mem = MemoryManager(None)
    refs = [
        RunRef.whole(file_from_array(np.sort(np.asarray(a, dtype=np.uint32)), disk, B))
        for a in run_arrays
    ]
    before = disk.stats.snapshot()
    out = BlockFile(disk, B, np.uint32)
    ops = []
    merge_runs(refs, out, mem, compute=ops.append, engine=engine)
    assert mem.in_use == 0, "merge leaked memory reservations"
    return out.to_array(), disk.stats - before, mem.high_water, sum(ops)


@settings(max_examples=30, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.integers(0, 2**32 - 1), max_size=60), min_size=1, max_size=6
    ),
)
def test_property_engines_agree_with_numpy(runs):
    """The two-engine differential: the production engine and the
    loser-tree reference write the same output through the same block
    I/O under the same memory high-water mark.  Their compute charges
    differ by construction — the production engine charges the model's
    ``n log2 k``, the reference the comparisons its tree actually made —
    and both stay within ``n * ceil(log2 k)`` plus the tree's ``k`` to build."""
    vec_out, vec_io, vec_mem, vec_ops = _observed_merge(runs, "vector", B=4)
    ref_out, ref_io, ref_mem, ref_ops = _observed_merge(runs, "itemwise", B=4)
    expected = np.sort(
        np.concatenate([np.asarray(r, dtype=np.uint32) for r in runs])
        if any(len(r) for r in runs)
        else np.empty(0, dtype=np.uint32)
    )
    np.testing.assert_array_equal(vec_out, expected)
    np.testing.assert_array_equal(ref_out, expected)
    # the same block I/Os, issued in a different order: the float sum of
    # their service times may differ in the last bit, every counter may not
    assert replace(vec_io, busy_time=0.0) == replace(ref_io, busy_time=0.0)
    assert vec_io.busy_time == pytest.approx(ref_io.busy_time, rel=1e-12)
    assert vec_mem == ref_mem
    bound = expected.size * int(np.ceil(np.log2(max(2, len(runs))))) + len(runs)
    assert 0 <= ref_ops <= bound and 0 <= vec_ops <= bound


def _extremes(dtype: np.dtype) -> list[int]:
    """The dtype's boundary keys: min, max, their neighbours, 0 and ±1,
    and 2**63 ± 1 for ``uint64`` (the keys a float64 round trip breaks)."""
    info = np.iinfo(dtype)
    near = [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]
    if dtype == np.uint64:
        near += [2**63 - 1, 2**63, 2**63 + 1]
    return sorted({v for v in near if info.min <= v <= info.max})


@st.composite
def _merge_inputs(draw):
    """``(dtype, B, pad, runs)``: up to 16 runs laid end to end on one
    tape after ``pad`` leading items, so ranges start mid-block and end in
    partial blocks.  Keys are tie-heavy (every run draws from the same 0-2
    values, 0 meaning empty runs) or uniform, with the dtype's extremes
    weighted in."""
    dtype = draw(st.sampled_from(SUPPORTED_KEY_DTYPES))
    info = np.iinfo(dtype)
    key = st.one_of(st.sampled_from(_extremes(dtype)), st.integers(info.min, info.max))
    max_len = 30
    if draw(st.booleans()):
        pool = draw(st.lists(key, max_size=2, unique=True))
        key = st.sampled_from(pool) if pool else st.just(0)
        max_len = max_len if pool else 0
    k = draw(st.integers(1, 16))
    B = draw(st.integers(1, 8))
    pad = draw(st.integers(0, B - 1))
    runs = draw(st.lists(st.lists(key, max_size=max_len), min_size=k, max_size=k))
    return dtype, B, pad, runs


def _merge_on_node(loop, kernel, dtype, B, pad, runs, fault=None) -> dict:
    """One ``merge_runs`` with ``loop`` as its merge loop, on a fresh
    one-node cluster at capture ``full``; everything it observably did."""
    k = len(runs)
    cluster = Cluster(
        heterogeneous_cluster([2.0], memory_items=(max(k, 2) + 1) * B), kernel=kernel
    )
    cluster.bus.set_level("full")
    node = cluster.nodes[0]
    tape = node.disk.new_file(B, dtype)
    bounds = np.cumsum([pad] + [len(r) for r in runs])
    with cluster.step("load"):
        with BlockWriter(tape, node.mem) as w:
            w.write(np.zeros(pad, dtype=dtype))
            for r in runs:
                w.write(np.sort(np.asarray(r, dtype=dtype)))
    refs = [RunRef(tape, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = node.disk.new_file(B, dtype)
    if fault is not None:
        install_disk_faults(node.disk, [fault])
    error = None
    with mock.patch.object(multiway, "merge_cursors", loop):
        try:
            with cluster.step("merge"):
                merge_runs(refs, out, node.mem, compute=node.compute)
        except DiskFaultError as exc:
            error = (str(exc), exc.io_index, repr(exc.__context__))
    assert node.mem.in_use == 0, "merge leaked memory reservations"
    return {
        "error": error,
        "out": out.to_array(),
        "elapsed": cluster.barrier(),
        "stats": node.disk.stats,
        "mem": (node.mem.high_water, node.mem.total_reservations),
        "jsonl": events_to_jsonl(cluster.bus.events),
    }


def _assert_same_merge(got: dict, want: dict) -> None:
    assert got["error"] == want["error"]
    assert got["out"].dtype == want["out"].dtype
    np.testing.assert_array_equal(got["out"], want["out"])
    for key in ("elapsed", "stats", "mem"):
        assert got[key] == want[key], key
    assert got["jsonl"] == want["jsonl"]


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(case=_merge_inputs())
def test_property_merge_loop_equals_reference(kernel, case):
    """``merge_cursors`` against the loop it replaced
    (``tests/merge_reference.py``): the same output, the same JSONL op
    stream byte for byte, the same disk counters, clock, memory high-water
    mark and reservation count."""
    dtype, B, pad, runs = case
    got = _merge_on_node(multiway.merge_cursors, kernel, dtype, B, pad, runs)
    want = _merge_on_node(reference_merge_cursors, kernel, dtype, B, pad, runs)
    _assert_same_merge(got, want)
    expected = np.sort(np.concatenate([np.asarray(r, dtype=dtype) for r in runs]))
    np.testing.assert_array_equal(got["out"], expected)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(
    case=_merge_inputs(),
    after_ios=st.integers(0, 60),
    count=st.sampled_from([1, 2, None]),
)
def test_property_merge_loop_faults_like_reference(kernel, case, after_ios, count):
    """A disk that faults after ``after_ios`` merge I/Os: both loops raise
    the same error at the same ``io_index``, unpin everything (no buffer
    released twice) and leave the same op stream behind."""
    dtype, B, pad, runs = case
    fault = DiskFault(after_ios=after_ios, count=count)
    got = _merge_on_node(multiway.merge_cursors, kernel, dtype, B, pad, runs, fault)
    want = _merge_on_node(reference_merge_cursors, kernel, dtype, B, pad, runs, fault)
    _assert_same_merge(got, want)


class TestShareBudget:
    """Refill depth: an equal whole-block share of the budget at entry."""

    @staticmethod
    def _first_refills(k: int, blocks: int, B: int = 4) -> list[int]:
        """Items each of ``k`` cursors pins on its first refill, in one
        ``merge_runs`` of ``k`` 8-block runs at ``M = blocks·B``, through
        the round loop (a planned merge applies its reservations at once)."""
        disk = make_disk()
        refs = [
            RunRef.whole(file_from_array(np.arange(i, 8 * B * k, k), disk, B))
            for i in range(k)
        ]
        mem = MemoryManager(blocks * B)
        loop = mock.patch.object(multiway, "_plans", return_value=False)
        with loop, mock.patch.object(mem, "acquire", wraps=mem.acquire) as acquire:
            merge_runs(refs, BlockFile(disk, B, np.uint32), mem)
        # the output writer's block first, then one refill per cursor
        assert acquire.call_args_list[0] == mock.call(B)
        return [call.args[0] // B for call in acquire.call_args_list[1 : k + 1]]

    def test_fan_in_16_at_64_blocks_pins_3_blocks_per_cursor(self):
        assert self._first_refills(16, 64) == [3] * 16

    def test_fan_in_7_at_8_blocks_pins_1_block_per_cursor(self):
        assert self._first_refills(7, 8) == [1] * 7


def _merge_at_budget(dtype, B, pad, runs, extra, fault=None) -> dict:
    """``merge_cursors`` of ``runs`` (laid end to end on one tape after
    ``pad`` items) on a fresh disk whose budget is one block per non-empty
    run plus one for the output — depth 1 — and ``extra`` items more."""
    disk = make_disk()
    tape = BlockFile(disk, B, dtype)
    with BlockWriter(tape, MemoryManager(None)) as w:
        w.write(np.zeros(pad, dtype=dtype))
        for r in runs:
            w.write(np.sort(np.asarray(r, dtype=dtype)))
    bounds = np.cumsum([pad] + [len(r) for r in runs])
    refs = [RunRef(tape, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    mem = MemoryManager((sum(1 for r in runs if r) + 1) * B + extra)
    out = BlockFile(disk, B, dtype)
    before = disk.stats.snapshot()
    if fault is not None:
        install_disk_faults(disk, [fault])
    cursors = [RunCursor(r, mem) for r in refs]
    charged: list[float] = []
    error = None
    try:
        with BlockWriter(out, mem) as w:
            multiway.merge_cursors(cursors, w, mem, charged.append)
    except DiskFaultError as exc:
        error = exc
    finally:
        for c in cursors:
            c.drop()
    assert mem.high_water <= mem.capacity
    assert mem.in_use == 0, "merge leaked memory reservations"
    return {
        "error": error,
        "out": out.to_array(),
        "io": disk.stats - before,
        "compute": sum(charged),
        "depth": max([c._depth for c in cursors], default=1),
    }


@settings(max_examples=60, deadline=None)
@given(case=_merge_inputs(), extra=st.integers(0, 96 * 8), data=st.data())
def test_property_deep_refills_equal_one_block_refills(case, extra, data):
    """Multi-block refills, against depth 1 rather than against the
    reference loop (which shares ``_refill``): on the same runs, a larger
    budget writes the same bytes through the same block and item I/O and
    charges the same compute; a disk fault below the I/O total makes both
    budgets raise and unpin everything."""
    dtype, B, pad, runs = case
    one = _merge_at_budget(dtype, B, pad, runs, 0)
    deep = _merge_at_budget(dtype, B, pad, runs, extra)
    assert one["depth"] == 1 and one["error"] is None and deep["error"] is None
    assert deep["out"].dtype == one["out"].dtype
    assert deep["out"].tobytes() == one["out"].tobytes()
    assert replace(deep["io"], busy_time=0.0) == replace(one["io"], busy_time=0.0)
    assert deep["io"].busy_time == pytest.approx(one["io"].busy_time, rel=1e-12)
    assert deep["compute"] == pytest.approx(one["compute"], rel=1e-12)
    total = one["io"].block_ios
    if total:
        fault = DiskFault(after_ios=data.draw(st.integers(0, total - 1)))
        for got in (_merge_at_budget(dtype, B, pad, runs, e, fault) for e in (0, extra)):
            assert isinstance(got["error"], DiskFaultError)


def _merge_replayed(plan, kernel, dtype, B, pad, runs, extra, earlier, chunk=1 << 15) -> dict:
    """One ``merge_cursors`` on a fresh one-node cluster at capture ``io``,
    planned (floor 0, payload sorted ``chunk`` items at a time) or looped,
    into a writer that already holds ``earlier`` items of a previous merge
    (a staged partial block, as in polyphase); everything it observably
    did."""
    k = len(runs)
    cluster = Cluster(
        heterogeneous_cluster([2.0], memory_items=(k + 1) * B + extra), kernel=kernel
    )
    cluster.bus.set_level("io")
    node = cluster.nodes[0]
    tape = node.disk.new_file(B, dtype)
    bounds = np.cumsum([pad] + [len(r) for r in runs])
    with cluster.step("load"):
        with BlockWriter(tape, node.mem) as w:
            w.write(np.zeros(pad, dtype=dtype))
            for r in runs:
                w.write(np.sort(np.asarray(r, dtype=dtype)))
    refs = [RunRef(tape, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = node.disk.new_file(B, dtype)
    planned = mock.patch.object(multiway, "_merge_planned", wraps=multiway._merge_planned)
    side = (
        mock.patch.multiple(multiway, _PLAN_FLOOR=0, _SORT_CHUNK=chunk)
        if plan
        else mock.patch.object(multiway, "_plans", return_value=False)
    )
    with side, planned as spy, cluster.step("merge"):
        with BlockWriter(out, node.mem) as w:
            w.write(np.arange(earlier, dtype=dtype))
            cursors = [RunCursor(r, node.mem) for r in refs]
            try:
                n = multiway.merge_cursors(cursors, w, node.mem, node.compute)
            finally:
                for c in cursors:
                    c.drop()
            writer = (n, w.items_written, w.staged, node.mem.in_use)
    assert spy.call_count == (plan and any(runs))
    return {
        "out": out.to_array().tobytes(),
        "jsonl": events_to_jsonl(cluster.bus.events),
        "stats": node.disk.stats,
        "clock": (node.clock.time, cluster.barrier(), node.ops_charged),
        "mem": (node.mem.high_water, node.mem.total_reservations, node.mem.in_use),
        "writer": writer,
    }


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(
    case=_merge_inputs(),
    extra=st.one_of(st.just(0), st.integers(0, 96 * 8)),
    earlier=st.integers(0, 20),
    chunk=st.integers(1, 64),
)
def test_property_planned_merge_equals_loop(kernel, case, extra, earlier, chunk):
    """The planned merge (block tails -> rounds, charges replayed, payload
    moved in bulk) against the round loop, at capture ``io`` with the plan
    floor at 0: the same output and JSONL bytes, ``IOStats`` (``busy_time``
    too), clock, ``ops_charged``, memory high-water, reservation count and
    ``in_use``, and the same items written and staged.  The budget gives
    depth 1 (``extra`` 0) or deeper refills; ``chunk`` splits the payload
    sort."""
    dtype, B, pad, runs = case
    got = _merge_replayed(True, kernel, dtype, B, pad, runs, extra, earlier, chunk)
    want = _merge_replayed(False, kernel, dtype, B, pad, runs, extra, earlier)
    assert got == want


@pytest.mark.parametrize("kernel", KERNELS)
def test_planned_deep_refills_end_short_on_the_files_partial_last_block(kernel):
    """Depth-3 refills (B = 4) of two runs on one tape: the first run's
    last unit is clamped at its end after 2 blocks, the second's after 1
    block, the tape's partial last one (3 items).  The plan must read and
    charge those units as the loop does, not as whole depth-3 units."""
    runs = [list(range(0, 40, 2)), list(range(1, 31, 2))]  # 20 items, then 15
    totals = []
    merge_planned = multiway._merge_planned

    def recording(*args):
        totals.append(merge_planned(*args))
        return totals[-1]

    with mock.patch.object(multiway, "_merge_planned", recording):
        got = _merge_replayed(True, kernel, np.uint32, 4, 0, runs, 16, 0)
    want = _merge_replayed(False, kernel, np.uint32, 4, 0, runs, 16, 0)
    assert totals == [35] and got == want
    assert (want["stats"].blocks_read, want["stats"].items_read) == (9, 35)


class TestMergeSelection:
    """Which path ``merge_cursors`` takes: the plan for a large merge
    nobody watches op by op, the round loop for each reason not to."""

    @staticmethod
    def _plan_results(k=7, blocks=8, B=4, level="io", fault=False, spill=None) -> list:
        """What ``_merge_planned`` returned in one ``merge_runs`` of ``k``
        interleaved ``blocks``-block runs at ``M = 8·B``: empty when the
        merge ran the loop, its item count when it ran the plan."""
        cluster = Cluster(heterogeneous_cluster([1.0], memory_items=8 * B))
        cluster.bus.set_level(level)
        node = cluster.nodes[0]
        if spill is not None:
            node.disk.file_factory = spill.create
        refs = []
        with cluster.step("load"):
            for i in range(k):
                f = node.disk.new_file(B, np.uint32)
                with BlockWriter(f, node.mem) as w:
                    w.write(np.arange(i, blocks * B * k, k, dtype=np.uint32))
                refs.append(RunRef.whole(f))
        if fault:
            install_disk_faults(node.disk, [DiskFault(after_ios=10**9)])
        results = []
        planned = multiway._merge_planned

        def spy(*args):
            results.append(planned(*args))
            return results[-1]

        out = node.disk.new_file(B, np.uint32)
        with mock.patch.object(multiway, "_merge_planned", spy), cluster.step("merge"):
            assert merge_runs(refs, out, node.mem) == k * blocks * B
        np.testing.assert_array_equal(out.to_array(), np.arange(k * blocks * B))
        return results

    def test_seven_by_eight_blocks_at_eight_blocks_of_memory_plan(self):
        assert self._plan_results() == [7 * 8 * 4]

    def test_full_capture_plans(self):
        assert self._plan_results(level="full") == [7 * 8 * 4]

    def test_a_disk_fault_hook_loops(self):
        assert self._plan_results(fault=True) == []

    def test_a_spill_file_loops(self):
        from repro.pdm.filestore import FileStore

        with FileStore() as store:
            assert self._plan_results(spill=store) == []

    def test_a_merge_below_the_floor_loops(self):
        assert self._plan_results(k=3, blocks=5) == []
        assert 3 * 5 < multiway._PLAN_FLOOR
