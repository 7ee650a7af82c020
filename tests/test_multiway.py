"""Tests for run cursors and the two k-way merge engines."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extsort.multiway import (
    RunCursor,
    RunRef,
    max_merge_order,
    merge_runs,
)
from repro.pdm.blockfile import BlockFile
from repro.pdm.memory import MemoryBudgetError, MemoryManager
from repro.workloads.records import is_sorted, verify_permutation

from tests.conftest import file_from_array, make_disk


class TestMaxMergeOrder:
    def test_basic(self):
        assert max_merge_order(MemoryManager(capacity=64), B=8) == 7

    def test_unlimited(self):
        assert max_merge_order(MemoryManager.unlimited(), B=8) > 1000

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            max_merge_order(MemoryManager(capacity=16), B=8)


class TestRunRef:
    def test_whole(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        r = RunRef.whole(f)
        assert (r.start, r.stop, r.length) == (0, 20, 20)

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
            got.extend(c.take_leq(c.buffer_max()).tolist())
        assert got == list(range(20))
        assert mem.in_use == 0

    def test_subrange_mid_block(self, disk):
        f = file_from_array(np.arange(32, dtype=np.uint32), disk, B=8)
        c = RunCursor(RunRef(f, 5, 19), MemoryManager.unlimited())
        got = []
        while not c.exhausted:
            got.extend(c.take_leq(c.buffer_max()).tolist())
        assert got == list(range(5, 19))

    def test_take_leq_partial(self, disk):
        f = file_from_array(np.arange(8, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=16)
        c = RunCursor(RunRef.whole(f), mem)
        out = c.take_leq(3)
        np.testing.assert_array_equal(out, [0, 1, 2, 3])
        assert mem.in_use == 4  # 4 items still buffered
        c.drop()
        assert mem.in_use == 0

    def test_take_leq_below_consumed_key_takes_nothing(self, disk):
        # Regression: a horizon below an already-consumed key used to cut
        # before the read position and release a negative item count.
        f = file_from_array(np.arange(8, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=16)
        c = RunCursor(RunRef.whole(f), mem)
        np.testing.assert_array_equal(c.take_leq(5), [0, 1, 2, 3, 4, 5])
        out = c.take_leq(2)
        assert out.size == 0 and out.dtype == np.uint32
        assert mem.in_use == 2  # 6 and 7 are still buffered, untouched
        np.testing.assert_array_equal(c.take_leq(7), [6, 7])
        assert c.exhausted and mem.in_use == 0

    def test_take_one_and_peek(self, disk):
        f = file_from_array(np.array([3, 7], dtype=np.uint32), disk, B=8)
        c = RunCursor(RunRef.whole(f), MemoryManager.unlimited())
        assert c.peek() == 3
        assert c.take_one() == 3
        assert c.take_one() == 7
        assert c.peek() is None
        assert c.exhausted

    def test_exhausted_buffer_max_raises(self, disk):
        f = BlockFile(disk, B=8)
        c = RunCursor(RunRef.whole(f), MemoryManager.unlimited())
        assert c.exhausted
        with pytest.raises(RuntimeError):
            c.buffer_max()

    def test_memory_budget_enforced(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=7)  # less than one block
        c = RunCursor(RunRef.whole(f), mem)
        with pytest.raises(MemoryBudgetError):
            c.buffer_max()


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
        mem = MemoryManager.unlimited()
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
            merge_runs(refs, out, MemoryManager.unlimited(), engine="bogus")


def _observed_merge(run_arrays, engine, B):
    """Output, the disk's counters for the merge alone, the memory
    high-water mark and the compute charged by one ``merge_runs``."""
    disk = make_disk()
    mem = MemoryManager.unlimited()
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
