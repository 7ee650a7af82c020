"""Tests for SimDisk charging, IOStats and BlockFile invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pdm.blockfile import BlockFile, BlockReader, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryBudgetError, MemoryManager
from repro.pdm.stats import IOStats

from tests.conftest import file_from_array, make_disk


class TestDiskParams:
    def test_access_cost(self):
        p = DiskParams(seek_time=0.01, bandwidth=100.0)
        assert p.access_cost(50) == pytest.approx(0.01 + 0.5)

    def test_rejects_negative_seek(self):
        with pytest.raises(ValueError):
            DiskParams(seek_time=-1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            DiskParams(bandwidth=0.0)


class TestSimDisk:
    def test_charges_observer(self):
        seen = []
        d = SimDisk(DiskParams(seek_time=1.0, bandwidth=4.0), observer=seen.append)
        d.charge_write(2, itemsize=4)  # 1 + 8/4 = 3 s
        assert seen == [pytest.approx(3.0)]

    def test_slowdown_scales_cost(self):
        d1 = SimDisk(DiskParams(seek_time=1.0, bandwidth=4.0), slowdown=1.0)
        d4 = SimDisk(DiskParams(seek_time=1.0, bandwidth=4.0), slowdown=4.0)
        assert d4.charge_read(2, 4) == pytest.approx(4 * d1.charge_read(2, 4))

    def test_counters(self):
        d = make_disk()
        d.charge_read(8, 4)
        d.charge_write(5, 4)
        assert d.stats.blocks_read == 1
        assert d.stats.blocks_written == 1
        assert d.stats.items_read == 8
        assert d.stats.items_written == 5
        assert d.stats.block_ios == 2

    def test_unique_file_names(self):
        d = make_disk()
        names = {d.next_file_name() for _ in range(100)}
        assert len(names) == 100


class TestIOStats:
    def test_add_and_sub(self):
        a = IOStats(blocks_read=3, items_read=24, busy_time=1.0)
        b = IOStats(blocks_written=2, items_written=10, busy_time=0.5)
        c = a + b
        assert c.blocks_read == 3 and c.blocks_written == 2
        assert (c - a).blocks_written == 2
        assert c.busy_time == pytest.approx(1.5)

    def test_merge(self):
        parts = [IOStats(blocks_read=i) for i in range(5)]
        assert IOStats.merge(parts).blocks_read == 10

    def test_labels_roundtrip(self):
        s = IOStats()
        s.bump("phase1", 3)
        s.bump("phase1")
        t = s.snapshot()
        s.bump("phase2")
        assert t.labels == {"phase1": 4}
        assert (s - t).labels == {"phase2": 1}

    def test_reset(self):
        s = IOStats(blocks_read=5)
        s.reset()
        assert s.block_ios == 0


class TestBlockFile:
    def test_roundtrip(self, disk):
        f = file_from_array(np.arange(100, dtype=np.uint32), disk, B=8)
        assert f.n_items == 100
        assert f.n_blocks == 13  # 12 full + 1 partial of 4
        np.testing.assert_array_equal(f.to_array(), np.arange(100))

    def test_append_oversized_block_rejected(self, disk):
        f = BlockFile(disk, B=8)
        with pytest.raises(ValueError, match="exceeds B"):
            f.append_block(np.arange(9))

    def test_append_after_partial_rejected(self, disk):
        f = BlockFile(disk, B=8)
        f.append_block(np.arange(3))
        with pytest.raises(ValueError, match="partial block"):
            f.append_block(np.arange(8))

    def test_append_empty_is_noop(self, disk):
        f = BlockFile(disk, B=8)
        f.append_block(np.empty(0, dtype=np.uint32))
        assert f.n_blocks == 0
        assert disk.stats.block_ios == 0

    def test_read_block_charges(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        before = disk.stats.blocks_read
        blk = f.read_block(1)
        np.testing.assert_array_equal(blk, np.arange(8, 16))
        assert disk.stats.blocks_read == before + 1

    def test_inspect_is_free(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        before = disk.stats.block_ios
        f.inspect_block(0)
        f.to_array()
        assert disk.stats.block_ios == before

    def test_blocks_detached_from_caller_buffer(self, disk):
        f = BlockFile(disk, B=4)
        buf = np.arange(4, dtype=np.uint32)
        f.append_block(buf)
        buf[:] = 99
        np.testing.assert_array_equal(f.inspect_block(0), np.arange(4))

    def test_clear(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        f.clear()
        assert f.n_items == 0 and f.n_blocks == 0

    def test_rejects_2d_block(self, disk):
        f = BlockFile(disk, B=8)
        with pytest.raises(ValueError, match="1-D"):
            f.append_block(np.zeros((2, 2)))


class TestBlockWriter:
    def test_packs_compactly(self, disk):
        mem = MemoryManager.unlimited()
        f = BlockFile(disk, B=8)
        with BlockWriter(f, mem) as w:
            for chunk in (np.arange(5), np.arange(5), np.arange(3)):
                w.write(chunk)
        assert f.n_items == 13
        assert [f.inspect_block(i).size for i in range(f.n_blocks)] == [8, 5]

    def test_write_one(self, disk):
        mem = MemoryManager.unlimited()
        f = BlockFile(disk, B=4)
        with BlockWriter(f, mem) as w:
            for i in range(6):
                w.write_one(i)
        np.testing.assert_array_equal(f.to_array(), np.arange(6))

    def test_holds_one_block_of_memory(self, disk):
        mem = MemoryManager(capacity=16)
        f = BlockFile(disk, B=8)
        w = BlockWriter(f, mem)
        assert mem.in_use == 8
        w.close()
        assert mem.in_use == 0

    def test_write_after_close_rejected(self, disk):
        mem = MemoryManager.unlimited()
        f = BlockFile(disk, B=8)
        w = BlockWriter(f, mem)
        w.close()
        with pytest.raises(ValueError, match="closed"):
            w.write(np.arange(3))

    def test_double_close_ok(self, disk):
        mem = MemoryManager(capacity=16)
        w = BlockWriter(BlockFile(disk, B=8), mem)
        w.close()
        w.close()
        assert mem.in_use == 0

    @pytest.mark.parametrize("staged", [0, 3])
    def test_faulted_block_stays_staged_for_close(self, disk, staged):
        # Block writes are atomic, and a block whose write faulted is
        # still the writer's to flush: close() retries exactly that block,
        # whether it went through the staging buffer or straight from the
        # caller's array.
        f = BlockFile(disk, B=4)
        w = BlockWriter(f, MemoryManager.unlimited())
        w.write(np.arange(staged))
        calls = []

        def hook(d, op, n_items, itemsize):
            calls.append(op)
            if len(calls) == 2:
                raise OSError("injected")

        disk.fault_hook = hook
        with pytest.raises(OSError, match="injected"):
            w.write(np.arange(staged, 14))
        assert f.n_blocks == 1 and w.items_written == staged
        w.close()
        np.testing.assert_array_equal(f.to_array(), np.arange(8))
        assert disk.stats.blocks_written == 2

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=200))
    def test_roundtrip_any_items(self, items):
        disk = make_disk()
        mem = MemoryManager.unlimited()
        f = BlockFile(disk, B=7)
        with BlockWriter(f, mem) as w:
            w.write(np.asarray(items, dtype=np.uint32))
        np.testing.assert_array_equal(f.to_array(), np.asarray(items, dtype=np.uint32))


class TestBlockReader:
    def test_iterates_blocks_in_order(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=16)
        got = np.concatenate(list(BlockReader(f, mem)))
        np.testing.assert_array_equal(got, np.arange(20))
        assert mem.in_use == 0

    def test_range_reader(self, disk):
        f = file_from_array(np.arange(32, dtype=np.uint32), disk, B=8)
        mem = MemoryManager.unlimited()
        got = np.concatenate(list(BlockReader(f, mem, start=1, stop=3)))
        np.testing.assert_array_equal(got, np.arange(8, 24))

    def test_invalid_range_rejected(self, disk):
        f = file_from_array(np.arange(16, dtype=np.uint32), disk, B=8)
        with pytest.raises(ValueError, match="invalid block range"):
            BlockReader(f, MemoryManager.unlimited(), start=1, stop=5)

    def test_read_all_respects_budget(self, disk):
        f = file_from_array(np.arange(64, dtype=np.uint32), disk, B=8)
        mem = MemoryManager(capacity=32)
        with pytest.raises(MemoryBudgetError):
            BlockReader(f, mem).read_all()

    def test_read_all(self, disk):
        f = file_from_array(np.arange(20, dtype=np.uint32), disk, B=8)
        got = BlockReader(f, MemoryManager(capacity=32)).read_all()
        np.testing.assert_array_equal(got, np.arange(20))
