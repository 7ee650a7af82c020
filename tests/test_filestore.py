"""Tests for real-file-backed block files and the spill store."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.blockfile import BlockWriter
from repro.pdm.filestore import DiskBackedBlockFile, FileStore
from repro.pdm.memory import MemoryManager

from tests.conftest import make_disk


class TestDiskBackedBlockFile:
    def test_roundtrip(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        mem = MemoryManager.unlimited()
        data = np.arange(100, dtype=np.uint32)
        with BlockWriter(f, mem) as w:
            w.write(data)
        np.testing.assert_array_equal(f.to_array(), data)
        assert f.n_blocks == 13

    def test_payload_really_on_host_fs(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        with BlockWriter(f, MemoryManager.unlimited()) as w:
            w.write(np.arange(64, dtype=np.uint32))
        assert os.path.getsize(f.path) == 64 * 4

    def test_read_block_matches_memory_variant(self, tmp_path, disk):
        data = np.random.default_rng(0).integers(0, 2**32, 77).astype(np.uint32)
        f = DiskBackedBlockFile(disk, B=16, directory=str(tmp_path))
        with BlockWriter(f, MemoryManager.unlimited()) as w:
            w.write(data)
        np.testing.assert_array_equal(f.read_block(2), data[32:48])
        np.testing.assert_array_equal(f.read_block(4), data[64:77])

    def test_charges_disk_like_memory_variant(self, tmp_path):
        disk = make_disk()
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        f.append_block(np.arange(8))
        f.read_block(0)
        assert disk.stats.blocks_written == 1
        assert disk.stats.blocks_read == 1

    def test_clear_truncates(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        f.append_block(np.arange(8))
        f.clear()
        assert f.n_items == 0
        assert os.path.getsize(f.path) == 0

    def test_out_of_range_read(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        with pytest.raises(IndexError):
            f.read_block(0)

    def test_delete(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        f.append_block(np.arange(4))
        path = f.path
        f.delete()
        assert not os.path.exists(path)

    def test_partial_block_invariant_kept(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        f.append_block(np.arange(3))
        with pytest.raises(ValueError, match="partial block"):
            f.append_block(np.arange(8))

    def test_each_block_is_host_read_once(self, tmp_path, disk):
        """Sizing a reservation is directory metadata (``block_items``):
        run formation and ``read_all`` open the host file once per block,
        not once to learn its length and again to read it."""
        from repro.extsort.runs import CollectingSink, form_runs
        from repro.pdm.blockfile import BlockReader

        class Counting(DiskBackedBlockFile):
            loads: list[int]

            def _store_load(self, index):
                self.loads.append(index)
                return super()._store_load(index)

        data = np.random.default_rng(1).integers(0, 2**32, 77).astype(np.uint32)
        f = Counting(disk, B=8, directory=str(tmp_path))
        f.loads = []
        with BlockWriter(f, MemoryManager.unlimited()) as w:
            w.write(data)
        assert [f.block_items(i) for i in range(f.n_blocks)] == [8] * 9 + [5]
        assert f.loads == []  # metadata never touches the payload

        for policy in ("load", "replacement"):
            mem = MemoryManager(32)
            sink = CollectingSink(disk, 8, np.uint32, mem)
            form_runs(f, sink, mem, policy=policy)
            assert sorted(f.loads) == list(range(f.n_blocks)), policy
            assert sum(r.n_items for r in sink.runs) == data.size
            f.loads.clear()

        out = BlockReader(f, MemoryManager(80), start=2).read_all()
        np.testing.assert_array_equal(out, data[16:])
        assert f.loads == list(range(2, f.n_blocks))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=150))
    def test_property_roundtrip(self, items):
        disk = make_disk()
        with FileStore() as store:
            f = store.create(disk, B=7)
            with BlockWriter(f, MemoryManager.unlimited()) as w:
                w.write(np.asarray(items, dtype=np.uint32))
            np.testing.assert_array_equal(
                f.to_array(), np.asarray(items, dtype=np.uint32)
            )


class TestFileStore:
    def test_creates_distinct_files(self, disk):
        with FileStore() as store:
            a = store.create(disk, B=8)
            b = store.create(disk, B=8)
            assert a.path != b.path
            assert store.files_created == 2

    def test_cleanup_removes_directory(self, disk):
        store = FileStore()
        store.create(disk, B=8).append_block(np.arange(4))
        d = store.directory
        store.cleanup()
        assert not os.path.isdir(d)

    def test_explicit_directory_not_removed(self, tmp_path, disk):
        d = str(tmp_path / "spill")
        store = FileStore(directory=d)
        store.create(disk, B=8)
        store.cleanup()
        assert os.path.isdir(d)  # caller-owned directory is kept

    def test_bytes_on_disk(self, disk):
        with FileStore() as store:
            f = store.create(disk, B=8)
            f.append_block(np.arange(8, dtype=np.uint32))
            assert store.bytes_on_disk() == 32


class TestFactoryIntegration:
    def test_polyphase_spills_to_real_files(self, rng):
        """Install the store on a disk: every intermediate file (runs,
        tapes, output) lives on the host filesystem."""
        from repro.extsort.polyphase import polyphase_sort
        from repro.workloads.records import verify_sorted_permutation

        disk = make_disk()
        with FileStore() as store:
            disk.file_factory = store.create
            mem = MemoryManager(capacity=64)
            data = rng.integers(0, 2**31, 600).astype(np.uint32)
            src = store.create(disk, B=8)
            with BlockWriter(src, mem) as w:
                w.write(data)
            res = polyphase_sort(src, disk, mem, n_tapes=4)
            assert isinstance(res.output, DiskBackedBlockFile)
            verify_sorted_permutation(data, res.output.to_array())
            assert store.files_created > 4  # runs + tapes + source

    def test_full_psrs_on_file_backed_cluster(self):
        """End-to-end Algorithm 1 with every node spilling to real files."""
        from repro.cluster.machine import Cluster, heterogeneous_cluster
        from repro.core.external_psrs import PSRSConfig, sort_array
        from repro.core.perf import PerfVector
        from repro.workloads.generators import make_benchmark
        from repro.workloads.records import verify_sorted_permutation

        perf = PerfVector([1, 3])
        n = perf.nearest_exact(4_000)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(heterogeneous_cluster([1.0, 3.0], memory_items=512))
        with FileStore() as store:
            for node in cluster.nodes:
                node.disk.file_factory = store.create
            res = sort_array(
                cluster, perf, data, PSRSConfig(block_items=64, message_items=256)
            )
            verify_sorted_permutation(data, res.to_array())
            assert all(isinstance(f, DiskBackedBlockFile) for f in res.outputs)
