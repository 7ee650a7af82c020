"""Tests for real-file-backed block files and the spill store."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.blockfile import BlockWriter
from repro.pdm.filestore import DiskBackedBlockFile, FileStore
from repro.pdm.memory import MemoryManager

from tests.conftest import make_disk

#: Appends a block under a file-size limit that leaves room for half of
#: it (SIGXFSZ ignored, so the write fails with EFBIG), lifts the limit,
#: appends another block and reports what the host file then holds.
SHORT_WRITE = """
import json, os, resource, signal, sys
import numpy as np
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.filestore import DiskBackedBlockFile

disk = SimDisk(DiskParams(seek_time=1e-3, bandwidth=50e6))
f = DiskBackedBlockFile(disk, B=256, directory=sys.argv[1])
f.append_block(np.arange(256))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (1536, hard))
try:
    f.append_block(np.arange(256, 512))
    error = None
except OSError as exc:
    error = exc.errno
size = os.path.getsize(f.path)
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
f.append_block(np.arange(1000, 1256))
print(json.dumps({
    "error": error,
    "size_after_failure": size,
    "n_blocks": f.n_blocks,
    "block1": f.read_block(1).tolist(),
    "blocks_written": disk.stats.blocks_written,
}))
"""


class TestDiskBackedBlockFile:
    def test_roundtrip(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        mem = MemoryManager(None)
        data = np.arange(100, dtype=np.uint32)
        with BlockWriter(f, mem) as w:
            w.write(data)
        np.testing.assert_array_equal(f.to_array(), data)
        assert f.n_blocks == 13

    def test_payload_really_on_host_fs(self, tmp_path, disk):
        f = DiskBackedBlockFile(disk, B=8, directory=str(tmp_path))
        with BlockWriter(f, MemoryManager(None)) as w:
            w.write(np.arange(64, dtype=np.uint32))
        assert os.path.getsize(f.path) == 64 * 4

    def test_read_block_matches_memory_variant(self, tmp_path, disk):
        data = np.random.default_rng(0).integers(0, 2**32, 77).astype(np.uint32)
        f = DiskBackedBlockFile(disk, B=16, directory=str(tmp_path))
        with BlockWriter(f, MemoryManager(None)) as w:
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

    @pytest.mark.parametrize(
        "size, got", [(24, 8), (26, 10)], ids=["whole-items", "torn-item"]
    )
    def test_truncated_file_raises_instead_of_a_short_block(
        self, tmp_path, disk, size, got
    ):
        """A 2-block file cut to 1.5 blocks (or mid-item) must not read
        back a short block charged as a full one."""
        f = DiskBackedBlockFile(disk, B=4, directory=str(tmp_path))
        f.append_block(np.arange(4))
        f.append_block(np.arange(4, 8))
        os.truncate(f.path, size)
        with pytest.raises(OSError) as exc:
            f.read_block(1)
        msg = str(exc.value)
        assert f.path in msg and "block 1" in msg
        assert "needs 16 bytes" in msg and f"read {got}" in msg
        assert disk.stats.blocks_read == 0
        np.testing.assert_array_equal(f.read_block(0), np.arange(4))

    def test_short_write_is_cut_back_to_the_last_whole_block(self, tmp_path):
        """An append that fails partway leaves no stray bytes: the next
        block lands at its own offset.  Run in a subprocess, so the
        file-size limit cannot reach pytest."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", SHORT_WRITE, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            check=True, capture_output=True, text=True, timeout=120,
        )
        got = json.loads(out.stdout)
        assert got["error"] == errno.EFBIG
        assert got["size_after_failure"] == 256 * 4
        assert got["n_blocks"] == 2
        assert got["block1"] == list(range(1000, 1256))
        assert got["blocks_written"] == 3  # the failed attempt stays charged

    def test_sort_on_a_truncated_spill_file_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        """One spilled block loses its last item on the way to the host
        file; ``repro sort`` reports that as bad input, not a wrong sort."""
        from repro.cli import main

        store_span = DiskBackedBlockFile._store_span
        appends = []

        def short_append(self, parts, size):
            store_span(self, parts, size)
            appends.append(self.path)
            if len(appends) == 10:
                os.truncate(self.path, os.path.getsize(self.path) - self.itemsize)

        monkeypatch.setattr(DiskBackedBlockFile, "_store_span", short_append)
        code = main(["sort", "--n", "4000", "--spill-dir", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("repro sort: error: spill file")
        assert "truncated" in err[0]

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

            def _store_range(self, lo, hi):
                self.loads.append(lo // self.B)
                return super()._store_range(lo, hi)

        data = np.random.default_rng(1).integers(0, 2**32, 77).astype(np.uint32)
        f = Counting(disk, B=8, directory=str(tmp_path))
        f.loads = []
        with BlockWriter(f, MemoryManager(None)) as w:
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
            with BlockWriter(f, MemoryManager(None)) as w:
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

    def test_two_stores_on_one_directory_keep_their_own_blocks(self, tmp_path, disk):
        """Two runs sharing a spill directory: the second used to create
        the first's ``f000001.blk`` again and overwrite its block."""
        a = FileStore(str(tmp_path)).create(disk, B=4)
        b = FileStore(str(tmp_path)).create(disk, B=4)
        assert os.path.dirname(a.path) != os.path.dirname(b.path)
        a.append_block(np.array([1, 2, 3, 4]))
        b.append_block(np.array([9, 9, 9, 9]))
        np.testing.assert_array_equal(a.read_block(0), [1, 2, 3, 4])
        np.testing.assert_array_equal(b.read_block(0), [9, 9, 9, 9])

    def test_debris_in_the_directory_is_left_untouched(self, tmp_path, disk):
        debris = tmp_path / "f000001.blk"
        debris.write_bytes(b"an earlier run")
        store = FileStore(str(tmp_path))
        store.create(disk, B=4).append_block(np.arange(4))
        store.cleanup()
        assert debris.read_bytes() == b"an earlier run"
        assert sorted(os.listdir(tmp_path)) == ["f000001.blk"]

    def test_sort_leaves_its_spill_directory_empty(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sort", "--n", "4000", "--spill-dir", str(tmp_path)]) == 0
        assert "(verified)" in capsys.readouterr().out
        assert os.listdir(tmp_path) == []

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
