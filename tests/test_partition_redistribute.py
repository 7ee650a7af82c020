"""Tests for binary partitioning (step 3) and redistribution (step 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster, heterogeneous_cluster, homogeneous_cluster
from repro.core.partition import (
    lower_bound_offset,
    materialize_partitions,
    partition_array,
    partition_offsets,
    partition_refs,
)
from repro.core.redistribute import message_items_for, redistribute
from repro.extsort.multiway import RunRef
from repro.pdm.memory import MemoryManager

from tests.conftest import file_from_array, make_disk


class TestLowerBoundOffset:
    def _file(self, arr, B=8):
        disk = make_disk()
        return file_from_array(np.asarray(arr, dtype=np.uint32), disk, B), disk

    def test_matches_searchsorted(self, rng):
        data = np.sort(rng.integers(0, 1000, 200)).astype(np.uint32)
        f, _ = self._file(data)
        mem = MemoryManager(None)
        for pivot in [0, 57, 500, 999, 1000]:
            assert lower_bound_offset(f, pivot, mem) == int(
                np.searchsorted(data, pivot, side="right")
            )

    def test_empty_file(self):
        f, _ = self._file([])
        assert lower_bound_offset(f, 5, MemoryManager(None)) == 0

    def test_all_below(self):
        f, _ = self._file([10, 20, 30])
        assert lower_bound_offset(f, 5, MemoryManager(None)) == 0

    def test_all_at_or_below_pivot(self):
        f, _ = self._file([10, 20, 30])
        assert lower_bound_offset(f, 30, MemoryManager(None)) == 3

    def test_logarithmic_reads(self):
        data = np.arange(2**12, dtype=np.uint32)
        f, disk = self._file(data, B=8)  # 512 blocks
        before = disk.stats.blocks_read
        lower_bound_offset(f, 1234, MemoryManager(None))
        reads = disk.stats.blocks_read - before
        assert reads <= 12  # ~log2(512) + 1, far below 512

    @given(
        st.lists(st.integers(0, 100), max_size=100),
        st.integers(-1, 101),
    )
    def test_property_equals_numpy(self, items, pivot):
        data = np.sort(np.asarray(items, dtype=np.int64)).astype(np.uint32)
        pivot = max(0, pivot)
        f, _ = self._file(data, B=4)
        got = lower_bound_offset(f, np.uint32(pivot), MemoryManager(None))
        assert got == int(np.searchsorted(data, pivot, side="right"))


class TestPartitionOffsets:
    def test_cuts_are_monotone_and_complete(self, rng):
        data = np.sort(rng.integers(0, 10**6, 500)).astype(np.uint32)
        f = file_from_array(data, make_disk(), B=16)
        pivots = np.sort(rng.integers(0, 10**6, 3)).astype(np.uint32)
        cuts = partition_offsets(f, pivots, MemoryManager(None))
        assert cuts[0] == 0 and cuts[-1] == 500
        assert cuts == sorted(cuts)

    def test_unsorted_pivots_rejected(self, rng):
        f = file_from_array(np.arange(10, dtype=np.uint32), make_disk(), B=8)
        with pytest.raises(ValueError, match="non-decreasing"):
            partition_offsets(f, [5, 3], MemoryManager(None))

    def test_no_pivots_single_partition(self):
        f = file_from_array(np.arange(10, dtype=np.uint32), make_disk(), B=8)
        assert partition_offsets(f, [], MemoryManager(None)) == [0, 10]

    def test_refs_cover_file(self, rng):
        data = np.sort(rng.integers(0, 100, 64)).astype(np.uint32)
        f = file_from_array(data, make_disk(), B=8)
        cuts = partition_offsets(f, [25, 50, 75], MemoryManager(None))
        refs = partition_refs(f, cuts)
        assert sum(r.stop - r.start for r in refs) == 64
        joined = np.concatenate(
            [data[r.start : r.stop] for r in refs]
        )
        np.testing.assert_array_equal(joined, data)


class TestMaterialize:
    def test_contents_match_ranges(self, rng):
        disk = make_disk()
        data = np.sort(rng.integers(0, 1000, 100)).astype(np.uint32)
        f = file_from_array(data, disk, B=8)
        mem = MemoryManager(capacity=64)
        cuts = partition_offsets(f, [300, 600], mem)
        files = materialize_partitions(f, cuts, disk, mem)
        assert mem.in_use == 0
        for j, pf in enumerate(files):
            np.testing.assert_array_equal(pf.to_array(), data[cuts[j] : cuts[j + 1]])

    def test_io_within_paper_bound(self, rng):
        """Step 3 bound: materialising costs <= 2Q item I/Os (+ binary search)."""
        disk = make_disk()
        data = np.sort(rng.integers(0, 10**6, 2048)).astype(np.uint32)
        f = file_from_array(data, disk, B=32)
        mem = MemoryManager(capacity=256)
        before = disk.stats.item_ios
        cuts = partition_offsets(f, [10**5, 5 * 10**5], mem)
        materialize_partitions(f, cuts, disk, mem)
        measured = disk.stats.item_ios - before
        search_allowance = 3 * 32 * 12  # p-1 searches * B * log blocks
        assert measured <= 2 * 2048 + search_allowance


class TestPartitionArray:
    def test_matches_file_version(self, rng):
        data = np.sort(rng.integers(0, 1000, 200)).astype(np.uint32)
        pivots = [100, 500, 900]
        parts = partition_array(data, pivots)
        assert sum(x.size for x in parts) == 200
        np.testing.assert_array_equal(np.concatenate(parts), data)
        assert all(np.all(parts[0] <= pivots[0]) for _ in [0])

    def test_empty(self):
        parts = partition_array(np.empty(0, dtype=np.uint32), [5])
        assert len(parts) == 2 and all(x.size == 0 for x in parts)


class TestMessageItemsFor:
    def test_rounds_to_block_multiple(self):
        assert message_items_for(1000, 64, None) == 960

    def test_sub_block_messages_kept(self):
        # The paper's packet-size sweep goes down to 8-integer messages.
        assert message_items_for(8, 64, None) == 8

    def test_at_least_block_rounds_down(self):
        assert message_items_for(100, 64, None) == 64

    def test_memory_cap(self):
        # capacity 256 -> cap at 128 rounded to blocks of 64 -> 128
        assert message_items_for(10_000, 64, 256) == 128

    def test_invalid(self):
        with pytest.raises(ValueError):
            message_items_for(0, 64, None)


class TestRedistribute:
    def _setup(self, p=3, items_per_pair=50, B=8, seed=0):
        cluster = Cluster(homogeneous_cluster(p))
        rng = np.random.default_rng(seed)
        partitions = []
        expected = [[None] * p for _ in range(p)]
        for i in range(p):
            node = cluster.nodes[i]
            row = []
            pieces = []
            for j in range(p):
                piece = np.sort(rng.integers(0, 1000, items_per_pair)).astype(np.uint32)
                expected[i][j] = piece
                pieces.append(piece)
            whole = np.concatenate(pieces)
            f = file_from_array(whole, node.disk, B)
            offset = 0
            for j in range(p):
                row.append(RunRef(f, offset, offset + items_per_pair))
                offset += items_per_pair
            partitions.append(row)
        return cluster, partitions, expected

    def test_delivers_every_partition(self):
        cluster, partitions, expected = self._setup()
        received, report = self._run(cluster, partitions)
        for j in range(3):
            for i in range(3):
                np.testing.assert_array_equal(
                    received[j][i].to_array(), expected[i][j]
                )
        assert report.items_moved == 9 * 50

    def _run(self, cluster, partitions, message_items=16):
        from repro.core.redistribute import redistribute

        return redistribute(cluster, partitions, message_items)

    def test_received_files_live_on_receiver_disk(self):
        cluster, partitions, _ = self._setup()
        received, _ = self._run(cluster, partitions)
        for j in range(3):
            for i in range(3):
                assert received[j][i].disk is cluster.nodes[j].disk

    def test_local_partition_no_network(self):
        cluster = Cluster(homogeneous_cluster(1))
        f = file_from_array(np.arange(20, dtype=np.uint32), cluster.nodes[0].disk, 8)
        received, report = redistribute(cluster, [[RunRef.whole(f)]], 16)
        assert cluster.network.messages_sent == 0
        np.testing.assert_array_equal(received[0][0].to_array(), np.arange(20))

    def test_message_count_scales_with_chunking(self):
        cluster, partitions, _ = self._setup()
        _, small = self._run(Cluster(homogeneous_cluster(3)), partitions, 8)
        # partitions reference files on the first cluster's disks; rebuild
        cluster2, partitions2, _ = self._setup()
        _, big = redistribute(cluster2, partitions2, 64)
        assert small.messages > big.messages

    def _setup_realistic(self, items_per_pair=4000, B=256):
        """Paper-like proportions: block seeks cheap per item relative to
        per-message latency, so tiny messages lose (the in-text result)."""
        from repro.cluster.machine import ClusterSpec, NodeSpec
        from repro.pdm.disk import DiskParams

        fast_disk = DiskParams(seek_time=1e-4, bandwidth=100e6)
        spec = ClusterSpec(
            nodes=tuple(NodeSpec(name=f"n{i}", disk=fast_disk) for i in range(3))
        )
        cluster = Cluster(spec)
        rng = np.random.default_rng(0)
        partitions = []
        for i in range(3):
            pieces = [
                np.sort(rng.integers(0, 1000, items_per_pair)).astype(np.uint32)
                for _ in range(3)
            ]
            f = file_from_array(np.concatenate(pieces), cluster.nodes[i].disk, B)
            partitions.append(
                [
                    RunRef(f, j * items_per_pair, (j + 1) * items_per_pair)
                    for j in range(3)
                ]
            )
        return cluster, partitions

    def test_small_messages_cost_more_time(self):
        c1, p1 = self._setup_realistic()
        redistribute(c1, p1, 8)  # 8-integer messages: the paper's disaster
        t_small = c1.elapsed()
        c2, p2 = self._setup_realistic()
        redistribute(c2, p2, 8192)
        t_big = c2.elapsed()
        assert t_small > 2 * t_big

    def test_shape_validated(self):
        cluster = Cluster(homogeneous_cluster(2))
        with pytest.raises(ValueError, match="2x2"):
            redistribute(cluster, [[None]], 16)

    def test_memory_budget_respected(self):
        cluster = Cluster(homogeneous_cluster(2, memory_items=64))
        rng = np.random.default_rng(0)
        partitions = []
        for i in range(2):
            node = cluster.nodes[i]
            data = np.sort(rng.integers(0, 100, 60)).astype(np.uint32)
            f = file_from_array(data, node.disk, 8, mem=node.mem)
            partitions.append([RunRef(f, 0, 30), RunRef(f, 30, 60)])
        received, _ = redistribute(cluster, partitions, message_items=16)
        for node in cluster.nodes:
            assert node.mem.in_use == 0


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(
        st.lists(st.integers(0, 40), min_size=2, max_size=2), min_size=2, max_size=2
    ),
    message_items=st.integers(1, 64),
)
def test_property_redistribute_preserves_data(sizes, message_items):
    p = 2
    cluster = Cluster(homogeneous_cluster(p))
    rng = np.random.default_rng(1)
    partitions, expected = [], {}
    for i in range(p):
        pieces = [
            np.sort(rng.integers(0, 100, sizes[i][j])).astype(np.uint32)
            for j in range(p)
        ]
        whole = np.concatenate(pieces) if any(x.size for x in pieces) else np.empty(0, np.uint32)
        f = file_from_array(whole, cluster.nodes[i].disk, 4)
        row, off = [], 0
        for j in range(p):
            row.append(RunRef(f, off, off + sizes[i][j]))
            expected[(i, j)] = pieces[j]
            off += sizes[i][j]
        partitions.append(row)
    received, report = redistribute(cluster, partitions, message_items)
    for j in range(p):
        for i in range(p):
            np.testing.assert_array_equal(received[j][i].to_array(), expected[(i, j)])
    assert report.items_moved == sum(sum(s) for s in sizes)
