"""Tests for multi-disk nodes (PDM D > 1), the gather phase, and
merge_many's multi-pass path."""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, ClusterSpec, NodeSpec, homogeneous_cluster
from repro.cluster.node import SimNode
from repro.core.external_psrs import (
    PSRSConfig,
    gather_output,
    merge_many,
    sort_array,
)
from repro.core.perf import PerfVector
from repro.extsort.multiway import RunRef
from repro.obs.events import step_seconds
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

from tests.conftest import file_from_array, make_disk


class TestDiskParallelism:
    def test_service_time_divides_by_d(self):
        p = DiskParams(seek_time=0.01, bandwidth=1e6)
        d1 = SimDisk(p, parallelism=1)
        d4 = SimDisk(p, parallelism=4)
        assert d1.charge_read(100, 4) == pytest.approx(4 * d4.charge_read(100, 4))

    def test_block_count_unchanged(self):
        d4 = SimDisk(DiskParams(), parallelism=4)
        d4.charge_write(8, 4)
        assert d4.stats.blocks_written == 1  # PDM cost measure invariant

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            SimDisk(DiskParams(), parallelism=0)

    def test_node_n_disks(self):
        node = SimNode(0, n_disks=4)
        assert node.disk.parallelism == 4

    def test_sort_speeds_up_with_d(self):
        """Theorem 1's n/D factor, end to end through Algorithm 1."""
        perf = PerfVector([1, 1])
        n = perf.nearest_exact(20_000)
        data = make_benchmark(0, n, seed=0)
        times = {}
        for D in (1, 4):
            spec = ClusterSpec(
                nodes=tuple(
                    NodeSpec(name=f"n{i}", memory_items=1024, n_disks=D)
                    for i in range(2)
                )
            )
            cluster = Cluster(spec)
            res = sort_array(
                cluster, perf, data, PSRSConfig(block_items=128, message_items=4096)
            )
            verify_sorted_permutation(data, res.to_array())
            times[D] = res.elapsed
        # I/O dominates, so ~4x fewer I/O seconds; communication and CPU
        # dilute it below a clean 4x.
        assert 1.8 < times[1] / times[4] <= 4.2


class TestGatherOutput:
    def _sorted_result(self, perf_vals=(1, 2), n=5_000, memory=1024):
        perf = PerfVector(list(perf_vals))
        n = perf.nearest_exact(n)
        data = make_benchmark(0, n, seed=1)
        cluster = Cluster(homogeneous_cluster(perf.p, memory_items=memory))
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=128, message_items=512)
        )
        return cluster, res, data

    def test_gather_concatenates_in_order(self):
        cluster, res, data = self._sorted_result()
        g = gather_output(cluster, res)
        np.testing.assert_array_equal(g.to_array(), np.sort(data))

    def test_gather_lands_on_root_disk(self):
        cluster, res, _ = self._sorted_result((1, 1, 1))
        g = gather_output(cluster, res, root=2)
        assert g.disk is cluster.nodes[2].disk

    def test_gather_charges_network_and_is_traced(self):
        cluster, res, _ = self._sorted_result()
        msgs_before = cluster.network.messages_sent
        gather_output(cluster, res)
        assert cluster.network.messages_sent > msgs_before
        assert "gather" in step_seconds(cluster.bus.events)

    def test_gather_time_excluded_from_sort_elapsed(self):
        cluster, res, _ = self._sorted_result()
        sort_elapsed = res.elapsed
        gather_output(cluster, res)
        assert cluster.elapsed() > sort_elapsed  # gather added on top

    def test_memory_budgets_respected(self):
        cluster, res, _ = self._sorted_result(memory=768)
        gather_output(cluster, res, message_items=10_000)  # clamped internally
        for node in cluster.nodes:
            assert node.mem.in_use == 0


class TestMergeMany:
    def test_multi_pass_when_runs_exceed_order(self, rng):
        """Memory allows a 3-way merge; feed 10 runs -> multiple passes."""
        node = SimNode(0, memory_items=32 * 4)  # B=32 -> order 3
        runs = []
        all_items = []
        for _ in range(10):
            arr = np.sort(rng.integers(0, 10**6, 50)).astype(np.uint32)
            all_items.append(arr)
            runs.append(RunRef.whole(file_from_array(arr, node.disk, 32, node.mem)))
        out = merge_many(runs, node)
        expected = np.sort(np.concatenate(all_items))
        np.testing.assert_array_equal(out.to_array(), expected)
        assert node.mem.in_use == 0

    def test_empty_refs(self):
        node = SimNode(0)
        out = merge_many([], node, B=64)
        assert out.n_items == 0
        assert out.B == 64

    def test_empty_refs_require_explicit_block_size(self):
        node = SimNode(0)
        with pytest.raises(ValueError, match="explicit B"):
            merge_many([], node)

    def test_single_whole_run_returned_directly(self, rng):
        node = SimNode(0)
        arr = np.sort(rng.integers(0, 100, 20)).astype(np.uint32)
        f = file_from_array(arr, node.disk, 8, node.mem)
        out = merge_many([RunRef.whole(f)], node)
        assert out is f  # no copy

    def test_partial_ref_copied_out(self, rng):
        node = SimNode(0)
        arr = np.sort(rng.integers(0, 100, 20)).astype(np.uint32)
        f = file_from_array(arr, node.disk, 8, node.mem)
        out = merge_many([RunRef(f, 5, 15)], node)
        np.testing.assert_array_equal(out.to_array(), arr[5:15])


class TestLinearSpace:
    def test_intermediates_reclaimed(self):
        """After the sort, live storage is ~inputs + outputs only."""
        perf = PerfVector([1, 1])
        n = perf.nearest_exact(10_000)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(homogeneous_cluster(2, memory_items=1024))
        from repro.core.external_psrs import distribute_array, sort_distributed

        inputs = distribute_array(cluster, perf, data, 128)
        res = sort_distributed(
            cluster, perf, inputs, PSRSConfig(block_items=128, message_items=512)
        )
        live_outputs = sum(f.n_items for f in res.outputs)
        live_inputs = sum(f.n_items for f in inputs)
        assert live_outputs == n and live_inputs == n
        # Nothing else left: total bytes written minus cleared ~= in+out.
        # We can't enumerate internal files, but the result files account
        # for the data exactly once each.
        verify_sorted_permutation(data, res.to_array())
