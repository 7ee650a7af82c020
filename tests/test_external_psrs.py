"""Integration tests for Algorithm 1 (external heterogeneous PSRS)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import (
    Cluster,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
)
from repro.core.external_psrs import PSRSConfig, distribute_array, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import load_balance_bound, max_duplicate_count
from repro.workloads.generators import make_benchmark
from repro.workloads.records import is_sorted, verify_sorted_permutation


def _run(perf_vals, n, seed=0, speeds=None, memory=4096, benchmark=0,
         kernel="event", **cfg_kw):
    perf = PerfVector(perf_vals)
    n = perf.nearest_exact(n)
    speeds = speeds if speeds is not None else [float(v) for v in perf_vals]
    cluster = Cluster(heterogeneous_cluster(speeds, memory_items=memory), kernel=kernel)
    data = make_benchmark(benchmark, n, seed=seed)
    cfg = PSRSConfig(block_items=cfg_kw.pop("block_items", 128),
                     message_items=cfg_kw.pop("message_items", 1024), **cfg_kw)
    res = sort_array(cluster, perf, data, cfg)
    return data[: res.n_items], res, cluster


class TestCorrectness:
    def test_sorted_permutation_heterogeneous(self):
        data, res, _ = _run([1, 1, 4, 4], 20_000)
        verify_sorted_permutation(data, res.to_array())

    def test_sorted_permutation_homogeneous(self):
        data, res, _ = _run([1, 1, 1, 1], 20_000)
        verify_sorted_permutation(data, res.to_array())

    def test_node_outputs_are_ordered_ranges(self):
        _, res, _ = _run([1, 2, 3], 9_000)
        prev_max = None
        for f in res.outputs:
            arr = f.to_array()
            assert is_sorted(arr)
            if arr.size and prev_max is not None:
                assert arr[0] >= prev_max
            if arr.size:
                prev_max = arr[-1]

    def test_single_node_cluster(self):
        data, res, _ = _run([1], 3_000)
        verify_sorted_permutation(data, res.to_array())

    def test_two_nodes(self):
        data, res, _ = _run([1, 3], 8_000)
        verify_sorted_permutation(data, res.to_array())

    @pytest.mark.parametrize("bench", list(range(8)))
    def test_all_benchmarks(self, bench):
        data, res, _ = _run([1, 1, 2, 2], 6_000, benchmark=bench)
        verify_sorted_permutation(data, res.to_array())

    def test_zero_copy_partitions_same_result(self):
        data1, res1, _ = _run([1, 2], 6_000, materialize_partitions=True)
        data2, res2, _ = _run([1, 2], 6_000, materialize_partitions=False)
        np.testing.assert_array_equal(res1.to_array(), res2.to_array())

    def test_random_pivot_method(self):
        data, res, _ = _run([1, 1, 2], 6_000, pivot_method="random")
        verify_sorted_permutation(data, res.to_array())

    def test_replacement_run_policy(self):
        data, res, _ = _run([1, 2], 4_000, run_policy="replacement")
        verify_sorted_permutation(data, res.to_array())

    def test_itemwise_engine(self, reference_merge):
        data, res, _ = _run([1, 2], 3_000)
        verify_sorted_permutation(data, res.to_array())


class TestLoadBalance:
    def test_smax_near_one_uniform(self):
        _, res, _ = _run([1, 1, 4, 4], 40_000)
        assert res.s_max < 1.15  # paper Table 3: 1.094

    def test_homogeneous_smax_tighter(self):
        _, res, _ = _run([1, 1, 1, 1], 40_000)
        assert res.s_max < 1.08  # paper Table 3: 1.0027

    def test_psrs_theorem_bound_holds(self):
        data, res, _ = _run([1, 2, 5], 24_000)
        d = max_duplicate_count(data)
        for i, received in enumerate(res.received_sizes):
            assert received <= load_balance_bound(res.n_items, res.perf, i, d) + res.perf.p

    def test_theorem_holds_under_heavy_duplicates(self):
        data, res, _ = _run([1, 1, 2], 8_000, benchmark=2)  # zipf
        d = max_duplicate_count(data)
        for i, received in enumerate(res.received_sizes):
            assert received <= load_balance_bound(res.n_items, res.perf, i, d) + res.perf.p

    def test_received_sizes_sum_to_n(self):
        _, res, _ = _run([2, 3, 5], 20_000)
        assert sum(res.received_sizes) == res.n_items


class TestCostModel:
    def test_elapsed_positive_and_steps_recorded(self):
        _, res, _ = _run([1, 2], 6_000)
        assert res.elapsed > 0
        assert set(res.step_times) == {
            "1:local-sort",
            "2:pivots",
            "3:partition",
            "4:redistribute",
            "5:final-merge",
        }

    def test_local_sort_dominates(self):
        """The paper's premise: the sort is I/O-bound in steps 1/5, not
        communication-bound.

        Pinned to the lockstep kernel: the paper's per-step times are
        barrier-to-barrier BSP intervals, and under the event kernel a
        step's span also absorbs the clock drift of whichever node
        reaches its first rendezvous last.
        """
        _, res, _ = _run([1, 1, 1, 1], 40_000, message_items=8192,
                         kernel="lockstep")
        comm_heavy = res.step_times["2:pivots"]
        assert res.step_times["1:local-sort"] > 5 * comm_heavy

    def test_hetero_aware_beats_homogeneous_on_loaded_cluster(self):
        """Table 3's central comparison, at reduced scale.

        Lockstep kernel: the paper's 1.96x ratio is measured between
        barrier-delimited runs; overlap-aware scheduling narrows it (the
        misassigned run hides more of its imbalance), which is the event
        kernel's point, not a regression of this claim.
        """
        n = PerfVector([1, 1, 4, 4]).nearest_exact(40_000)
        data = make_benchmark(0, n, seed=3)
        times = {}
        for vals in ((1, 1, 1, 1), (4, 4, 1, 1)):
            cluster = Cluster(paper_cluster(memory_items=4096), kernel="lockstep")
            res = sort_array(
                cluster,
                PerfVector(list(vals)),
                data,
                PSRSConfig(block_items=128, message_items=1024),
            )
            verify_sorted_permutation(data, res.to_array())
            times[vals] = res.elapsed
        ratio = times[(1, 1, 1, 1)] / times[(4, 4, 1, 1)]
        assert 1.5 < ratio < 3.0  # paper: 303.94 / 155.41 = 1.96

    def test_myrinet_close_to_ethernet(self):
        """Table 3: the algorithm is communication-light, so a 10x faster
        network buys almost nothing."""
        from repro.cluster.network import MYRINET

        n = PerfVector([4, 4, 1, 1]).nearest_exact(30_000)
        data = make_benchmark(0, n, seed=5)
        times = []
        for link_spec in (paper_cluster(memory_items=4096),
                          paper_cluster(memory_items=4096, link=MYRINET)):
            # Lockstep: the paper's network comparison is BSP-delimited;
            # under the event kernel transfer waits overlap with disk
            # service, shifting the (still small) network share.
            cluster = Cluster(link_spec, kernel="lockstep")
            res = sort_array(
                cluster,
                PerfVector([4, 4, 1, 1]),
                data,
                PSRSConfig(block_items=128, message_items=8192),
            )
            times.append(res.elapsed)
        assert times[1] <= times[0]  # Myrinet never slower
        assert times[1] > 0.9 * times[0]  # ...but barely better (paper: equal)

    def test_memory_budget_never_violated(self):
        _, res, cluster = _run([1, 2], 8_000, memory=1024)
        for node in cluster.nodes:
            assert node.mem.in_use == 0
            assert node.mem.high_water <= 1024

    def test_io_counters_populated(self):
        _, res, _ = _run([1, 2], 6_000)
        assert res.io.blocks_read > 0
        assert res.io.blocks_written > 0
        assert res.network_messages > 0


class TestValidation:
    def test_perf_size_mismatch(self):
        cluster = Cluster(homogeneous_cluster(2))
        data = make_benchmark(0, 100)
        with pytest.raises(ValueError, match="perf has"):
            from repro.core.external_psrs import sort_distributed

            files = distribute_array(cluster, PerfVector([1, 1]), data, 32)
            sort_distributed(cluster, PerfVector([1, 1, 1]), files)

    def test_input_count_mismatch(self):
        from repro.core.external_psrs import sort_distributed

        cluster = Cluster(homogeneous_cluster(2))
        data = make_benchmark(0, 100)
        files = distribute_array(cluster, PerfVector([1, 1]), data, 32)
        with pytest.raises(ValueError, match="input files"):
            sort_distributed(cluster, PerfVector([1, 1]), files[:1])

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PSRSConfig(block_items=0)
        with pytest.raises(ValueError):
            PSRSConfig(message_items=0)
        with pytest.raises(ValueError):
            PSRSConfig(pivot_method="bogus")
        with pytest.raises(ValueError):
            PSRSConfig(oversample=0)

    def test_distribute_array_portions(self):
        perf = PerfVector([1, 3])
        cluster = Cluster(homogeneous_cluster(2))
        data = make_benchmark(0, 400)
        files = distribute_array(cluster, perf, data, 32)
        assert [f.n_items for f in files] == [100, 300]
        assert cluster.elapsed() == 0.0  # untimed by default


@settings(max_examples=10, deadline=None)
@given(
    vals=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    bench=st.integers(0, 7),
    seed=st.integers(0, 99),
)
def test_property_external_psrs_sorts_everything(vals, bench, seed):
    data, res, cluster = _run(vals, 3_000, seed=seed, benchmark=bench)
    verify_sorted_permutation(data, res.to_array())
    for node in cluster.nodes:
        assert node.mem.in_use == 0
