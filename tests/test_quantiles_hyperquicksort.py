"""Tests for exact-quantile pivots (§3.2 extension) and heterogeneous
hyperquicksort (§6 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster, heterogeneous_cluster, homogeneous_cluster
from repro.core.external_psrs import PSRSConfig, distribute_array, sort_array
from repro.core.hyperquicksort import (
    sort_array_hyperquicksort,
    sort_hyperquicksort,
    split_group,
)
from repro.core.perf import PerfVector
from repro.core.quantiles import (
    boundary_targets,
    exact_quantile_pivots,
)
from repro.extsort.polyphase import polyphase_sort
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation


def _sorted_cluster(perf_vals, n, memory=2048, seed=0, bench=0):
    """A cluster whose nodes hold sorted perf-proportional portions."""
    perf = PerfVector(perf_vals)
    n = perf.nearest_exact(n)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in perf_vals], memory_items=memory)
    )
    data = make_benchmark(bench, n, seed=seed)
    inputs = distribute_array(cluster, perf, data, 256)
    sorted_files = [
        polyphase_sort(f, node.disk, node.mem).output
        for node, f in zip(cluster.nodes, inputs)
    ]
    return cluster, perf, sorted_files, data


class TestBoundaryTargets:
    def test_homogeneous(self):
        assert boundary_targets(PerfVector([1, 1, 1, 1]), 100) == [25, 50, 75]

    def test_heterogeneous(self):
        assert boundary_targets(PerfVector([1, 1, 4, 4]), 100) == [10, 20, 60]


class TestExactQuantilePivots:
    def test_realises_targets_exactly_on_distinct_keys(self):
        cluster, perf, files, data = _sorted_cluster([1, 1, 4, 4], 40_000)
        pivots, report = exact_quantile_pivots(cluster, perf, files)
        targets = boundary_targets(perf, data.size)
        d = data.astype(np.int64)
        for piv, t in zip(pivots, targets):
            realised = int(np.count_nonzero(d <= int(piv)))
            # Exact up to duplicate ties at the pivot value.
            dups = int(np.count_nonzero(d == int(piv)))
            assert t <= realised <= t + dups
        assert report.rounds > 0 and report.probes > 0

    def test_pivots_sorted(self):
        cluster, perf, files, _ = _sorted_cluster([2, 3, 5], 20_000)
        pivots, _ = exact_quantile_pivots(cluster, perf, files)
        assert np.all(np.diff(pivots.astype(np.int64)) >= 0)

    def test_single_node_empty_pivots(self):
        cluster, perf, files, _ = _sorted_cluster([1], 1_000)
        pivots, report = exact_quantile_pivots(cluster, perf, files)
        assert pivots.size == 0
        assert report.rounds == 0

    def test_empty_input_rejected(self):
        cluster = Cluster(homogeneous_cluster(2))
        perf = PerfVector([1, 1])
        files = distribute_array(cluster, perf, np.empty(0, dtype=np.uint32), 64)
        with pytest.raises(ValueError, match="empty"):
            exact_quantile_pivots(cluster, perf, files)

    def test_size_mismatch_rejected(self):
        cluster, perf, files, _ = _sorted_cluster([1, 1], 1_000)
        with pytest.raises(ValueError):
            exact_quantile_pivots(cluster, PerfVector([1, 1, 1]), files)

    def test_duplicates_heavy_input_terminates(self):
        cluster, perf, files, data = _sorted_cluster([1, 3], 6_000, bench=2)
        pivots, _ = exact_quantile_pivots(cluster, perf, files)
        assert pivots.size == 1

    def test_charges_io_and_network(self):
        cluster, perf, files, _ = _sorted_cluster([1, 1, 4, 4], 20_000)
        reads_before = cluster.io_stats().blocks_read
        msgs_before = cluster.network.messages_sent
        exact_quantile_pivots(cluster, perf, files)
        assert cluster.io_stats().blocks_read > reads_before
        assert cluster.network.messages_sent > msgs_before

    def test_memory_clean(self):
        cluster, perf, files, _ = _sorted_cluster([1, 2], 8_000)
        exact_quantile_pivots(cluster, perf, files)
        assert all(node.mem.in_use == 0 for node in cluster.nodes)


class TestQuantilePSRSIntegration:
    def test_end_to_end_sorted_and_near_perfect_balance(self):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(40_000)
        data = make_benchmark(0, n, seed=1)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048)
        )
        res = sort_array(
            cluster,
            perf,
            data,
            PSRSConfig(block_items=256, message_items=2048, pivot_method="quantile"),
        )
        verify_sorted_permutation(data, res.to_array())
        assert res.s_max < 1.01  # essentially exact

    def test_better_balance_than_sampling(self):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(40_000)
        data = make_benchmark(0, n, seed=2)
        results = {}
        for method in ("regular", "quantile"):
            cluster = Cluster(
                heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048)
            )
            results[method] = sort_array(
                cluster,
                perf,
                data,
                PSRSConfig(block_items=256, message_items=2048, pivot_method=method),
            )
        assert results["quantile"].s_max <= results["regular"].s_max
        # ...but pays more step-2 time (the documented trade-off).
        assert (
            results["quantile"].step_times["2:pivots"]
            > results["regular"].step_times["2:pivots"]
        )


class TestSplitGroup:
    def test_even_perf_splits_in_half(self):
        low, high, share = split_group([0, 1, 2, 3], PerfVector([1, 1, 1, 1]))
        assert (low, high) == ([0, 1], [2, 3])
        assert share == pytest.approx(0.5)

    def test_skewed_perf_balances_aggregate(self):
        # {4,4,1,1}: best even split is [0] vs [1,2,3] (4 vs 6) or
        # [0,1] vs [2,3] (8 vs 2) -> the former.
        low, high, share = split_group([0, 1, 2, 3], PerfVector([4, 4, 1, 1]))
        assert low == [0] and high == [1, 2, 3]
        assert share == pytest.approx(0.4)

    def test_too_small_group(self):
        with pytest.raises(ValueError):
            split_group([0], PerfVector([1]))


class TestHyperquicksort:
    def test_sorts_heterogeneous(self):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(20_000)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0]))
        res = sort_array_hyperquicksort(cluster, perf, data)
        verify_sorted_permutation(data, res.to_array())
        assert res.levels >= 2

    def test_node_ranges_ordered(self):
        perf = PerfVector([1, 2, 3])
        data = make_benchmark(0, perf.nearest_exact(9_000), seed=3)
        cluster = Cluster(heterogeneous_cluster([1.0, 2.0, 3.0]))
        res = sort_array_hyperquicksort(cluster, perf, data)
        prev = None
        for arr in res.outputs:
            if arr.size == 0:
                continue
            if prev is not None:
                assert arr[0] >= prev
            prev = arr[-1]

    def test_single_node(self):
        perf = PerfVector([2])
        data = make_benchmark(0, 1_000, seed=0)
        cluster = Cluster(homogeneous_cluster(1))
        res = sort_array_hyperquicksort(cluster, perf, data)
        np.testing.assert_array_equal(res.to_array(), np.sort(data))
        assert res.levels == 0

    def test_worse_balance_than_psrs(self):
        """The structural point: compounding per-level pivot errors."""
        from repro.core.in_core_psrs import sort_array_in_core

        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(40_000)
        smax_hqs, smax_psrs = [], []
        for seed in range(3):
            data = make_benchmark(0, n, seed=seed)
            c1 = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0]))
            smax_hqs.append(sort_array_hyperquicksort(c1, perf, data, seed=seed).s_max)
            c2 = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0]))
            smax_psrs.append(sort_array_in_core(c2, perf, data).s_max)
        assert np.mean(smax_psrs) < np.mean(smax_hqs)

    def test_validation(self):
        cluster = Cluster(homogeneous_cluster(2))
        with pytest.raises(ValueError):
            sort_hyperquicksort(cluster, PerfVector([1, 1, 1]), [np.arange(3)] * 2)
        with pytest.raises(ValueError):
            sort_hyperquicksort(
                cluster, PerfVector([1, 1]), [np.arange(3)] * 2, sample_per_node=0
            )

    @pytest.mark.parametrize("bench", [0, 2, 4, 5, 7])
    def test_benchmarks(self, bench):
        perf = PerfVector([1, 2])
        data = make_benchmark(bench, perf.nearest_exact(4_000), seed=bench)
        cluster = Cluster(heterogeneous_cluster([1.0, 2.0]))
        res = sort_array_hyperquicksort(cluster, perf, data)
        verify_sorted_permutation(data, res.to_array())


@settings(max_examples=15, deadline=None)
@given(
    vals=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    seed=st.integers(0, 50),
    bench=st.integers(0, 7),
)
def test_property_hyperquicksort_sorts(vals, seed, bench):
    perf = PerfVector(vals)
    data = make_benchmark(bench, perf.nearest_exact(2_000), seed=seed)
    cluster = Cluster(heterogeneous_cluster([float(v) for v in vals]))
    res = sort_array_hyperquicksort(cluster, perf, data, seed=seed)
    verify_sorted_permutation(data, res.to_array())
