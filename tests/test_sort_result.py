"""The one result type: every sort returns a ``SortResult``.

The Table-3 figures (``optimal_sizes``, ``expansions``, ``s_max``,
``mean_partition``, ``max_partition``) and ``to_array`` are defined once,
on the base; the five result classes add only their own fields.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core import (
    DeWittResult,
    HyperquicksortResult,
    InCorePSRSResult,
    OverpartitionResult,
    PSRSResult,
    SortResult,
)
from repro.core.perf import PerfVector
from repro.metrics.expansion import partition_stats
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

from tests.test_result_pins import ALGORITHMS

RESULT_TYPES = {
    "psrs": PSRSResult,
    "dewitt": DeWittResult,
    "in_core": InCorePSRSResult,
    "hyperquicksort": HyperquicksortResult,
    "overpartition": OverpartitionResult,
}
PERF = PerfVector([1, 1, 4, 4])


def _run(algorithm: str, kind: str = "uniform"):
    memory_items, run = ALGORITHMS[algorithm]
    data = make_benchmark(kind, PERF.nearest_exact(6000), seed=3)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in PERF], memory_items=memory_items)
    )
    return data, run(cluster, PERF, data)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_returns_a_sort_result(algorithm):
    data, res = _run(algorithm, kind="zipf")
    assert type(res) is RESULT_TYPES[algorithm] and isinstance(res, SortResult)
    verify_sorted_permutation(data, res.to_array())
    assert res.n_items == data.size == sum(res.received_sizes)
    assert res.optimal_sizes == [data.size * v / PERF.total for v in PERF]
    ratios = [r / o for r, o in zip(res.received_sizes, res.optimal_sizes)]
    assert res.expansions == ratios and res.s_max == max(ratios)
    assert res.max_partition == max(res.received_sizes)
    assert res.mean_partition == pytest.approx(data.size / PERF.p)
    # One formula: the metrics module reports the same Table-3 columns.
    stats = partition_stats(res.received_sizes, res.perf, res.n_items)
    assert (stats.s_max, stats.max, stats.mean) == (
        res.s_max, res.max_partition, res.mean_partition
    )
    assert stats.optimal == tuple(res.optimal_sizes)
    assert res.step_times and all(t >= 0 for t in res.step_times.values())
    assert max(res.step_times.values()) <= res.elapsed


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_a_replaced_copy_still_reads_back(algorithm):
    """``OverpartitionResult.to_array`` used to read an attribute set on
    the one instance ``sort_overpartitioned`` built, so a copy lost it."""
    data, res = _run(algorithm)
    copy = dataclasses.replace(res, elapsed=res.elapsed + 1.0)
    np.testing.assert_array_equal(copy.to_array(), np.sort(data))


def test_overpartition_global_order_is_the_bucket_order():
    data, res = _run("overpartition")
    assert len(res.bucket_arrays) == len(res.bucket_owner) == PERF.p * res.s
    assert [a.size for a in res.bucket_arrays] == res.bucket_sizes
    for j, out in enumerate(res.outputs):
        owned = [a for a, o in zip(res.bucket_arrays, res.bucket_owner) if o == j]
        np.testing.assert_array_equal(out, np.concatenate(owned))


class TestPerfVectorSplit:
    @pytest.mark.parametrize("n", [0, 1, 7, 10, 1001])
    def test_split_deals_portions_in_order(self, n):
        data = np.arange(n)
        slices = PERF.split(data)
        assert [s.size for s in slices] == PERF.portions(n)
        np.testing.assert_array_equal(np.concatenate(slices), data)

    def test_expansions_of_an_empty_share_are_one(self):
        assert PERF.share_ratios([0, 0, 0, 0], 0) == [1.0] * 4
        assert PERF.share_ratios([1, 1, 4, 4], 10) == [1.0] * 4
