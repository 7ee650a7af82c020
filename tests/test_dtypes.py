"""Key-width generality: every engine on 16/32/64-bit, signed/unsigned keys."""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.dewitt import DeWittConfig, sort_array_dewitt
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.distribution import distribution_sort
from repro.extsort.polyphase import polyphase_sort
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

from tests.conftest import file_from_array, make_disk

DTYPES = [np.uint16, np.int16, np.uint32, np.int32, np.uint64, np.int64]


def _data(dtype, n=600, seed=3):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    return rng.integers(info.min, int(info.max) + 1, size=n, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
class TestSequentialEnginesDtypes:
    def test_polyphase(self, dtype):
        disk, mem = make_disk(), MemoryManager(64)
        data = _data(dtype)
        src = file_from_array(data, disk, B=8, mem=mem, dtype=dtype)
        res = polyphase_sort(src, disk, mem, n_tapes=4)
        assert res.output.dtype == np.dtype(dtype)
        verify_sorted_permutation(data, res.output.to_array())

    def test_balanced(self, dtype):
        disk, mem = make_disk(), MemoryManager(64)
        data = _data(dtype)
        src = file_from_array(data, disk, B=8, mem=mem, dtype=dtype)
        res = balanced_merge_sort(src, disk, mem)
        verify_sorted_permutation(data, res.output.to_array())

    def test_distribution(self, dtype):
        disk, mem = make_disk(), MemoryManager(64)
        data = _data(dtype)
        src = file_from_array(data, disk, B=8, mem=mem, dtype=dtype)
        res = distribution_sort(src, disk, mem)
        verify_sorted_permutation(data, res.output.to_array())


@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.int64])
def test_full_psrs_pipeline_dtypes(dtype):
    """Signed and 64-bit keys through Algorithm 1 (network bytes scale
    with itemsize; partitioning must respect signed order)."""
    perf = PerfVector([1, 2])
    n = perf.nearest_exact(4_000)
    data = _data(dtype, n=n, seed=9)
    cluster = Cluster(heterogeneous_cluster([1.0, 2.0], memory_items=1024))
    res = sort_array(
        cluster, perf, data, PSRSConfig(block_items=128, message_items=512)
    )
    out = res.to_array()
    assert out.dtype == np.dtype(dtype)
    verify_sorted_permutation(data, out)
    if np.issubdtype(np.dtype(dtype), np.signedinteger):
        assert out[0] < 0 < out[-1]  # full signed range actually exercised


@pytest.mark.parametrize("n", [40, 4100])
@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int16])
@pytest.mark.parametrize("algo", ["psrs", "dewitt"])
def test_nodes_that_receive_nothing_keep_the_key_dtype(algo, dtype, n):
    """All keys equal: one node receives everything, the other three
    merge no runs; their empty output files used to be uint32 whatever
    the key dtype, and ``to_array()`` promoted the concatenation."""
    perf = PerfVector([1, 1, 4, 4])
    data = make_benchmark("all_equal", n, seed=1, dtype=dtype)
    cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=1024))
    if algo == "psrs":
        res = sort_array(cluster, perf, data, PSRSConfig(block_items=64))
    else:
        res = sort_array_dewitt(cluster, perf, data, DeWittConfig(block_items=64))
    assert sorted(f.n_items for f in res.outputs) == [0, 0, 0, n]
    assert [f.dtype for f in res.outputs] == [np.dtype(dtype)] * 4
    verify_sorted_permutation(data, res.to_array())  # values and dtype


def test_network_bytes_track_itemsize():
    perf = PerfVector([1, 1])
    n = perf.nearest_exact(4_000)
    byte_counts = {}
    for dtype in (np.uint32, np.uint64):
        data = _data(dtype, n=n, seed=2)
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0], memory_items=1024))
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=128, message_items=512)
        )
        byte_counts[np.dtype(dtype).itemsize] = res.network_bytes
    assert byte_counts[8] > 1.7 * byte_counts[4]
