"""Systematic configuration-matrix integration tests.

Every combination of the algorithm's main switches must (a) produce a
sorted permutation, (b) leave every memory budget balanced, (c) respect
the heterogeneous PSRS load-balance theorem.  One test body, the matrix
as parameters — this is the regression net for cross-feature
interactions (e.g. zero-copy partitions x replacement selection x
quantile pivots).
"""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.network import FAST_ETHERNET, MYRINET
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import load_balance_bound, max_duplicate_count
from repro.workloads.generators import make_benchmark
from repro.workloads.records import SUPPORTED_KEY_DTYPES, verify_sorted_permutation

PERF = PerfVector([1, 3])
N = PERF.nearest_exact(4_000)


def _run(**cfg_overrides):
    link = cfg_overrides.pop("link", FAST_ETHERNET)
    data = make_benchmark(
        cfg_overrides.pop("bench", 0), N, seed=7, dtype=cfg_overrides.pop("dtype", np.uint32)
    )
    cluster = Cluster(
        heterogeneous_cluster([1.0, 3.0], memory_items=1024, link=link)
    )
    cfg = PSRSConfig(block_items=128, message_items=512, **cfg_overrides)
    res = sort_array(cluster, PERF, data, cfg)
    # (a) correctness
    verify_sorted_permutation(data, res.to_array())
    # (b) accounting
    for node in cluster.nodes:
        assert node.mem.in_use == 0
        assert node.mem.high_water <= 1024
    # (c) theorem
    d = max_duplicate_count(data)
    for i, received in enumerate(res.received_sizes):
        assert received <= load_balance_bound(N, PERF, i, d) + PERF.p
    return res


@pytest.mark.parametrize("engine", ["vector", "itemwise"])
@pytest.mark.parametrize("run_policy", ["load", "replacement"])
@pytest.mark.parametrize("pivot_method", ["regular", "random", "quantile"])
def test_engine_policy_pivot_matrix(engine, run_policy, pivot_method, request):
    if engine == "itemwise":
        request.getfixturevalue("reference_merge")
    _run(run_policy=run_policy, pivot_method=pivot_method)


@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
@pytest.mark.parametrize("pivot_method", ["regular", "random", "quantile"])
def test_dtype_pivot_matrix(dtype, pivot_method):
    """Uniform keys span the whole dtype: uint64 keys reach past 2**63."""
    res = _run(dtype=dtype, pivot_method=pivot_method)
    assert res.pivots.dtype == dtype
    assert res.to_array().dtype == dtype
    if dtype.itemsize == 8:
        assert int(res.to_array()[-1]) > 2**62


@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
@pytest.mark.parametrize("run_policy", ["load", "replacement"])
def test_dtype_run_policy_matrix(dtype, run_policy):
    """Full-range keys through both run formers: no key leaves its dtype
    (``_run``'s oracle compares values and dtype)."""
    _run(dtype=dtype, run_policy=run_policy)


def test_quantile_pivots_reject_non_integer_keys():
    data = np.random.default_rng(7).random(N)
    cluster = Cluster(heterogeneous_cluster([1.0, 3.0], memory_items=1024))
    cfg = PSRSConfig(block_items=128, pivot_method="quantile")
    with pytest.raises(TypeError, match="float64"):
        sort_array(cluster, PERF, data, cfg)


@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize("pivot_method", ["regular", "quantile"])
@pytest.mark.parametrize("link", [FAST_ETHERNET, MYRINET])
def test_materialize_pivot_link_matrix(materialize, pivot_method, link):
    _run(
        materialize_partitions=materialize,
        pivot_method=pivot_method,
        link=link,
    )


@pytest.mark.parametrize("bench", list(range(8)))
@pytest.mark.parametrize("materialize", [True, False])
def test_workload_materialize_matrix(bench, materialize):
    _run(bench=bench, materialize_partitions=materialize)


@pytest.mark.parametrize("message_items", [8, 128, 512, 4096])
def test_message_size_matrix(message_items):
    data = make_benchmark(0, N, seed=7)
    cluster = Cluster(heterogeneous_cluster([1.0, 3.0], memory_items=1024))
    res = sort_array(
        cluster,
        PERF,
        data,
        PSRSConfig(block_items=128, message_items=message_items),
    )
    verify_sorted_permutation(data, res.to_array())


@pytest.mark.parametrize("n_tapes", [3, 4, 6, 8])
def test_tape_count_matrix(n_tapes):
    _run(n_tapes=n_tapes)


@pytest.mark.parametrize("oversample", [1, 2, 8])
def test_oversample_matrix(oversample):
    _run(oversample=oversample)


def test_all_switches_at_once(reference_merge):
    """The kitchen sink: every non-default switch simultaneously."""
    res = _run(
        run_policy="replacement",
        pivot_method="quantile",
        materialize_partitions=False,
        oversample=2,
        n_tapes=4,
        link=MYRINET,
    )
    assert res.s_max < 1.05  # quantile pivots keep balance tight
