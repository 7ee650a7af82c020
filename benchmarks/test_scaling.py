"""Scaling benches beyond the paper's 4-node testbed.

Two sweeps the paper's machine could not run but its model predicts:

1. **Heterogeneity factor**: speed ratio r in {1,2,4,8} between the fast
   and slow node pairs.  The theory module predicts that treating the
   cluster as homogeneous wastes ``total/(p*min)`` = (2+2r)/4x; measured
   slowdowns should track that curve (damped by constant offsets — the
   same damping between 2.5x and the paper's measured 1.96x at r=4).
2. **Node count**: p in {2,4,8,16} homogeneous nodes at fixed total N;
   the sort is embarrassingly I/O-parallel after the one redistribution,
   so time should shrink ~1/p until communication/sampling constants
   bite.
"""

import numpy as np
from helpers import once, write_result

from repro.cluster.machine import Cluster, heterogeneous_cluster, homogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import homogeneous_waste_factor
from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS, MESSAGE_ITEMS
from repro.metrics.report import Table
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

CFG = PSRSConfig(block_items=BLOCK_ITEMS, message_items=MESSAGE_ITEMS)


def run_heterogeneity_sweep():
    rows = []
    for r in (1, 2, 4, 8):
        true_perf = PerfVector([r, r, 1, 1])
        speeds = [float(r), float(r), 1.0, 1.0]
        n = true_perf.nearest_exact(2**15)
        data = make_benchmark(0, n, seed=3)
        times = {}
        for label, perf in (("aware", true_perf), ("naive", PerfVector([1] * 4))):
            cluster = Cluster(
                heterogeneous_cluster(speeds, memory_items=MEMORY_ITEMS),
                kernel="lockstep",  # BSP waste-factor claim
            )
            res = sort_array(cluster, perf, data[: perf.nearest_exact(2**15)], CFG)
            verify_sorted_permutation(data[: res.n_items], res.to_array())
            times[label] = res.elapsed
        predicted = homogeneous_waste_factor(true_perf)
        rows.append((r, times["aware"], times["naive"], times["naive"] / times["aware"], predicted))
    return rows


def run_node_count_sweep():
    rows = []
    n_total = 2**16
    for p in (1, 2, 4, 8, 16):
        perf = PerfVector([1] * p)
        n = perf.nearest_exact(n_total)
        data = make_benchmark(0, n, seed=4)
        cluster = Cluster(
            homogeneous_cluster(p, memory_items=MEMORY_ITEMS),
            kernel="lockstep",  # speedup-vs-p curve is a BSP-model claim
        )
        res = sort_array(cluster, perf, data, CFG)
        verify_sorted_permutation(data, res.to_array())
        rows.append((p, res.elapsed, res.s_max))
    return rows


def test_heterogeneity_factor_sweep(benchmark):
    rows = once(benchmark, run_heterogeneity_sweep)
    table = Table(
        "Heterogeneity sweep: speeds {r,r,1,1}, aware vs naive perf vector",
        ["r", "aware (s)", "naive (s)", "measured waste", "predicted total/(p*min)"],
    )
    for r, ta, tn, waste, pred in rows:
        table.add_row(r, ta, tn, f"{waste:.2f}x", f"{pred:.2f}x")
    write_result("scaling_heterogeneity", table.render())

    by = {r: waste for r, _, _, waste, _ in rows}
    # No heterogeneity -> no waste; waste grows monotonically with r and
    # stays below the undamped prediction.
    assert 0.95 < by[1] < 1.05
    assert by[2] < by[4] < by[8]
    for r, _, _, waste, pred in rows:
        assert waste < pred + 0.1


def test_node_count_sweep(benchmark):
    rows = once(benchmark, run_node_count_sweep)
    table = Table(
        "Node-count sweep: homogeneous p nodes, fixed total N=2^16",
        ["p", "Exe Time (s)", "S(max)", "speedup vs p=1"],
    )
    base = rows[0][1]
    for p, t, s in rows:
        table.add_row(p, t, s, f"{base / t:.2f}x")
    write_result("scaling_nodes", table.render())

    times = {p: t for p, t, _ in rows}
    # More nodes always help at these sizes, with decaying efficiency.
    assert times[2] < times[1]
    assert times[4] < times[2]
    assert times[8] < times[4]
    speedup8 = base / times[8]
    assert 3.0 < speedup8 <= 8.0  # sublinear but substantial
    # Balance holds at every width.
    assert all(s < 1.25 for _, _, s in rows)
