"""Ablation (paper §3.1): the effect of duplicate keys on load balance.

The paper: duplicates raise the load-balance upper bound from U = 2n/p
to U + d (d = multiplicity of the most duplicated key) and "in practice
it is not a concern" — except in the degenerate all-equal case, where a
single key carries the whole input to one node.
"""

import numpy as np
from helpers import once, write_result

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import load_balance_bound, max_duplicate_count
from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS
from repro.metrics.report import Table
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

PERF = PerfVector([1, 1, 4, 4])
N = PERF.nearest_exact(2**15)
WORKLOADS = ["uniform", "gaussian", "zipf", "all_equal", "staggered"]


def run_duplicates():
    rows = []
    for name in WORKLOADS:
        data = make_benchmark(name, N, seed=3)
        cluster = Cluster(
            heterogeneous_cluster(
                [float(v) for v in PERF.values], memory_items=MEMORY_ITEMS
            )
        )
        res = sort_array(
            cluster, PERF, data, PSRSConfig(block_items=BLOCK_ITEMS, message_items=2048)
        )
        verify_sorted_permutation(data, res.to_array())
        d = max_duplicate_count(data)
        bound_ok = all(
            res.received_sizes[i]
            <= load_balance_bound(res.n_items, PERF, i, d) + PERF.p
            for i in range(PERF.p)
        )
        rows.append((name, d, res.s_max, bound_ok))
    return rows


def test_duplicates_effect(benchmark):
    rows = once(benchmark, run_duplicates)

    table = Table(
        f"Ablation: duplicates, perf={PERF.values}, N={N}",
        ["workload", "max duplicate d", "S(max)", "U+d bound holds"],
    )
    for name, d, s_max, ok in rows:
        table.add_row(name, d, s_max, ok)
    write_result("ablation_duplicates", table.render())

    by = {name: (d, s_max, ok) for name, d, s_max, ok in rows}
    # The theorem's U + d bound holds on every workload.
    assert all(ok for _, _, _, ok in rows)
    # Moderate duplicates are "not a concern" (paper's phrase).
    assert by["uniform"][1] < 1.12
    assert by["gaussian"][1] < 1.15
    # Zipf's heaviest key (d ~ N/4) can legitimately inflate one node by
    # up to d items — the linear U+d growth the paper describes.
    assert by["zipf"][1] < 2.5
    # The degenerate all-equal input sends everything to one node — the
    # d term in U + d is the whole input.
    assert by["all_equal"][0] == N
    assert by["all_equal"][1] > 2.0
