"""Ablation (§2): external PSRS vs DeWitt probabilistic splitting.

The paper names DeWitt et al.'s randomized two-step distribution sort
the closest prior art.  This bench runs both end to end on the loaded
cluster and exposes the structural trade:

* DeWitt skips the local pre-sort, so at generous message sizes it moves
  fewer items in total;
* but each arriving message becomes one *small sorted run*, so shrinking
  the message size multiplies the final merge's runs (and passes), while
  PSRS's step 5 always merges exactly p long runs;
* and its random splitters balance looser than regular sampling,
  seed for seed.
"""

import numpy as np
from helpers import once, write_result

from repro.cluster.machine import Cluster, paper_cluster
from repro.core.dewitt import DeWittConfig, sort_array_dewitt
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS, N_TAPES
from repro.metrics.report import Table
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

PERF = PerfVector([4, 4, 1, 1])
N = PERF.nearest_exact(2**16)
# The per-destination buffer is memory-capped at (M - 2B)/p = 384 items,
# so the sweep explores below that cap (the top entry saturates it).
MESSAGES = [32, 128, 2048]
TRIALS = 3


def run_comparison():
    rows = []
    data_by_seed = {s: make_benchmark(0, N, seed=s) for s in range(TRIALS)}

    for msg in MESSAGES:
        dw_t, dw_smax, dw_io, dw_runs = [], [], [], []
        ps_t, ps_smax, ps_io = [], [], []
        for s in range(TRIALS):
            data = data_by_seed[s]
            c1 = Cluster(paper_cluster(memory_items=MEMORY_ITEMS))
            dw = sort_array_dewitt(
                c1, PERF, data,
                DeWittConfig(block_items=BLOCK_ITEMS, message_items=msg, seed=s),
            )
            verify_sorted_permutation(data, dw.to_array())
            dw_t.append(dw.elapsed)
            dw_smax.append(dw.s_max)
            dw_io.append(dw.io.item_ios)
            dw_runs.append(max(dw.runs_per_node))

            c2 = Cluster(paper_cluster(memory_items=MEMORY_ITEMS))
            ps = sort_array(
                c2, PERF, data,
                PSRSConfig(
                    block_items=BLOCK_ITEMS, message_items=msg, n_tapes=N_TAPES
                ),
            )
            ps_t.append(ps.elapsed)
            ps_smax.append(ps.s_max)
            ps_io.append(ps.io.item_ios)
        rows.append(
            {
                "msg": msg,
                "dw": (np.mean(dw_t), np.mean(dw_smax), np.mean(dw_io), max(dw_runs)),
                "ps": (np.mean(ps_t), np.mean(ps_smax), np.mean(ps_io)),
            }
        )
    return rows


def test_dewitt_vs_psrs(benchmark):
    rows = once(benchmark, run_comparison)

    table = Table(
        f"Ablation: DeWitt probabilistic splitting vs external PSRS, "
        f"perf={PERF.values}, N={N}",
        ["msg (ints)", "algo", "Exe Time (s)", "S(max)", "item I/Os", "max runs"],
    )
    for r in rows:
        t, s, io, runs = r["dw"]
        table.add_row(r["msg"], "DeWitt", t, s, int(io), runs)
        t, s, io = r["ps"]
        table.add_row(r["msg"], "ext. PSRS", t, s, int(io), "p=4")
    write_result("ablation_dewitt", table.render())

    by_msg = {r["msg"]: r for r in rows}
    # DeWitt's run count explodes as messages shrink; PSRS is invariant.
    # (flushes happen at block granularity, so the growth saturates at
    # roughly one run per incoming block rather than scaling 1/msg)
    assert by_msg[32]["dw"][3] > 3 * by_msg[2048]["dw"][3]
    # PSRS balances tighter at every message size (regular vs random).
    for r in rows:
        assert r["ps"][1] <= r["dw"][1] + 0.05
    # At the friendliest message size DeWitt's skipped pre-sort shows up
    # as lower total item I/O...
    assert by_msg[2048]["dw"][2] < by_msg[2048]["ps"][2]
    # ...but the advantage erodes as the multiplied runs add merge
    # passes (PSRS's I/O is message-size invariant).
    gap_large = by_msg[2048]["ps"][2] / by_msg[2048]["dw"][2]
    gap_small = by_msg[32]["ps"][2] / by_msg[32]["dw"][2]
    assert gap_small < gap_large
