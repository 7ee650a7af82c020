"""Two design-choice ablations of Algorithm 1's machinery.

1. Run-formation policy (step 1): memory-load sorting (the paper's
   bound) vs replacement selection — expected ~2x longer runs on random
   input, hence fewer runs, fewer polyphase phases, less merge I/O.
2. Step-3 sublist materialisation: the paper writes each partition to
   its own file (<= 2Q/B extra I/Os); a zero-copy variant hands item
   ranges of the sorted file straight to redistribution.
"""

from helpers import once, write_result

from repro.cluster.machine import Cluster, paper_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS, MESSAGE_ITEMS, N_TAPES
from repro.extsort.polyphase import polyphase_sort
from repro.metrics.report import Table
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

N = 2**16


def run_run_policies():
    rows = []
    for policy in ("load", "replacement"):
        disk = SimDisk(DiskParams(seek_time=5e-4, bandwidth=15e6))
        mem = MemoryManager(MEMORY_ITEMS)
        data = make_benchmark(0, N, seed=1)
        f = BlockFile(disk, BLOCK_ITEMS, data.dtype)
        with BlockWriter(f, mem) as w:
            w.write(data)
        base = disk.stats.snapshot()
        res = polyphase_sort(f, disk, mem, n_tapes=N_TAPES, run_policy=policy)
        verify_sorted_permutation(data, res.output.to_array())
        d = disk.stats - base
        rows.append((policy, res.n_initial_runs, res.n_phases, d.item_ios))
    return rows


def run_materialisation():
    rows = []
    perf = PerfVector([4, 4, 1, 1])
    n = perf.nearest_exact(N)
    data = make_benchmark(0, n, seed=1)
    for materialize in (True, False):
        cluster = Cluster(paper_cluster(memory_items=MEMORY_ITEMS))
        res = sort_array(
            cluster,
            perf,
            data,
            PSRSConfig(
                block_items=BLOCK_ITEMS,
                message_items=MESSAGE_ITEMS,
                n_tapes=N_TAPES,
                materialize_partitions=materialize,
            ),
        )
        verify_sorted_permutation(data, res.to_array())
        rows.append(
            (
                "materialised (paper)" if materialize else "zero-copy ranges",
                res.elapsed,
                res.io.item_ios,
                res.step_times["3:partition"],
            )
        )
    return rows


def test_run_formation_policy(benchmark):
    rows = once(benchmark, run_run_policies)

    table = Table(
        f"Ablation: run formation, N={N}, M={MEMORY_ITEMS}",
        ["policy", "initial runs", "phases", "item I/Os"],
    )
    for policy, runs, phases, items in rows:
        table.add_row(policy, runs, phases, items)
    write_result("ablation_runs", table.render())

    by = {p: (runs, phases, items) for p, runs, phases, items in rows}
    # Replacement selection: ~2x longer runs on random input (Knuth).
    assert by["replacement"][0] < 0.7 * by["load"][0]
    # Fewer runs -> no more phases, never more merge I/O by much.
    assert by["replacement"][1] <= by["load"][1]
    assert by["replacement"][2] < 1.1 * by["load"][2]


def test_partition_materialisation(benchmark):
    rows = once(benchmark, run_materialisation)

    table = Table(
        f"Ablation: step-3 sublist materialisation, perf={{4,4,1,1}}, N~{N}",
        ["variant", "Exe Time (s)", "item I/Os", "step-3 time (s)"],
    )
    for name, t, items, t3 in rows:
        table.add_row(name, t, items, t3)
    write_result("ablation_materialize", table.render())

    by = {name: (t, items, t3) for name, t, items, t3 in rows}
    mat, zero = by["materialised (paper)"], by["zero-copy ranges"]
    # Zero-copy skips a full read+write of every portion.
    assert zero[1] < mat[1]
    assert zero[0] < mat[0]
    assert zero[2] < mat[2]
