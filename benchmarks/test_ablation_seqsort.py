"""Ablation (paper §2/§4): choice of the sequential external engine.

The paper picks polyphase merge sort for steps 1/5 because it "matches
the bound on sequential sorting" without a redistribution pass.  This
bench compares the three engines this library implements on identical
inputs: polyphase, balanced k-way merge, and distribution sort.
"""

from helpers import once, write_result

from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS, N_TAPES
from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.distribution import distribution_sort
from repro.extsort.polyphase import polyphase_sort
from repro.metrics.report import Table
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

N = 2**17


def _fresh(seed=0):
    disk = SimDisk(DiskParams(seek_time=5e-4, bandwidth=15e6))
    mem = MemoryManager(MEMORY_ITEMS)
    data = make_benchmark(0, N, seed=seed)
    f = BlockFile(disk, BLOCK_ITEMS, data.dtype)
    with BlockWriter(f, mem) as w:
        w.write(data)
    base = disk.stats.snapshot()
    return disk, mem, f, data, base


def run_engines():
    rows = []

    disk, mem, f, data, base = _fresh()
    res = polyphase_sort(f, disk, mem, n_tapes=N_TAPES)
    verify_sorted_permutation(data, res.output.to_array())
    d = disk.stats - base
    rows.append(("polyphase (T=8)", d.item_ios, d.block_ios, d.busy_time))

    disk, mem, f, data, base = _fresh()
    res = balanced_merge_sort(f, disk, mem, merge_order=N_TAPES - 1)
    verify_sorted_permutation(data, res.output.to_array())
    d = disk.stats - base
    rows.append(("balanced k-way (k=7)", d.item_ios, d.block_ios, d.busy_time))

    disk, mem, f, data, base = _fresh()
    res = distribution_sort(f, disk, mem)
    verify_sorted_permutation(data, res.output.to_array())
    d = disk.stats - base
    rows.append(("distribution (S=6)", d.item_ios, d.block_ios, d.busy_time))

    return rows


def test_sequential_engine_ablation(benchmark):
    rows = once(benchmark, run_engines)

    table = Table(
        f"Ablation: sequential external engines, N={N}, M={MEMORY_ITEMS}, B={BLOCK_ITEMS}",
        ["engine", "item I/Os", "block I/Os", "disk time (s)"],
    )
    for name, items, blocks, busy in rows:
        table.add_row(name, items, blocks, busy)
    write_result("ablation_seqsort", table.render())

    by = {name: items for name, items, _, _ in rows}
    # Polyphase does fewer item I/Os than the balanced sort of the same
    # arity — the reason the paper chose it.
    assert by["polyphase (T=8)"] < by["balanced k-way (k=7)"]
    # All engines stay within a small factor of each other (same Theta).
    worst, best = max(by.values()), min(by.values())
    assert worst < 2.5 * best
