"""Micro-runs: one public function of one layer, timed on standalone parts.

Each function below drives a single public call on a standalone
``SimDisk`` / ``MemoryManager`` / ``Cluster`` and returns
``{metric name: value}``.  In-process runs take the median of ``REPS``
repetitions; the subprocess runs (``repro lint``, ``repro sort``) are one
cold start each, which is what they are meant to measure.

    PYTHONPATH=src python3 -m benchmarks.perf.micro     # print them all
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable

import numpy as np

from repro.analysis.sanitizers import sanitized
from repro.cluster.machine import Cluster, heterogeneous_cluster, homogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.extsort.losertree import LoserTree
from repro.extsort.multiway import RunRef, merge_runs
from repro.extsort.polyphase import polyphase_sort
from repro.extsort.runs import CollectingSink, form_runs
from repro.fuzz.executor import ScenarioExecutor
from repro.obs.bus import TelemetryBus
from repro.obs.events import MemReserve
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import SimDisk
from repro.pdm.filestore import FileStore
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark

from . import contract
from .workloads import scenarios

REPS = 5

# The PDM geometry of benchmarks/helpers.py (MEMORY_ITEMS, BLOCK_ITEMS),
# restated because that module's import path depends on how this package
# was started.
M, B = 2048, 256
PERF4 = (1, 1, 4, 4)


def median_s(fn: Callable[[], object], reps: int = REPS) -> float:
    """Median host seconds of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def interleaved_median_s(variants: dict[str, Callable[[], object]], reps: int) -> dict[str, float]:
    """Median host seconds per variant, the variants taking turns — a
    ratio of two of them then survives a drift of the box's speed."""
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(reps):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: statistics.median(values) for name, values in samples.items()}


def _file_of(data: np.ndarray, disk: SimDisk) -> BlockFile:
    f = disk.new_file(B, data.dtype)
    with BlockWriter(f, MemoryManager(None)) as w:
        w.write(data)
    return f


# -- pdm ---------------------------------------------------------------------


def pdm_blockfile(n_blocks: int = 4000) -> dict:
    block = np.arange(B, dtype=np.uint32)
    files = []

    def append():
        f = BlockFile(SimDisk(), B)
        for _ in range(n_blocks):
            f.append_block(block)
        files.append(f)

    def read():
        f = files[-1]
        for i in range(n_blocks):
            f.read_block(i)

    return {
        "pdm.blockfile_append_blocks_per_s": n_blocks / median_s(append),
        "pdm.blockfile_read_blocks_per_s": n_blocks / median_s(read),
    }


def pdm_writer(n_items: int = 2**18, chunk: int = 1000) -> dict:
    data = np.arange(n_items, dtype=np.uint32)

    def write():
        with BlockWriter(BlockFile(SimDisk(), B), MemoryManager(M)) as w:
            for pos in range(0, n_items, chunk):
                w.write(data[pos : pos + chunk])

    return {"pdm.writer_items_per_s": n_items / median_s(write)}


def pdm_memory(n_ops: int = 50000) -> dict:
    mem = MemoryManager(M)

    def reserve():
        for _ in range(n_ops):
            with mem.reserve(B):
                pass

    return {"pdm.mem_reserve_ops_per_s": n_ops / median_s(reserve)}


def pdm_filestore(tmp: str, n_blocks: int = 1000) -> dict:
    """The real-file spill path; no sort workload uses it."""
    block = np.arange(B, dtype=np.uint32)
    store = FileStore(os.path.join(tmp, "spill"))

    def spill():
        f = store.create(SimDisk(), B)
        for _ in range(n_blocks):
            f.append_block(block)
        for i in range(n_blocks):
            f.read_block(i)
        f.delete()

    return {"pdm.filestore_blocks_per_s": 2 * n_blocks / median_s(spill)}


# -- extsort -----------------------------------------------------------------


def extsort_polyphase(n_items: int = 2**17) -> dict:
    out = {}
    for kind, name in (("uniform", "polyphase"), ("zipf", "polyphase_dup")):
        disk = SimDisk()
        source = _file_of(make_benchmark(kind, n_items, seed=0), disk)
        results = []
        seconds = median_s(
            lambda: results.append(polyphase_sort(source, disk, MemoryManager(M)))
        )
        out[f"extsort.{name}_items_per_s"] = n_items / seconds
        if kind == "uniform":
            out["extsort.initial_runs"] = results[-1].n_initial_runs
            out["extsort.phases"] = results[-1].n_phases
            out["extsort.dummy_runs"] = results[-1].n_dummy_runs
    return out


def extsort_merge(n_items: int = 2**17, itemwise_items: int = 2**13) -> dict:
    def merge(k: int, total: int, engine: str) -> float:
        disk = SimDisk()
        data = make_benchmark("uniform", total, seed=1)
        runs = [
            RunRef.whole(_file_of(np.sort(part), disk)) for part in np.array_split(data, k)
        ]
        return total / median_s(
            lambda: merge_runs(
                runs, disk.new_file(B, np.uint32), MemoryManager((k + 2) * B), engine=engine
            )
        )

    return {
        "extsort.merge_cursors_items_per_s_k4": merge(4, n_items, "vector"),
        "extsort.merge_cursors_items_per_s_k16": merge(16, n_items, "vector"),
        "extsort.merge_itemwise_items_per_s": merge(4, itemwise_items, "itemwise"),
    }


def extsort_form_runs(n_items: int = 2**18) -> dict:
    disk = SimDisk()
    source = _file_of(make_benchmark("uniform", n_items, seed=2), disk)

    def form():
        mem = MemoryManager(M)
        form_runs(source, CollectingSink(disk, B, np.uint32, mem), mem)

    return {"extsort.form_runs_items_per_s": n_items / median_s(form)}


def extsort_losertree(n_ops: int = 20000, k: int = 16) -> dict:
    keys = make_benchmark("uniform", n_ops + k, seed=3).tolist()

    def play():
        tree = LoserTree(keys[:k])
        for key in keys[k:]:
            tree.pop_push(key)

    return {"extsort.losertree_ops_per_s": n_ops / median_s(play)}


# -- cluster -----------------------------------------------------------------


def _cluster4(kernel: str = "event") -> Cluster:
    return Cluster(
        heterogeneous_cluster([float(v) for v in PERF4], memory_items=M), kernel=kernel
    )


def cluster_kernels(n_ios: int = 20000) -> dict:
    out = {}
    for kernel in ("event", "lockstep"):

        def charge():
            cluster = _cluster4(kernel)
            on_io = cluster.kernel.on_io
            disks = [node.disk for node in cluster.nodes]
            for i in range(n_ios):
                on_io(disks[i % 4], "write" if i % 2 else "read", B, 4, "f", i // 4)
            cluster.barrier()

        out[f"cluster.{kernel}_kernel_ios_per_s"] = n_ios / median_s(charge)
    return out


def cluster_alltoallv(p: int = 16, items: int = 1024) -> dict:
    matrix = [[np.arange(items, dtype=np.uint32) for _ in range(p)] for _ in range(p)]
    cluster = Cluster(homogeneous_cluster(p, memory_items=M))
    seconds = median_s(lambda: cluster.comm.alltoallv(matrix))
    return {"cluster.alltoallv_items_per_s_p16": p * p * items / seconds}


def cluster_construct(batch: int = 20) -> dict:
    spec16 = heterogeneous_cluster([1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0] * 2, memory_items=M)
    return {
        "cluster.construct_s_p4": median_s(lambda: [_cluster4() for _ in range(batch)]) / batch,
        "cluster.construct_s_p16": median_s(lambda: [Cluster(spec16) for _ in range(batch)]) / batch,
    }


# -- obs ---------------------------------------------------------------------


def obs_emit(n_events: int = 20000) -> dict:
    event = MemReserve(t=0.0, node=0, step="", n_items=1, in_use=1)
    out = {}
    for subscribers in (0, 1, 8):

        def publish():
            bus = TelemetryBus("full")
            for _ in range(subscribers):
                bus.subscribe(lambda e: None)
            for _ in range(n_events):
                bus.emit(event)

        out[f"obs.emit_events_per_s_sub{subscribers}"] = n_events / median_s(publish)
    return out


def _sorter(n_items: int, level: str = "steps") -> Callable[[], object]:
    perf = PerfVector(list(PERF4))
    data = make_benchmark("uniform", perf.nearest_exact(n_items), seed=4)

    def sort():
        cluster = _cluster4()
        cluster.bus.set_level(level)
        sort_array(cluster, perf, data, PSRSConfig(block_items=B))

    return sort


def obs_overhead(n_items: int = 2**16, reps: int = 5) -> dict:
    """ROADMAP's telemetry budget: sort-only host time per capture level."""
    s = interleaved_median_s(
        {level: _sorter(n_items, level) for level in ("steps", "io", "full")}, reps
    )
    return {
        "obs.overhead_ratio_io": s["io"] / s["steps"],
        "obs.overhead_ratio_full": s["full"] / s["steps"],
    }


# -- fuzz, analysis, cli ------------------------------------------------------


def fuzz_coverage(count: int = 4, reps: int = 3) -> dict:
    cases = [s.with_(n_items=4096, fault_plan=None, retries=None) for s in scenarios(0, count)]

    def runner(collect: bool) -> Callable[[], object]:
        executor = ScenarioExecutor(collect_coverage=collect)
        return lambda: [executor.run(s) for s in cases]

    s = interleaved_median_s({"on": runner(True), "off": runner(False)}, reps)
    return {"fuzz.coverage_overhead_ratio": s["on"] / s["off"]}


def analysis_sanitizers(n_items: int = 2**16, reps: int = 5) -> dict:
    sort = _sorter(n_items)

    def sanitized_sort():
        with sanitized():
            sort()

    s = interleaved_median_s({"on": sanitized_sort, "off": sort}, reps)
    return {"analysis.sanitizer_overhead_ratio": s["on"] / s["off"]}


def _subprocess_s(args: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(contract.SRC)}
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, *args],
        cwd=contract.ROOT,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def analysis_lint(tmp: str) -> dict:
    """Each pass cold in its own cache directory (never ``.lint-cache/``)."""

    def lint(flags: list[str], cache: str) -> float:
        return _subprocess_s(
            ["-m", "repro", "lint", *flags, "--cache-dir", os.path.join(tmp, cache), "src/repro"]
        )

    return {
        "analysis.lint_all_cold_s": lint(["--all"], "lint-all"),
        "analysis.lint_all_cached_s": lint(["--all"], "lint-all"),
        "analysis.lint_shallow_s": lint([], "lint-shallow"),
        "analysis.lint_deep_s": lint(["--deep"], "lint-deep"),
        "analysis.lint_protocol_s": lint(["--protocol"], "lint-protocol"),
        "analysis.lint_cost_s": lint(["--cost"], "lint-cost"),
    }


def cli_cold() -> dict:
    return {
        "cli.import_s": _subprocess_s(["-c", "import repro"]),
        # ROADMAP's 2.05 s baseline.
        "cli.sort_cold_s": _subprocess_s(
            ["-m", "repro", "sort", "--n", "1048576", "--perf", "1,1,4,4"]
        ),
    }


def run_all(tmp: str) -> dict:
    """Every micro-run; ``tmp`` is a scratch directory inside the checkout."""
    out = {}
    for part in (
        pdm_blockfile,
        pdm_writer,
        pdm_memory,
        lambda: pdm_filestore(tmp),
        extsort_polyphase,
        extsort_merge,
        extsort_form_runs,
        extsort_losertree,
        cluster_kernels,
        cluster_alltoallv,
        cluster_construct,
        obs_emit,
        obs_overhead,
        fuzz_coverage,
        analysis_sanitizers,
        lambda: analysis_lint(tmp),
        cli_cold,
    ):
        out.update(part())
    return out


if __name__ == "__main__":
    contract.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-micro-", dir=contract.OUT_DIR) as scratch:
        for metric, value in run_all(scratch).items():
            print(f"{metric:45s} {value:.6g}")
