"""Each I/O fact of a run, pinned through the names that state it once.

A run's block I/O is visible in three places: each drive's counters
(``node.disk.stats``), the per-step record ``PSRSResult.step_io`` and the
bus's ``BlockRead``/``BlockWrite`` rows, folded per (step, node) by
:func:`repro.obs.audit.collect_step_io`.  The identities below tie the
three together on a clean run, a run with a retried disk fault and a run
that loses a node at step 4, under both execution kernels.

The sha256 of ``repro sort --format json`` on the clean and the
retried-fault run pins the machine-readable summary (the ``io`` block
included) byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs.audit import collect_step_io
from repro.obs.events import FaultInjected
from repro.workloads.generators import make_benchmark

PERF = (1, 1, 4, 4)
N, MEMORY, BLOCK = 16_390, 2048, 256

#: The three runs: fault plan (JSON, as ``--fault-plan`` takes it), retries.
RUNS = {
    "clean": (None, None),
    "disk-fault": ('{"disk": [{"node": 1, "after_ios": 40}]}', 3),
    "kill-step4": ('{"kills": [{"node": 1, "step": 4}]}', None),
}

#: sha256 of ``repro sort --format json`` stdout, per run and kernel.
CLI_SHA256 = {
    "clean/event": "228db124819428b1050350e1878a9993fc685294834ac180f18c4519ae1020e1",
    "clean/lockstep": "efb7b49ee09ce28791abeaedaf50218bd6d28f7ecbf2ffc1740aa04a0a6777fd",
    "disk-fault/event": "79769c02b172d98c393eddc4b42c3cbc31a7cd8ea2ce3e7af166249b495756cc",
    "disk-fault/lockstep": "738124980acfdaf7fe54e697c84398760f065d3ea20750fc932868dfed92b346",
}


def _cli_argv(run: str, kernel: str) -> list[str]:
    plan, retries = RUNS[run]
    argv = [
        "sort", "--n", str(N), "--perf", ",".join(map(str, PERF)),
        "--memory", str(MEMORY), "--block", str(BLOCK),
        "--kernel", kernel, "--format", "json",
    ]
    if plan is not None:
        argv += ["--fault-plan", plan]
    if retries is not None:
        argv += ["--retries", str(retries)]
    return argv


def _cli_digest(run: str, kernel: str, capsys) -> str:
    assert main(_cli_argv(run, kernel)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(CLI_SHA256))
def test_sort_json_summary_is_byte_pinned(key, capsys):
    run, kernel = key.split("/")
    assert _cli_digest(run, kernel, capsys) == CLI_SHA256[key]


def _full_capture_run(run: str, kernel: str):
    plan, retries = RUNS[run]
    perf = PerfVector(list(PERF))
    data = make_benchmark(0, perf.nearest_exact(N), seed=0)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in PERF], memory_items=MEMORY),
        kernel=kernel,
    )
    cluster.bus.set_level("full")
    res = sort_array(
        cluster, perf, data, PSRSConfig(block_items=BLOCK),
        faults=FaultPlan.from_json(plan) if plan is not None else None,
        retry=RetryPolicy(max_attempts=retries) if retries is not None else None,
    )
    return cluster, res


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("run", sorted(RUNS))
class TestOneRecordPerFact:
    def test_fold_summed_over_steps_is_each_drive(self, run, kernel):
        cluster, _ = _full_capture_run(run, kernel)
        fold = collect_step_io(cluster.bus.events)
        for node in cluster.nodes:
            cells = [io for (_, rank), io in fold.items() if rank == node.rank]
            stats = node.disk.stats
            assert sum(c.blocks_read for c in cells) == stats.blocks_read
            assert sum(c.blocks_written for c in cells) == stats.blocks_written
            assert sum(c.items_read for c in cells) == stats.items_read
            assert sum(c.items_written for c in cells) == stats.items_written

    def test_step_io_is_the_fold_summed_per_step(self, run, kernel):
        cluster, res = _full_capture_run(run, kernel)
        per_step: dict[str, int] = {}
        for (step, _), io in collect_step_io(cluster.bus.events).items():
            per_step[step] = per_step.get(step, 0) + io.block_ios
        assert {s: io.block_ios for s, io in res.step_io.items() if io.block_ios} == per_step

    def test_fault_rows_are_the_fault_count(self, run, kernel):
        cluster, res = _full_capture_run(run, kernel)
        rows = [e for e in cluster.bus.events
                if isinstance(e, FaultInjected) and e.category == "disk"]
        assert len(rows) == res.faults.disk_faults
        assert (len(rows) > 0) == (run == "disk-fault")


if __name__ == "__main__":  # pragma: no cover - prints the CLI digests
    import contextlib
    import io

    for key in sorted(CLI_SHA256):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_cli_argv(*key.split("/"))) == 0
        print(f'    "{key}": "{hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()}",')
