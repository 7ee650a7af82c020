"""What-if predictions, pinned value for value.

The profiler re-runs a recorded log on a cluster built from its ``hw``
head and answers "what if the machine were different" by re-running it
again on an edited machine.  A refactor of how the log is fed to the
kernels may not move any figure: ``tests/data/whatif_pins_golden.json``
holds, for four logs ({event, lockstep} kernel x {a clean full-capture
{1,1,4,4} run, a faulty and degraded run}), ``repr`` of the recorded
elapsed time and of ``baseline_replay()``, and for each of fifteen
what-if clauses ``repr`` of ``baseline_model``, ``whatif_model`` and
``predicted_elapsed`` plus ``approximate``.

Regenerate (only when a prediction is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_whatif_pins
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.faults.plan import DiskFault, FaultPlan, MessageFault, NodeKill, RetryPolicy
from repro.obs.profiler import RunProfile
from repro.workloads.generators import make_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "whatif_pins_golden.json")

PERF = (1, 1, 4, 4)
MEMORY = 2048
BLOCK = 256
MESSAGE = 8192

#: name -> (n, fault plan, retry policy)
LOGS = {
    "clean": (131080, None, None),
    "faulty": (
        2**15,
        FaultPlan(
            disk_faults=(DiskFault(node=1, after_ios=40, count=1),),
            message_faults=(
                MessageFault(drop_probability=0.3, delay_probability=0.3, delay=0.01),
            ),
            node_kills=(NodeKill(node=2, step=4),),
            seed=3,
        ),
        RetryPolicy(max_attempts=3, backoff=0.05),
    ),
}
KERNELS = ("event", "lockstep")

CLAUSES = (
    "disks=2",
    "disks=4",
    "net=myrinet",
    "net.latency=1e-3",
    "net.bandwidth=25e6",
    "disk.seek=4e-3",
    "disk.bandwidth=40e6",
    "cpu=4e-8",
    "perf=2,2,8,8",
    "perf=1,1,1,1",
    "block=512",
    "disks=4; net=myrinet",
    "packet=4096",
    "net.overhead=1e-3",
    "perf=1,2,3,4; disks=2",
)


@lru_cache(maxsize=None)
def recorded(log: str, kernel: str) -> tuple[float, RunProfile]:
    """One full-capture sort; returns (elapsed, profile of its log)."""
    n, faults, retry = LOGS[log]
    perf = PerfVector(list(PERF))
    data = make_benchmark(0, perf.nearest_exact(n), seed=0)
    cluster = Cluster(
        heterogeneous_cluster([float(s) for s in PERF], memory_items=MEMORY),
        kernel=kernel,
    )
    cluster.bus.set_level("full")
    cfg = PSRSConfig(block_items=BLOCK, message_items=MESSAGE)
    res = sort_array(cluster, perf, data, cfg, faults=faults, retry=retry)
    return res.elapsed, RunProfile.from_cluster(cluster, block_items=BLOCK)


def run_case(log: str, kernel: str) -> dict:
    elapsed, prof = recorded(log, kernel)
    out: dict = {
        "recorded_elapsed": repr(float(elapsed)),
        "baseline_replay": repr(float(prof.baseline_replay())),
        "what_if": {},
    }
    for clause in CLAUSES:
        w = prof.what_if(clause)
        out["what_if"][clause] = {
            "baseline_model": repr(float(w.baseline_model)),
            "whatif_model": repr(float(w.whatif_model)),
            "predicted_elapsed": repr(float(w.predicted_elapsed)),
            "approximate": w.approximate,
        }
    return out


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _case_ids() -> list[str]:
    return [f"{log}/{kernel}" for log in LOGS for kernel in KERNELS]


@pytest.mark.parametrize("case", _case_ids())
def test_predictions_match_golden(case):
    expected = _golden()[case]
    got = run_case(*case.split("/"))
    assert got["recorded_elapsed"] == expected["recorded_elapsed"], f"{case}: run moved"
    assert got["baseline_replay"] == expected["baseline_replay"], f"{case}: replay moved"
    for clause in CLAUSES:
        assert got["what_if"][clause] == expected["what_if"][clause], (
            f"{case}: {clause!r} moved"
        )


def test_golden_covers_exactly_the_cases():
    golden = _golden()
    assert sorted(golden) == sorted(_case_ids())
    for case in golden.values():
        assert sorted(case["what_if"]) == sorted(CLAUSES)


if __name__ == "__main__":
    doc = {case: run_case(*case.split("/")) for case in _case_ids()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(doc)} cases)")
