"""The three exports of three real full-capture runs, pinned by sha256.

``tests/test_merge_opstream.py`` pins *what the bus captures*; this file
pins *what the exporters write* from it, so a change to how events are
held or encoded cannot move a byte of the JSONL log, a value of the
Chrome trace or a line of the Prometheus snapshot unnoticed:

* ``jsonl`` — ``events_to_jsonl(events, meta)`` including the
  ``run_meta`` head line (``RunMeta`` plus the ``hw`` model, as
  ``repro sort --events`` writes it);
* ``chrome`` — the file ``write_chrome_trace`` writes, with the node
  names and the critical-path track, parsed and re-dumped canonically
  (``sort_keys``, compact separators): the document is pinned, its
  whitespace is not;
* ``prometheus`` — ``to_prometheus(events)``.

The faulted run carries a ``FaultInjected``, a ``Retry`` and the
cluster-wide ``node = -1`` rank.  Regenerate (only when an export is
*meant* to change) with::

    PYTHONPATH=src python -m tests.test_export_goldens
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.faults.plan import DiskFault, FaultPlan, RetryPolicy
from repro.obs.audit import RunMeta
from repro.obs.events import FaultInjected, Retry
from repro.obs.exporters import events_to_jsonl, to_prometheus, write_chrome_trace
from repro.obs.profiler import RunProfile
from repro.workloads.generators import make_benchmark

PERF = (1, 1, 4, 4)
MEMORY = 1024
BLOCK = 128

#: name -> (kernel, fault plan, retry policy)
RUNS = {
    "event": ("event", None, None),
    "lockstep": ("lockstep", None, None),
    "faulted": (
        "event",
        FaultPlan(disk_faults=(DiskFault(node=1, after_ios=40, count=1),), seed=3),
        RetryPolicy(max_attempts=3, backoff=0.05),
    ),
}

GOLDEN = {
    "event": {
        "events": 3650,
        "jsonl": "baf0faf15fb6c716cac58a93585fdbe27870b7f28d180d2f854a649d8f8c1f57",
        "chrome": "3092b8f2deb23cb9bb5ba4d2a82ee42571cbd331bbdc2e18f20ec5c24951e87e",
        "prometheus": "4907fe5ce78ddefef9265b5023cc4b51743dc4b34f85864ae6df030ae6ca3b2a",
    },
    "lockstep": {
        "events": 3670,
        "jsonl": "ab472e44b571b14b84a4a8474c05b594984f873bb6724e660695f5276e551394",
        "chrome": "826a2e190e8ea3f23809a3240724abc857852e79266aa81ce966a2aef6c547c3",
        "prometheus": "edf4995ab6932248c4edeacbb9683633cc65ab20c6b9791c87a235dbd6eb7923",
    },
    "faulted": {
        "events": 3688,
        "jsonl": "72146af0f6fba7d5fbc20f75d5ec14eb7b186b248fac55f2283d5855893ac45f",
        "chrome": "eec9959db4acad3e15f1240aca02a6476a4fe56669545a38075a9d141c1c9009",
        "prometheus": "806262a473c831091bd88fefb908cffdcc66ac5cdd572d53f7cea84078e7177c",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(name: str):
    kernel, plan, retry = RUNS[name]
    perf = PerfVector(list(PERF))
    data = make_benchmark("uniform", perf.nearest_exact(12_000), seed=11)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in PERF], memory_items=MEMORY),
        kernel=kernel,
    )
    cluster.bus.set_level("full")
    cfg = PSRSConfig(block_items=BLOCK, message_items=1024)
    res = sort_array(cluster, perf, data, cfg, faults=plan, retry=retry)
    prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
    meta = RunMeta(
        n_items=res.n_items,
        perf=PERF,
        memory_items=MEMORY,
        block_items=BLOCK,
        oversample=cfg.oversample,
        d_duplicates=max_duplicate_count(data),
        pivot_method=cfg.pivot_method,
    )
    return cluster, prof, {**meta.to_dict(), "hw": prof.hw.to_dict()}


def _digests(name: str, tmp_dir) -> dict:
    cluster, prof, meta = _run(name)
    events = cluster.bus.events
    path = f"{tmp_dir}/{name}.trace.json"
    write_chrome_trace(
        path,
        events,
        {node.rank: node.name for node in cluster.nodes},
        critical=prof.critical.segments,
    )
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return {
        "events": len(events),
        "jsonl": _sha(events_to_jsonl(events, meta)),
        "chrome": _sha(canonical),
        "prometheus": _sha(to_prometheus(events)),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_exports_match_golden(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]


def test_faulted_run_carries_the_rare_kinds():
    cluster, _, _ = _run("faulted")
    events = cluster.bus.events
    assert any(isinstance(e, FaultInjected) for e in events)
    retries = [e for e in events if isinstance(e, Retry)]
    assert retries and all(e.node == -1 for e in retries)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: _digests(name, tmp) for name in RUNS}, indent=4))
