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

from repro.faults.plan import DiskFault, FaultPlan
from repro.fuzz.scenario import Scenario
from repro.obs.events import FaultInjected, Retry
from repro.obs.exporters import events_to_jsonl, to_prometheus, write_chrome_trace
from repro.obs.profiler import RunProfile

SPEC = Scenario(
    benchmark="uniform",
    n_items=12_000,
    perf=(1, 1, 4, 4),
    memory_items=1024,
    block_items=128,
    message_items=1024,
    seed=11,
)

#: name -> (kernel, run spec)
RUNS = {
    "event": ("event", SPEC),
    "lockstep": ("lockstep", SPEC),
    "faulted": (
        "event",
        SPEC.with_(
            fault_plan=FaultPlan(
                disk_faults=(DiskFault(node=1, after_ios=40, count=1),), seed=3
            ),
            retries=3,
        ),
    ),
}

GOLDEN = {
    "event": {
        "events": 3578,
        "jsonl": "2da82948cd16c6769c7ad835a39ac88a4e3bf2aea3c5be37c230b6ac333da3da",
        "chrome": "9a1cc49480001f45666a8932c027760a9a268a21012d0a3247665c85b451be3b",
        "prometheus": "4907fe5ce78ddefef9265b5023cc4b51743dc4b34f85864ae6df030ae6ca3b2a",
    },
    "lockstep": {
        "events": 3598,
        "jsonl": "6a9c2feaf571e8113faa3a3a96cc8f0ebdf85a1fe47e939c832d2d60cf325081",
        "chrome": "2699eacdb4b161f6f0de9b372d942ff41607a15a35ac74766e5a33af308dcd62",
        "prometheus": "c86137d33d7993b510b3a805cac3013ef8ba05e4d4d1536ac53d07e9095d1d76",
    },
    "faulted": {
        "events": 3616,
        "jsonl": "ce5f9a36e2b469b5b5f9dbc49cabde3d43ff2fd4c6edb22dd48b1c77d3d0b26b",
        "chrome": "4f6b8061e3e41c9b8d6e2837c2107010b4bf900c8a6dfd6f1d84becf6d2d5ec9",
        "prometheus": "806262a473c831091bd88fefb908cffdcc66ac5cdd572d53f7cea84078e7177c",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(name: str):
    kernel, spec = RUNS[name]
    data = spec.input()
    cluster = spec.cluster(kernel=kernel)
    cluster.bus.set_level("full")
    spec.sort(cluster, data)
    prof = RunProfile.from_cluster(cluster, block_items=spec.block_items)
    return cluster, prof, {**spec.run_meta(data).to_dict(), "hw": prof.hw.to_dict()}


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
