"""The bytes the file exporters write, pinned by sha256.

``tests/test_export_goldens.py`` pins the Chrome trace as a *document*
(parsed and re-dumped canonically), so it would not notice a change of
key order, separators or float spelling in the file itself.  This file
pins the raw bytes ``write_chrome_trace`` writes — for the three runs of
``test_export_goldens`` and for one run shaped like the ``observed4``
benchmark workload ({1,1,4,4}, n = 2^16, M = 2048, B = 256, capture
``full``, node names and the critical-path track on), whose JSONL file
is pinned here too.  Regenerate (only when an export is *meant* to
change) with::

    PYTHONPATH=src python -m tests.test_export_bytes
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fuzz.scenario import Scenario
from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.profiler import RunProfile

from tests.test_export_goldens import RUNS, _run

OBSERVED = Scenario(
    benchmark="uniform",
    n_items=2**16,
    perf=(1, 1, 4, 4),
    memory_items=2048,
    block_items=256,
    message_items=8192,
    seed=301,
)

GOLDEN = {
    "event": {
        "chrome": "9084e2c65332a05c5fdf7d30e1b6bc4549f5b4d444805174b133f97199b1a842",
    },
    "lockstep": {
        "chrome": "ffbf3a314acee29e8d2db9ac99e5838b0e953a6a587e81dcf673c8ee9909fb50",
    },
    "faulted": {
        "chrome": "48a9acaa91208a8026ff5133c4abc1a0cc6226cbee2bc42893aed12e1ad3651c",
    },
    "observed4": {
        "chrome": "7688387d6b1e59c6fdba0eb570cef01094eec10cc16f33a1d1df82d11a137226",
        "jsonl": "53aa0bf3b371fcfddf649d875ce4a1bdd7d73c42f7f1f4486d99b6f83ce493b8",
    },
}


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _observed_run():
    data = OBSERVED.input()
    cluster = OBSERVED.cluster()
    cluster.bus.set_level("full")
    OBSERVED.sort(cluster, data)
    prof = RunProfile.from_cluster(cluster, block_items=OBSERVED.block_items)
    return cluster, prof, {**OBSERVED.run_meta(data).to_dict(), "hw": prof.hw.to_dict()}


def _digests(name: str, tmp_dir) -> dict:
    cluster, prof, meta = _observed_run() if name == "observed4" else _run(name)
    events = cluster.bus.events
    chrome = f"{tmp_dir}/{name}.trace.json"
    write_chrome_trace(
        chrome,
        events,
        {node.rank: node.name for node in cluster.nodes},
        critical=prof.critical.segments,
    )
    out = {"chrome": _file_sha(chrome)}
    if name == "observed4":
        jsonl = f"{tmp_dir}/{name}.jsonl"
        write_jsonl(jsonl, events, meta)
        out["jsonl"] = _file_sha(jsonl)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_bytes_match_golden(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]


def test_pins_every_export_golden_run():
    assert set(RUNS) < set(GOLDEN)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: _digests(name, tmp) for name in GOLDEN}, indent=4))
