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

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.obs.audit import RunMeta
from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.profiler import RunProfile
from repro.workloads.generators import make_benchmark

from tests.test_export_goldens import RUNS, _run

OBSERVED_PERF = (1, 1, 4, 4)
OBSERVED_MEMORY = 2048
OBSERVED_BLOCK = 256

GOLDEN = {
    "event": {
        "chrome": "a121dd4300de4481420950c08a828192d1049af07a7ddb56901fc6866c71642e",
    },
    "lockstep": {
        "chrome": "5394e88baca1e48a4e192cc18caa6350d6aaa554219c7394e12e10c2d706b76b",
    },
    "faulted": {
        "chrome": "a3d883524908aeed5e6abfd1ee6d81f0c781524477d1dd6a9490880e61fe6b08",
    },
    "observed4": {
        "chrome": "7688387d6b1e59c6fdba0eb570cef01094eec10cc16f33a1d1df82d11a137226",
        "jsonl": "45465b269249662933ed9b1adac89e5be4575afbcf4b06f9d3dcb6b8d2140096",
    },
}


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _observed_run():
    perf = PerfVector(list(OBSERVED_PERF))
    data = make_benchmark("uniform", perf.nearest_exact(2**16), seed=301)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in OBSERVED_PERF], memory_items=OBSERVED_MEMORY)
    )
    cluster.bus.set_level("full")
    cfg = PSRSConfig(block_items=OBSERVED_BLOCK, message_items=8192)
    res = sort_array(cluster, perf, data, cfg)
    prof = RunProfile.from_cluster(cluster, block_items=OBSERVED_BLOCK)
    meta = RunMeta(
        n_items=res.n_items,
        perf=OBSERVED_PERF,
        memory_items=OBSERVED_MEMORY,
        block_items=OBSERVED_BLOCK,
        oversample=cfg.oversample,
        d_duplicates=max_duplicate_count(data),
        pivot_method=cfg.pivot_method,
    )
    return cluster, prof, {**meta.to_dict(), "hw": prof.hw.to_dict()}


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
