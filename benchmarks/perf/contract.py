"""Where things live, and the metric declarations of ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single statement of
which metrics exist, their units, directions and regression bounds, and
which workloads run; the code here only reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Seconds one run measures when ``--seconds`` is not given; equals
#: ``run_seconds`` in BENCHMARK.json (the smoke test checks it).
RUN_SECONDS = 12

#: Metrics on the simulated clock and counts that repeat bit-for-bit: two
#: runs of the same code at the same seed must agree on them *exactly*
#: (``compare.py`` applies bound 0 to these, whatever the driver's bound).
EXACT = frozenset(
    {
        "sim_elapsed_s",
        "sim_io_blocks",
        "sim_net_bytes",
        "s_max",
        "audit_worst_ratio",
        "core.sample_items",
        "core.received_max_over_mean",
        "pdm.block_ios",
        "pdm.mem_high_water_ratio",
        "extsort.initial_runs",
        "extsort.phases",
        "extsort.dummy_runs",
        "cluster.kernel_io_calls",
        "cluster.net_messages",
        "cluster.barrier_wait_sim_s",
        "obs.events_captured",
        "obs.export_bytes",
        "faults.injected",
        "faults.retries",
        "faults.degraded_runs",
        "faults.recovered_runs",
    }
    | {f"core.step{i}_sim_s" for i in range(1, 6)}
    | {f"core.step{i}_io_blocks" for i in range(1, 6)}
)


def load() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared(section: str) -> dict[str, dict]:
    """``end_to_end`` / ``per_layer`` / ``workloads`` entries keyed by name."""
    return {entry["name"]: entry for entry in load()[section]}
