"""Machine-readable headline benchmark: ``repro sort --format json``.

Runs the Table-3 headline configuration ({1,1,4,4}, Fast-Ethernet,
scaled N) through the real CLI and folds the JSON summary into
``BENCH_sort.json`` at the repository root (a temporary copy of it,
except under ``REPRO_BENCH_SCALE=full``) — a keyed run list (one
entry per ``n_items x perf`` configuration, see
:mod:`repro.metrics.bench`) that other tooling can diff between commits
without parsing human-oriented tables, and that re-runs update instead
of clobbering.
"""

import io
import json
from contextlib import redirect_stdout

from helpers import once

from repro.cli import main
from repro.experiments import BLOCK_ITEMS, MEMORY_ITEMS, MESSAGE_ITEMS, N_TABLE3
from repro.metrics.bench import SCHEMA, append_run, get_run, run_key, validate_bench

ARGS = [
    "sort",
    "--n", str(N_TABLE3),
    "--perf", "1,1,4,4",
    "--memory", str(MEMORY_ITEMS),
    "--block", str(BLOCK_ITEMS),
    "--message", str(MESSAGE_ITEMS),
    "--audit",
    "--format", "json",
]


def test_bench_sort_json(benchmark, bench_json):
    buf = io.StringIO()

    def run():
        with redirect_stdout(buf):
            rc = main(list(ARGS))
        return rc

    rc = once(benchmark, run)
    assert rc == 0
    summary = json.loads(buf.getvalue())
    assert summary["verified"] is True
    assert summary["audit"]["ok"] is True
    assert summary["s_max"] < 1.5
    doc = append_run(bench_json, summary)
    # the artifact stays a valid keyed run list with this run folded in
    assert doc["schema"] == SCHEMA
    validate_bench(doc, path=bench_json)
    entry = get_run(doc, run_key(summary))
    assert entry is not None and entry["verified"] is True
