"""End-to-end tests for the bounds auditor and its CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.obs.audit import (
    AuditRow,
    RunMeta,
    StepNodeIO,
    audit_run,
    collect_step_io,
)
from repro.obs.events import BlockRead, BlockWrite
from repro.workloads.generators import make_benchmark

NUMBERED_STEPS = {
    "1:local-sort", "2:pivots", "3:partition", "4:redistribute", "5:final-merge",
}


def _audited_run(n=2**14, memory=1024, pivot_method="regular"):
    perf = PerfVector([1, 1, 4, 4])
    n = perf.nearest_exact(n)
    data = make_benchmark(0, n, seed=0)
    cluster = Cluster(
        heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=memory)
    )
    cluster.bus.set_level("io")
    cfg = PSRSConfig(block_items=256, message_items=2048, pivot_method=pivot_method)
    res = sort_array(cluster, perf, data, cfg)
    meta = RunMeta(
        n_items=res.n_items,
        perf=(1, 1, 4, 4),
        memory_items=memory,
        block_items=256,
        oversample=cfg.oversample,
        d_duplicates=max_duplicate_count(data),
        pivot_method=pivot_method,
    )
    return audit_run(cluster.bus.events, meta)


class TestAuditE2E:
    def test_heterogeneous_sort_satisfies_all_bounds(self):
        """Acceptance: every audited step I/O on {1,1,4,4} is within bound."""
        report = _audited_run()
        assert report.ok, report.table().render()
        bounded = {r.step for r in report.rows if r.bound_items is not None}
        assert bounded == NUMBERED_STEPS
        # Every numbered step has a row for every node.
        for step in NUMBERED_STEPS:
            assert {r.node for r in report.rows if r.step == step} == {0, 1, 2, 3}

    def test_bounds_hold_across_memory_and_pivot_configs(self):
        assert _audited_run(n=2**13, memory=2048).ok
        assert _audited_run(pivot_method="random").ok

    def test_quantile_pivot_step2_is_informational(self):
        report = _audited_run(n=2**13, memory=2048, pivot_method="quantile")
        step2 = [r for r in report.rows if r.step == "2:pivots"]
        assert step2 and all(r.bound_items is None for r in step2)
        others = [r for r in report.rows if r.step in NUMBERED_STEPS - {"2:pivots"}]
        assert all(r.ok for r in others)

    def test_violation_detected(self):
        report = _audited_run()
        meta = report.meta
        events = [
            BlockRead(t=0.0, node=0, step="1:local-sort", disk="d",
                      n_items=10 * meta.n_items, itemsize=4, cost=1.0)
        ]
        bad = audit_run(events, meta)
        assert not bad.ok
        assert len(bad.violations) == 1
        assert "VIOLATION" in bad.table().render()

    def test_collect_step_io_folds_reads_and_writes(self):
        events = [
            BlockRead(t=0.0, node=1, step="s", disk="d", n_items=10,
                      itemsize=4, cost=0.1),
            BlockWrite(t=0.1, node=1, step="s", disk="d", n_items=20,
                       itemsize=4, cost=0.1),
            BlockRead(t=0.2, node=2, step="s", disk="d", n_items=5,
                      itemsize=4, cost=0.1),
        ]
        cells = collect_step_io(events)
        assert cells[("s", 1)].item_ios == 30
        assert cells[("s", 1)].block_ios == 2
        assert cells[("s", 2)].items_read == 5

    def test_informational_rows_for_unnumbered_steps(self):
        meta = RunMeta(n_items=100, perf=(1, 1), memory_items=None,
                       block_items=16, oversample=4, d_duplicates=1)
        events = [
            BlockRead(t=0.0, node=0, step="gather", disk="d", n_items=16,
                      itemsize=4, cost=0.1)
        ]
        report = audit_run(events, meta)
        assert report.ok
        assert report.rows[0].bound_items is None
        assert report.rows[0].note == "outside Algorithm 1"

    def test_run_meta_roundtrip_and_validation(self):
        meta = RunMeta(n_items=100, perf=(1, 2), memory_items=512,
                       block_items=64, oversample=4, d_duplicates=3,
                       pivot_method="random")
        assert RunMeta.from_dict(meta.to_dict()) == meta
        with pytest.raises(ValueError, match="invalid run_meta"):
            RunMeta.from_dict({"n_items": 100})

    def test_audit_row_properties(self):
        row = AuditRow(step="s", node=0, measured_items=50, bound_items=100.0)
        assert row.ok and row.ratio == pytest.approx(0.5)
        info = AuditRow(step="s", node=0, measured_items=50, bound_items=None)
        assert info.ok and info.ratio is None
        assert StepNodeIO(items_read=3, items_written=4).item_ios == 7


DATA = Path(__file__).parent / "data"

#: Block-quantised bound and note per (numbered step, node) for every
#: audited BENCH_sort.json run, every fuzz-corpus scenario, the six
#: benchmarks/perf geometries and a seeded grid of 209 metas (non-exact
#: n, memory None, d > 0, quantile pivots, p = 16, slack 1.0) — written
#: from the closed-form auditor this one replaced; one entry per line.
GOLDEN_BOUNDS = json.loads(
    (DATA / "audit_bounds_golden.json").read_text(encoding="utf-8")
)["entries"]


def _touch(step, node):
    return BlockRead(t=0.0, node=node, step=step, disk="d", n_items=1,
                     itemsize=4, cost=0.0)


@pytest.mark.parametrize(
    "entry", GOLDEN_BOUNDS, ids=[e["name"] for e in GOLDEN_BOUNDS]
)
def test_audit_run_reproduces_golden_bounds(entry):
    """Every bound and note of the pinned cells, exactly (no tolerance)."""
    meta = RunMeta.from_dict(entry["meta"])
    p = len(meta.perf)
    steps = list(entry["steps"]) + ["gather", "recover:salvage"]
    events = [_touch(s, node) for s in steps for node in range(-1, p + 1)]
    report = audit_run(events, meta, polyphase_slack=entry["slack"])
    got = {(r.step, r.node): (r.bound_items, r.note) for r in report.rows}
    assert len(got) == len(events)
    for step in steps:
        for node in (-1, p):
            assert got[step, node] == (None, "no owning node")
    for step in ("gather", "recover:salvage"):
        for node in range(p):
            assert got[step, node] == (None, "outside Algorithm 1")
    for step, want in entry["steps"].items():
        for node, bound in enumerate(want["bounds"]):
            assert got[step, node] == (bound, want["note"]), (step, node)


def test_auditor_reaches_the_algebra_without_the_analysis_passes():
    """``benchmarks/perf`` imports the auditor inside every ``setup_s``;
    the cost interpreter, flow and protocol passes must not ride along —
    nor with the simulator itself, which reaches ``repro.analysis`` for
    the sanitizers (``cluster/network.py``)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for modules in ("repro.obs.audit, repro.core.theory", "repro", "repro.analysis"):
        code = (
            f"import sys, {modules}\n"
            "print([m for m in sys.modules if m.startswith(('repro.analysis.cost',"
            " 'repro.analysis.flow', 'repro.analysis.protocol'))])"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]", modules


class TestCLITelemetry:
    ARGS = ["sort", "--n", "8000", "--perf", "1,1,4,4", "--memory", "1024",
            "--block", "256", "--message", "2048"]

    def test_audit_flag_prints_pass_table(self, capsys):
        rc = main(self.ARGS + ["--audit"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bounds audit" in out
        assert "PASS" in out and "VIOLATION" not in out

    def test_trace_and_events_files_written(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        events = tmp_path / "run.jsonl"
        rc = main(self.ARGS + ["--trace", str(trace), "--events", str(events)])
        assert rc == 0
        data = json.loads(trace.read_text())
        assert "traceEvents" in data and len(data["traceEvents"]) > 50
        head = json.loads(events.read_text().splitlines()[0])
        assert head["kind"] == "run_meta" and head["perf"] == [1, 1, 4, 4]

    def test_audit_subcommand_replays_jsonl(self, capsys, tmp_path):
        events = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--events", str(events)]) == 0
        capsys.readouterr()
        rc = main(["audit", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rc = main(["audit", str(events), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and report["ok"] is True
        assert report["meta"]["n_items"] == 8000

    def test_audit_subcommand_rejects_metaless_log(self, capsys, tmp_path):
        log = tmp_path / "bare.jsonl"
        log.write_text(
            '{"kind": "step_begin", "t": 0.0, "node": 0, "step": "s"}\n'
        )
        rc = main(["audit", str(log)])
        assert rc == 2
        assert "run_meta" in capsys.readouterr().err

    def test_format_json_summary(self, capsys):
        rc = main(self.ARGS + ["--format", "json", "--audit"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "sort"
        assert summary["verified"] is True
        assert summary["n_items"] == 8000
        assert set(summary["step_seconds"]) == NUMBERED_STEPS
        assert summary["io"]["blocks_read"] > 0
        assert summary["io"]["labels"]
        assert summary["audit"]["ok"] is True

    def test_degraded_run_skips_audit_enforcement(self, capsys):
        rc = main(
            self.ARGS
            + ["--audit", "--fault-plan",
               '{"kills": [{"node": 3, "step": 3}]}']
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded" in out.lower()

    def test_certify_json_is_byte_pinned(self, capsys, tmp_path):
        """The CI telemetry run's ``audit --certify --format json``."""
        events = tmp_path / "run.jsonl"
        rc = main(["sort", "--n", "65536", "--perf", "1,1,4,4", "--memory",
                   "2048", "--block", "256", "--events", str(events)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["audit", str(events), "--certify", "--format", "json"])
        assert rc == 0
        golden = (DATA / "audit_certify_golden.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden
