"""Causal critical-path profiler: conservation, blame, what-if accuracy.

The acceptance contract (ISSUE 9) is asserted literally on a recorded
fault-free {1,1,4,4} run of 131k items:

* the critical path's total duration equals the run's elapsed simulated
  time (the walk reaches t = 0 and loses nothing on jumps);
* every (step, node) blame cell's components sum to the cell's span —
  the report conserves time, it never estimates it;
* replaying the recorded operation sequence reproduces the elapsed time
  exactly, and for eight sequence-preserving what-if scenarios the
  predicted elapsed time equals an *actual* re-run under the modified
  configuration to float noise.

Plus: telemetry consistency under degraded (node-kill) runs, the
exporter satellites (flow events, critical-path track, Prometheus
counters) and the bench regression report.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.network import FAST_ETHERNET, MYRINET
from repro.cluster.node import CpuParams
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.faults.plan import DiskFault, FaultPlan, MessageFault, NodeKill, RetryPolicy
from repro.pdm.disk import DiskParams
from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    FaultInjected,
    NetTransfer,
    Retry,
    StepBegin,
    StepEnd,
)
from repro.obs.exporters import read_jsonl, to_chrome_trace, to_prometheus, write_jsonl
from repro.obs.profiler import (
    HardwareMeta,
    RunProfile,
    WhatIfError,
    profile_from_jsonl_meta,
)
from repro.workloads.generators import make_benchmark

N_ACCEPT = 131072
MEMORY = 2048
BLOCK = 256
MESSAGE = 8192


def run_sort(
    speeds,
    n=N_ACCEPT,
    link=FAST_ETHERNET,
    n_disks=1,
    level="full",
    faults=None,
    seed=0,
    disk=DiskParams(),
    cpu=CpuParams(),
    kernel="event",
    perf=None,
    retry=None,
):
    """One full-capture sort run; returns (cluster, result).

    ``perf`` is the algorithm's perf vector; it defaults to the machine
    speeds, and is passed separately to re-run the *same* algorithm
    configuration on a uniformly faster machine.
    """
    perf = PerfVector([int(s) for s in (speeds if perf is None else perf)])
    n = perf.nearest_exact(n)
    data = make_benchmark(0, n, seed=seed)
    spec = heterogeneous_cluster(
        [float(s) for s in speeds], memory_items=MEMORY, link=link, disk=disk, cpu=cpu
    )
    if n_disks != 1:
        spec = replace(
            spec, nodes=tuple(replace(ns, n_disks=n_disks) for ns in spec.nodes)
        )
    cluster = Cluster(spec, kernel=kernel)
    cluster.bus.set_level(level)
    cfg = PSRSConfig(block_items=BLOCK, message_items=MESSAGE)
    res = sort_array(cluster, perf, data, cfg, faults=faults, retry=retry)
    return cluster, res


@pytest.fixture(scope="module")
def baseline():
    """The acceptance run: fault-free {1,1,4,4}, 131k items, full capture."""
    cluster, res = run_sort([1, 1, 4, 4])
    prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
    return cluster, res, prof


class TestConservation:
    def test_critical_path_total_equals_elapsed(self, baseline):
        _, res, prof = baseline
        assert prof.elapsed == pytest.approx(res.elapsed, rel=1e-12)
        assert prof.critical.complete
        assert prof.critical.total == pytest.approx(res.elapsed, rel=1e-9)

    def test_critical_path_segments_are_contiguous(self, baseline):
        _, _, prof = baseline
        segs = prof.critical.segments
        assert segs[0].t0 == pytest.approx(0.0, abs=1e-9)
        assert segs[-1].t1 == pytest.approx(prof.elapsed, rel=1e-9)
        for a, b in zip(segs, segs[1:]):
            assert b.t0 == pytest.approx(a.t1, rel=1e-9, abs=1e-12)

    def test_blame_cells_conserve_step_spans(self, baseline):
        """Components of each (step, node) cell sum to the cell's span."""
        _, _, prof = baseline
        assert prof.blame.steps, "no steps decomposed"
        for sb in prof.blame.steps:
            for node, comps in sb.by_node.items():
                span = sb.spans[node]
                assert sum(comps.values()) == pytest.approx(span, rel=1e-9, abs=1e-12)

    def test_run_totals_tile_every_node_clock(self, baseline):
        _, _, prof = baseline
        total = sum(prof.blame.totals.values())
        assert total == pytest.approx(
            prof.timeline.n_nodes * prof.elapsed, rel=1e-9
        )

    def test_unattributed_time_is_negligible(self, baseline):
        """Full capture leaves (almost) no 'other' clock advance."""
        _, _, prof = baseline
        budget = prof.timeline.n_nodes * prof.elapsed
        assert prof.blame.totals["other"] < 0.01 * budget

    def test_barrier_idle_is_reported(self, baseline):
        _, _, prof = baseline
        assert prof.blame.totals["barrier"] > 0.0
        assert sum(prof.blame.barrier_seconds.values()) == pytest.approx(
            prof.blame.totals["barrier"], rel=1e-9
        )


class TestSkewAndStraggler:
    def test_per_step_time_skew(self, baseline):
        _, _, prof = baseline
        numbered = [sb for sb in prof.blame.steps if sb.step[0].isdigit()]
        assert len(numbered) == 5
        for sb in numbered:
            assert sb.time_skew >= 1.0
            assert len(sb.by_node) == 4

    def test_straggler_index_within_paper_regime(self, baseline):
        """max/mean productive time >= 1; this balanced run should also
        sit well inside the paper's 2x item-imbalance reference."""
        _, _, prof = baseline
        assert 1.0 <= prof.blame.straggler_index
        assert prof.blame.straggler_index < prof.blame.straggler_reference


class TestReplayAndWhatIf:
    def test_baseline_replay_fidelity(self, baseline):
        """Replaying the op sequence under the run's own parameters
        reproduces the recorded elapsed time."""
        _, res, prof = baseline
        assert prof.baseline_replay() == pytest.approx(res.elapsed, rel=1e-12)

    def test_baseline_replay_fidelity_lockstep(self):
        cluster, res = run_sort([1, 1, 4, 4], n=2**15, kernel="lockstep")
        prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
        assert prof.hw.kernel == "lockstep"
        assert prof.baseline_replay() == pytest.approx(res.elapsed, rel=1e-12)

    def test_replay_of_log_without_hw_head(self):
        """A log with no ``hw`` head replays on the stock hardware, with
        the node count inferred from the operations."""
        cluster, res = run_sort([1, 1, 1], n=2**14)
        prof = profile_from_jsonl_meta({}, cluster.bus.events)
        assert prof.hw == HardwareMeta()
        assert prof.baseline_replay() == pytest.approx(res.elapsed, rel=1e-12)

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_replay_of_faulty_degraded_log(self, kernel):
        """Subset barriers (survivor view), network fault surcharges and a
        retry backoff all replay exactly."""
        plan = FaultPlan(
            disk_faults=(DiskFault(node=1, after_ios=40, count=1),),
            message_faults=(
                MessageFault(drop_probability=0.3, delay_probability=0.3, delay=0.01),
            ),
            node_kills=(NodeKill(node=2, step=4),),
            seed=3,
        )
        cluster, res = run_sort(
            [1, 1, 4, 4],
            n=2**15,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, backoff=0.05),
            kernel=kernel,
        )
        assert res.faults.degraded and res.faults.total_retries == 1
        prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
        rows = prof.events.rows
        link, packet = prof.hw.link, prof.hw.packet_bytes
        assert any(row[0] is Retry for row in rows)
        assert any(
            row[0] is NetTransfer and row[7] > link.message_time(row[6], packet)
            for row in rows
        )
        barrier_ranks = {}
        for row in rows:
            if row[0] is BarrierWait:
                barrier_ranks.setdefault(row[1], set()).add(row[2])
        assert any(len(ranks) == 3 for ranks in barrier_ranks.values())
        assert prof.baseline_replay() == pytest.approx(res.elapsed, rel=1e-12)

    @pytest.mark.parametrize(
        "spec, rerun_kwargs",
        [
            ("disks=2", dict(speeds=[1, 1, 4, 4], n_disks=2)),
            ("disks=4", dict(speeds=[1, 1, 4, 4], n_disks=4)),
            ("net=myrinet", dict(speeds=[1, 1, 4, 4], link=MYRINET)),
            (
                "net.latency=1e-3",
                dict(speeds=[1, 1, 4, 4], link=replace(FAST_ETHERNET, latency=1e-3)),
            ),
            (
                "net.bandwidth=25e6",
                dict(
                    speeds=[1, 1, 4, 4], link=replace(FAST_ETHERNET, bandwidth=25e6)
                ),
            ),
            (
                "disk.seek=4e-3",
                dict(speeds=[1, 1, 4, 4], disk=DiskParams(seek_time=4e-3)),
            ),
            (
                "disk.bandwidth=40e6",
                dict(speeds=[1, 1, 4, 4], disk=DiskParams(bandwidth=40e6)),
            ),
            (
                "cpu=4e-8",
                dict(speeds=[1, 1, 4, 4], cpu=CpuParams(seconds_per_op=4e-8)),
            ),
        ],
    )
    def test_prediction_within_10pct_of_actual_rerun(
        self, baseline, spec, rerun_kwargs
    ):
        """The acceptance bound: predicted elapsed vs. a real re-run, for
        eight sequence-preserving scenarios.  The edit leaves the operation
        sequence untouched, so the prediction is exact."""
        _, _, prof = baseline
        predicted = prof.what_if(spec).predicted_elapsed
        _, actual = run_sort(**rerun_kwargs)
        assert predicted == pytest.approx(actual.elapsed, rel=1e-9)

    def test_uniform_perf_prediction(self, baseline):
        """Uniformly doubling the machine's speeds keeps the operation
        sequence, so the prediction equals a re-run of the *same*
        algorithm configuration (``PerfVector([1,1,4,4])``) on the 2x
        machine.  Re-running with ``PerfVector([2,2,8,8])`` instead is a
        different algorithm run — the step-2 sample size c(p-1)*perf[i]
        doubles — which is where the 13% gap once attributed to network
        contention reordering came from."""
        _, res, prof = baseline
        predicted = prof.what_if("perf=2,2,8,8").predicted_elapsed
        _, actual = run_sort([2, 2, 8, 8], perf=[1, 1, 4, 4])
        assert predicted == pytest.approx(actual.elapsed, rel=1e-9)
        assert res.elapsed / 2 < predicted < res.elapsed

    def test_speedup_direction(self, baseline):
        _, _, prof = baseline
        assert prof.what_if("disks=4").speedup > 1.0
        assert prof.what_if("net.latency=0.01").speedup < 1.0

    def test_uniform_perf_scaling_is_exact_sequence(self, baseline):
        _, _, prof = baseline
        w = prof.what_if("perf=2,2,8,8")
        assert not w.approximate
        assert prof.what_if("perf=1,1,1,1").approximate

    def test_combined_clauses(self, baseline):
        _, _, prof = baseline
        w = prof.what_if("disks=4; net=myrinet")
        assert w.predicted_elapsed < prof.what_if("disks=4").predicted_elapsed

    def test_bad_specs_raise(self, baseline):
        _, _, prof = baseline
        for bad in [
            "",
            "nonsense",
            "wat=1",
            "perf=1,1",
            "perf=0,0,0,0",
            "net=carrier-pigeon",
            "disks=0",
            "block=abc",
        ]:
            with pytest.raises(WhatIfError):
                prof.what_if(bad)

    def test_block_whatif_needs_block_items(self, baseline):
        cluster, _, prof = baseline
        assert prof.what_if("block=512").approximate
        bare = RunProfile(prof.events, hw=prof.hw)  # no block_items
        with pytest.raises(WhatIfError):
            bare.what_if("block=512")


class TestJsonlRoundtrip:
    def test_profile_from_saved_log(self, baseline, tmp_path):
        """Recorded run: JSONL roundtrip preserves hw model and profile."""
        cluster, res, prof = baseline
        path = str(tmp_path / "run.jsonl")
        meta = {"block_items": BLOCK, "hw": prof.hw.to_dict()}
        write_jsonl(path, prof.events, meta)
        meta2, events2 = read_jsonl(path)
        prof2 = profile_from_jsonl_meta(meta2, events2)
        assert prof2.hw == prof.hw
        assert prof2.block_items == BLOCK
        assert prof2.elapsed == pytest.approx(res.elapsed, rel=1e-9)
        assert prof2.critical.total == pytest.approx(prof.critical.total, rel=1e-9)

    def test_saved_log_reads_back_equal_events(self, baseline, tmp_path):
        cluster, _, prof = baseline
        path = str(tmp_path / "run.jsonl")
        write_jsonl(path, cluster.bus.events)
        _, back = read_jsonl(path)
        assert back == cluster.bus.events == prof.events

    def test_profile_is_a_snapshot_of_a_live_bus(self):
        """Later emits (and a later Compute coalesce into the tail row)
        must not reach a profile already built from the bus."""
        cluster, _ = run_sort([1, 1], n=2**12)
        bus = cluster.bus
        bus.record_compute(node=0, t=9.0, seconds=0.5, ops=1.0)
        prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
        before = list(prof.events)
        bus.record_compute(node=0, t=9.5, seconds=0.5, ops=1.0)  # rewrites the bus tail
        bus.record_step_begin("late", 0, 10.0)
        assert len(bus.events) == len(before) + 1
        assert bus.events[-2].seconds == 1.0
        assert prof.events == before and prof.events[-1].seconds == 0.5

    def test_missing_hw_defaults(self):
        prof = profile_from_jsonl_meta({}, [])
        assert prof.hw == HardwareMeta()
        assert prof.block_items is None


class TestDegradedRunTelemetry:
    """EventKernel timeline/telemetry consistency when a node dies."""

    @pytest.fixture(scope="class")
    def degraded(self):
        plan = FaultPlan(node_kills=(NodeKill(node=2, step=4),))
        cluster, res = run_sort([1, 1, 4, 4], n=2**15, faults=plan)
        assert res.faults.degraded
        return cluster, res

    def test_per_node_timestamps_monotone(self, degraded):
        cluster, _ = degraded
        last = {}
        for ev in cluster.bus.events:
            node = getattr(ev, "node", -1)
            assert ev.t >= last.get(node, 0.0) - 1e-12, (
                f"node {node} went back in time at {ev!r}"
            )
            last[node] = max(last.get(node, 0.0), ev.t)

    def test_spans_stay_paired(self, degraded):
        """Every StepEnd closes a prior StepBegin of the same (step, node);
        a killed node may leave a begin open, never an orphan end."""
        cluster, _ = degraded
        open_spans = set()
        for ev in cluster.bus.events:
            if isinstance(ev, StepBegin):
                assert (ev.step, ev.node) not in open_spans
                open_spans.add((ev.step, ev.node))
            elif isinstance(ev, StepEnd):
                assert (ev.step, ev.node) in open_spans, (
                    f"orphan StepEnd {ev.step!r} on node {ev.node}"
                )
                open_spans.discard((ev.step, ev.node))

    def test_dead_node_falls_silent(self, degraded):
        """After its kill the node performs no work of its own.  The
        recovery step may still emit events *at* the dead node — block
        reads against its disk and transfers shipping its spilled data
        to a survivor model the salvage — but outside recovery the node
        must never begin/end a step, wait at a barrier, or send again."""
        cluster, _ = degraded
        events = cluster.bus.events
        kills = [
            ev
            for ev in events
            if isinstance(ev, FaultInjected) and ev.category == "node-kill"
        ]
        assert kills, "no kill event recorded"
        kill = kills[0]
        own_activity = [
            ev
            for ev in events
            if ev.t > kill.t + 1e-12
            and (
                (
                    isinstance(ev, (StepBegin, StepEnd, BarrierWait))
                    and ev.node == kill.node
                )
                or (
                    isinstance(ev, NetTransfer)
                    and ev.src == kill.node
                    and not ev.step.startswith("recover:")
                )
            )
        ]
        assert not own_activity, (
            f"dead node {kill.node} kept working: {own_activity[:3]}"
        )

    def test_timeline_still_conserves(self, degraded):
        """The reconstruction stays exact on degraded streams."""
        cluster, res = degraded
        prof = RunProfile.from_cluster(cluster, block_items=BLOCK)
        assert prof.elapsed == pytest.approx(res.elapsed, rel=1e-9)
        for sb in prof.blame.steps:
            for node, comps in sb.by_node.items():
                assert sum(comps.values()) == pytest.approx(
                    sb.spans[node], rel=1e-9, abs=1e-12
                )


class TestExporterSatellites:
    EVENTS = [
        StepBegin(t=0.0, node=0, step="4:redistribute"),
        StepBegin(t=0.0, node=1, step="4:redistribute"),
        BlockRead(t=0.3, node=0, step="4:redistribute", disk="node0.disk",
                  n_items=256, itemsize=4, cost=0.3),
        NetTransfer(t=0.6, node=0, step="4:redistribute", src=0, dst=1,
                    nbytes=4096, duration=0.2),
        BlockWrite(t=0.9, node=1, step="4:redistribute", disk="node1.disk",
                   n_items=256, itemsize=4, cost=0.1),
        StepEnd(t=0.9, node=0, step="4:redistribute", duration=0.9),
        StepEnd(t=1.0, node=1, step="4:redistribute", duration=1.0),
        BarrierWait(t=1.0, node=0, step="4:redistribute", wait=0.1),
        BarrierWait(t=1.0, node=1, step="4:redistribute", wait=0.0),
    ]

    def test_flow_events_link_send_to_recv(self):
        trace = to_chrome_trace(self.EVENTS)
        flows = [e for e in trace["traceEvents"] if e.get("ph") in ("s", "f")]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert start["pid"] == 0 and finish["pid"] == 1  # pid = node rank
        assert finish["bp"] == "e"
        assert start["ts"] == pytest.approx(0.4e6)  # send start, µs
        assert finish["ts"] == pytest.approx(0.6e6)  # arrival, µs

    def test_recv_span_on_destination_track(self):
        trace = to_chrome_trace(self.EVENTS)
        recv = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name", "").startswith("recv<-")
        ]
        assert len(recv) == 1 and recv[0]["pid"] == 1

    def test_critical_path_track(self):
        prof = RunProfile(self.EVENTS)
        trace = to_chrome_trace(self.EVENTS, critical=prof.critical.segments)
        crit = [e for e in trace["traceEvents"] if e.get("cat") == "critical"]
        assert crit, "no critical-path track emitted"
        assert sum(e["dur"] for e in crit) == pytest.approx(
            prof.critical.total * 1e6, rel=1e-6
        )

    def test_prometheus_busy_and_barrier_counters(self):
        text = to_prometheus(self.EVENTS)
        assert (
            'repro_drive_busy_seconds_total{disk="node0.disk",node="0"} 0.3' in text
        )
        assert (
            'repro_drive_busy_seconds_total{disk="node1.disk",node="1"} 0.1' in text
        )
        assert 'repro_node_barrier_wait_seconds_total{node="0"} 0.1' in text
        assert 'repro_node_barrier_wait_seconds_total{node="1"} 0' in text


def _bench_entry(elapsed, best=None, steps=None, best_steps=None, blame=None):
    """A structurally valid repro-bench-sort/2 run entry."""
    entry = {
        "key": "1000x1-1",
        "n_items": 1000,
        "perf": [1, 1],
        "elapsed_seconds": elapsed,
        "step_seconds": steps or {},
    }
    if best is not None:
        entry["best_elapsed_seconds"] = best
    if best_steps is not None:
        entry["best_step_seconds"] = best_steps
    if blame is not None:
        entry["blame"] = blame
    return entry


class TestBenchReport:
    def test_report_rows_flag_regressions_with_blame(self):
        from repro.metrics.bench import SCHEMA, report_rows

        doc = {
            "schema": SCHEMA,
            "runs": [
                _bench_entry(
                    elapsed=2.0,
                    best=1.0,
                    steps={"1:local-sort": 0.5, "4:redistribute": 1.5},
                    best_steps={"1:local-sort": 0.45, "4:redistribute": 0.55},
                    blame={
                        "steps": [
                            {"step": "4:redistribute", "dominant": "net"},
                        ]
                    },
                )
            ],
        }
        (row,) = report_rows(doc, factor=1.2)
        assert row["regressed"]
        assert row["ratio"] == pytest.approx(2.0)
        assert row["blamed_step"] == "4:redistribute"
        assert row["blamed_step_delta_seconds"] == pytest.approx(0.95)
        assert row["blamed_component"] == "net"

    def test_report_rows_within_factor_is_clean(self):
        from repro.metrics.bench import SCHEMA, report_rows

        doc = {"schema": SCHEMA, "runs": [_bench_entry(elapsed=1.1, best=1.0)]}
        (row,) = report_rows(doc, factor=1.2)
        assert not row["regressed"]

    def test_record_with_guard_tracks_best_step_seconds(self, tmp_path):
        import importlib.util
        import pathlib

        helpers_py = (
            pathlib.Path(__file__).parent.parent / "benchmarks" / "helpers.py"
        )
        spec = importlib.util.spec_from_file_location("bench_helpers", helpers_py)
        helpers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(helpers)

        path = str(tmp_path / "BENCH_sort.json")
        fast = {
            "n_items": 1000,
            "perf": [1, 1],
            "elapsed_seconds": 1.0,
            "step_seconds": {"1:local-sort": 0.4},
        }
        slow = {**fast, "elapsed_seconds": 1.1, "step_seconds": {"1:local-sort": 0.5}}
        helpers.record_with_guard(path, fast)
        doc = helpers.record_with_guard(path, slow)
        entry = doc["runs"][0]
        # The slower re-run keeps the best run's elapsed AND step times.
        assert entry["elapsed_seconds"] == pytest.approx(1.1)
        assert entry["best_elapsed_seconds"] == pytest.approx(1.0)
        assert entry["best_step_seconds"] == {"1:local-sort": 0.4}
        with pytest.raises(AssertionError):
            helpers.record_with_guard(path, {**fast, "elapsed_seconds": 5.0})

    def test_cli_exit_codes_and_artifact(self, tmp_path, capsys):
        from repro.cli import main
        from repro.metrics.bench import SCHEMA

        clean = tmp_path / "clean.json"
        clean.write_text(
            json.dumps({"schema": SCHEMA, "runs": [_bench_entry(1.0, best=1.0)]})
        )
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"schema": SCHEMA, "runs": [_bench_entry(2.0, best=1.0)]})
        )
        out_file = tmp_path / "report.json"
        assert main(["bench", "report", str(clean)]) == 0
        assert "ok" in capsys.readouterr().out
        rc = main(
            ["bench", "report", str(bad), "--format", "json", "--output",
             str(out_file)]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_regressions"] == 1
        assert json.loads(out_file.read_text())["runs"][0]["regressed"]

    def test_cli_bad_artifact(self, tmp_path, capsys):
        from repro.cli import main

        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["bench", "report", str(broken)]) == 2


class TestCLIProfile:
    @pytest.fixture(scope="class")
    def events_file(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("profile") / "run.jsonl"
        rc = main(
            ["sort", "--n", "20000", "--perf", "1,1,4,4", "--memory", "2048",
             "--block", "256", "--message", "2048", "--events", str(path)]
        )
        assert rc == 0
        return str(path)

    def test_sort_json_summary_carries_profile(self, capsys):
        from repro.cli import main

        rc = main(
            ["sort", "--n", "8000", "--perf", "1,1,4,4", "--memory", "1024",
             "--block", "128", "--message", "1024", "--profile",
             "--format", "json"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["critical_path"]["complete"]
        assert summary["critical_path"]["total_seconds"] == pytest.approx(
            summary["elapsed_seconds"], rel=1e-9
        )
        skews = summary["step_time_skew"]
        assert set(summary["step_seconds"]) <= set(skews)
        assert all(v >= 1.0 for v in skews.values())
        assert summary["blame"]["straggler_index"] >= 1.0

    def test_events_meta_records_hardware(self, events_file):
        meta, _ = read_jsonl(events_file)
        hw = HardwareMeta.from_dict(meta["hw"])
        assert hw.speeds == (1.0, 1.0, 4.0, 4.0)
        assert hw.kernel == "event"
        assert meta["block_items"] == 256

    def test_profile_json(self, events_file, capsys):
        from repro.cli import main

        rc = main(
            ["profile", events_file, "--what-if", "disks=4", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical_path"]["complete"]
        assert payload["capture_has_compute"]
        (pred,) = payload["what_if"]
        assert pred["scenario"] == "disks=4"
        assert pred["speedup"] > 1.0

    def test_profile_text_and_trace(self, events_file, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        rc = main(
            ["profile", events_file, "--what-if", "net=myrinet", "--trace",
             str(trace_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "what-if predictions" in out
        trace = json.loads(trace_path.read_text())
        assert any(e.get("cat") == "critical" for e in trace["traceEvents"])
        assert any(e.get("ph") == "s" for e in trace["traceEvents"])

    def test_profile_bad_whatif(self, events_file, capsys):
        from repro.cli import main

        assert main(["profile", events_file, "--what-if", "warp=9"]) == 2
        assert "unknown what-if key" in capsys.readouterr().err
