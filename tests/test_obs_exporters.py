"""Tests for the JSONL, Chrome-trace, and Prometheus exporters."""

import json
import pathlib
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    FaultInjected,
    MemRelease,
    MemReserve,
    NetTransfer,
    Retry,
    StepBegin,
    StepEnd,
)
from repro.obs.exporters import (
    read_jsonl,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads.generators import make_benchmark

DATA_DIR = pathlib.Path(__file__).parent / "data"


def hand_built_events():
    """A tiny, fixed event stream exercising every exporter branch."""
    return [
        StepBegin(t=0.0, node=0, step="1:local-sort"),
        StepBegin(t=0.0, node=1, step="1:local-sort"),
        BlockRead(t=0.2, node=0, step="1:local-sort", disk="node0.disk",
                  n_items=256, itemsize=4, cost=0.2),
        MemReserve(t=0.2, node=0, step="1:local-sort", n_items=256, in_use=256),
        BlockWrite(t=0.5, node=0, step="1:local-sort", disk="node0.disk",
                   n_items=256, itemsize=4, cost=0.3),
        MemRelease(t=0.5, node=0, step="1:local-sort", n_items=256, in_use=0),
        StepEnd(t=0.6, node=0, step="1:local-sort", duration=0.6),
        StepEnd(t=1.0, node=1, step="1:local-sort", duration=1.0),
        BarrierWait(t=1.0, node=0, step="1:local-sort", wait=0.4),
        BarrierWait(t=1.0, node=1, step="1:local-sort", wait=0.0),
        NetTransfer(t=1.3, node=0, step="4:redistribute", src=0, dst=1,
                    nbytes=1024, duration=0.3),
        FaultInjected(t=1.4, node=1, step="4:redistribute", category="disk",
                      detail="node1.disk read io#7"),
        Retry(t=1.5, node=-1, step="4:redistribute", attempt=1, backoff=0.05),
    ]


class TestChromeTraceGolden:
    def test_matches_golden_file(self):
        """Byte-stable export: key order, µs conversion, track layout."""
        got = to_chrome_trace(hand_built_events(), node_names={0: "n0", 1: "n1"})
        golden = json.loads((DATA_DIR / "chrome_trace_golden.json").read_text())
        assert got == golden

    def test_span_ts_monotonic_and_start_adjusted(self):
        trace = to_chrome_trace(hand_built_events())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        ts = [e["ts"] for e in spans]
        assert ts == sorted(ts)
        # StepEnd(t=0.6, duration=0.6) -> span starts at t=0.
        step0 = next(e for e in spans if e["name"] == "1:local-sort" and e["pid"] == 0)
        assert step0["ts"] == 0.0 and step0["dur"] == 0.6 * 1e6

    def test_cluster_events_get_cluster_pid(self):
        trace = to_chrome_trace(hand_built_events())
        retry = next(
            e for e in trace["traceEvents"] if e["name"] == "retry:4:redistribute"
        )
        assert retry["pid"] == 10_000
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert proc_names[10_000] == "cluster"

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "t.trace.json"
        write_chrome_trace(str(path), hand_built_events())
        loaded = json.loads(path.read_text())
        assert loaded == to_chrome_trace(hand_built_events())


class TestJSONL:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "e.jsonl"
        events = hand_built_events()
        write_jsonl(str(path), events, meta={"n_items": 512, "perf": [1, 1]})
        meta, back = read_jsonl(str(path))
        assert meta == {"n_items": 512, "perf": [1, 1]}
        assert back == events

    def test_roundtrip_without_meta(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(str(path), hand_built_events())
        meta, back = read_jsonl(str(path))
        assert meta is None
        assert back == hand_built_events()


class TestPrometheus:
    def test_counters_and_format(self):
        text = to_prometheus(hand_built_events())
        lines = text.splitlines()
        assert '# TYPE repro_blocks_read_total counter' in lines
        assert 'repro_blocks_read_total{disk="node0.disk",node="0"} 1' in lines
        assert 'repro_items_write_total{disk="node0.disk",node="0"} 256' in lines
        assert 'repro_net_bytes_total{dst="1",src="0"} 1024' in lines
        assert 'repro_mem_in_use_peak_items{node="0"} 256' in lines
        assert 'repro_faults_total{category="disk"} 1' in lines
        assert 'repro_retries_total{step="4:redistribute"} 1' in lines
        # Metric families are emitted sorted and only once.
        names = [ln.split("{")[0] for ln in lines if ln and not ln.startswith("#")]
        assert names == sorted(names)


class TestRealRunTrace:
    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_sorted_run_has_five_step_spans_per_node(self, kernel):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(16_000)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048),
            kernel=kernel,
        )
        cluster.bus.set_level("io")
        sort_array(
            cluster, perf, data, PSRSConfig(block_items=256, message_items=2048)
        )
        trace = to_chrome_trace(cluster.bus.events)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        ts = [e["ts"] for e in spans]
        assert ts == sorted(ts)
        for rank in range(4):
            steps = [
                e for e in spans if e["pid"] == rank and e.get("cat") == "step"
            ]
            assert len(steps) >= 5
        assert all(e["dur"] >= 0 for e in spans)

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_io_spans_are_the_drive_intervals_and_never_overlap(self, kernel):
        """An ``io`` span is ``[queued, queued + cost]`` — when the drive
        served the access, not when the node issued it (a write-behind
        ``BlockWrite`` is stamped with its issue time) — so the spans of
        one disk track tile the drive's timeline without overlapping."""
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(16_000), seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048),
            kernel=kernel,
        )
        cluster.bus.set_level("io")
        sort_array(cluster, perf, data, PSRSConfig(block_items=256, message_items=2048))
        accesses = [
            e for e in cluster.bus.events if isinstance(e, (BlockRead, BlockWrite))
        ]
        assert accesses and all(e.queued >= 0.0 for e in accesses)
        trace = to_chrome_trace(cluster.bus.events)
        io = [e for e in trace["traceEvents"] if e.get("cat") == "io"]
        assert sorted((e["pid"], e["ts"], e["dur"]) for e in io) == sorted(
            (e.node, e.queued * 1e6, e.cost * 1e6) for e in accesses
        )
        tracks = {}
        for e in io:
            tracks.setdefault((e["pid"], e["tid"]), []).append((e["ts"], e["ts"] + e["dur"]))
        assert len(tracks) == 4
        for intervals in tracks.values():
            intervals.sort()
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                # 1e-3 µs = 1 ns of simulated time: float noise only.
                assert start >= end - 1e-3
