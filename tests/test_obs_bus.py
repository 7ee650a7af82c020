"""Tests for the telemetry bus, the step fold over it, and the IOStats fixes."""

import inspect

import pytest

from repro.cluster.machine import Cluster, ClusterView, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.obs.bus import LEVELS, TelemetryBus
from repro.obs.events import (
    BlockRead,
    BlockWrite,
    Compute,
    EventLog,
    FaultInjected,
    MemReserve,
    NetTransfer,
    StepBegin,
    StepEnd,
    event_from_dict,
    step_intervals,
    step_seconds,
)
from repro.obs.profiler import RunProfile
from repro.pdm.stats import IOStats
from repro.workloads.generators import make_benchmark


def _run(n=16_000, level="io", **cfg):
    perf = PerfVector([1, 1, 4, 4])
    n = perf.nearest_exact(n)
    data = make_benchmark(0, n, seed=0)
    cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048))
    cluster.bus.set_level(level)
    res = sort_array(
        cluster, perf, data, PSRSConfig(block_items=256, message_items=2048, **cfg)
    )
    return cluster, res


class TestBusBasics:
    def test_levels_are_ordered_and_gate_io(self):
        bus = TelemetryBus()
        assert bus.level == "steps"
        assert not bus.captures_io and not bus.captures_memory
        bus.set_level("io")
        assert bus.captures_io and not bus.captures_memory
        bus.set_level("full")
        assert bus.captures_io and bus.captures_memory
        assert LEVELS == ("steps", "io", "full")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown capture level"):
            TelemetryBus(level="everything")

    def test_step_scope_nests_and_unwinds_on_error(self):
        bus = TelemetryBus()
        assert bus.current_step == ""
        with bus.step_scope("outer"):
            assert bus.current_step == "outer"
            with bus.step_scope("inner"):
                assert bus.current_step == "inner"
            assert bus.current_step == "outer"
        with pytest.raises(RuntimeError):
            with bus.step_scope("raising"):
                raise RuntimeError("boom")
        assert bus.current_step == ""

    def test_io_events_suppressed_below_io_level(self):
        bus = TelemetryBus(level="steps")
        bus.record_block_io(
            "read", disk="d", node=0, t=0.0, n_items=4, itemsize=4, cost=0.1
        )
        bus.record_net_transfer(src=0, dst=1, t_end=0.0, nbytes=8, duration=0.1)
        assert bus.events == []
        bus.record_fault("disk", node=0, t=0.0)  # faults always recorded
        assert len(bus.events) == 1 and isinstance(bus.events[0], FaultInjected)

    def test_subscribers_see_events_live(self):
        bus = TelemetryBus(level="io")
        seen = []
        bus.subscribe(seen.append)
        bus.record_step_begin("s", 0, 0.0)
        bus.record_block_io(
            "write", disk="d", node=0, t=1.0, n_items=4, itemsize=4, cost=0.1
        )
        assert [type(e) for e in seen] == [StepBegin, BlockWrite]
        bus.unsubscribe(seen.append)
        bus.record_step_begin("s2", 0, 2.0)
        assert len(seen) == 2

    def test_clear_keeps_level_drops_events_and_trace(self):
        bus = TelemetryBus(level="full")
        bus.record_step_begin("s", 0, 0.0)
        bus.record_step_end("s", 0, 0.0, 1.0)
        assert step_seconds(bus.events) == {"s": 1.0}
        bus.clear()
        assert bus.level == "full"
        assert bus.events == []
        assert step_seconds(bus.events) == {}

    def test_event_roundtrip_through_dict(self):
        e = BlockRead(
            t=1.5, node=2, step="1:local-sort", disk="d0", n_items=256,
            itemsize=4, cost=0.01,
        )
        assert event_from_dict(e.to_dict()) == e
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "bogus"})
        with pytest.raises(ValueError, match="missing field"):
            event_from_dict({"kind": "block_read", "t": 0.0})


class TestEventLogFacade:
    """``bus.events`` stores rows and reads as a ``Sequence[Event]``."""

    def _bus(self):
        bus = TelemetryBus(level="full")
        bus.record_step_begin("s", 0, 0.0)
        with bus.step_scope("s"):
            bus.record_block_io(
                "read", disk="d", node=0, t=1.0, n_items=4, itemsize=4, cost=0.5,
                queued=0.5, stream="f", offset=2,
            )
            bus.record_mem("reserve", node=0, t=1.0, n_items=4, in_use=4)
        bus.record_step_end("s", 0, 0.0, 1.5)
        return bus

    def test_empty_log_equals_empty_list(self):
        bus = TelemetryBus()
        assert bus.events == [] and [] == bus.events
        assert len(bus.events) == 0 and not bus.events
        assert bus.events != [None]

    def test_reads_as_a_sequence_of_constructor_built_events(self):
        log = self._bus().events
        expected = [
            StepBegin(t=0.0, node=0, step="s"),
            BlockRead(t=1.0, node=0, step="s", disk="d", n_items=4, itemsize=4,
                      cost=0.5, queued=0.5, stream="f", offset=2),
            MemReserve(t=1.0, node=0, step="s", n_items=4, in_use=4),
            StepEnd(t=1.5, node=0, step="s", duration=1.5),
        ]
        assert isinstance(log, EventLog) and len(log) == 4
        assert log == expected and expected == log and list(log) == expected
        assert log[0] == expected[0] and log[-1] == expected[-1]
        assert log[1:3] == expected[1:3] and log[::-1] == expected[::-1]
        assert log[:2] != expected[1:3]
        assert expected[1] in log and log.index(expected[2]) == 2
        with pytest.raises(IndexError):
            log[4]

    def test_two_iterations_build_equal_hashable_frozen_objects(self):
        log = self._bus().events
        first, second = list(log), list(log)
        assert first == second
        assert [hash(e) for e in first] == [hash(e) for e in second]
        assert all(a is not b for a, b in zip(first, second))  # none is kept
        with pytest.raises(AttributeError):  # FrozenInstanceError
            first[0].t = 9.0
        with pytest.raises(TypeError):
            hash(log)

    def test_compute_coalescing_rewrites_the_tail_without_renotifying(self):
        bus = TelemetryBus(level="full")
        seen = []
        bus.subscribe(seen.append)
        with bus.step_scope("s"):
            bus.record_compute(node=0, t=1.0, seconds=1.0, ops=10.0)
            bus.record_compute(node=0, t=1.5, seconds=0.5, ops=5.0)
            assert bus.events == [Compute(t=1.5, node=0, step="s", seconds=1.5, ops=15.0)]
            bus.record_compute(node=1, t=0.25, seconds=0.25, ops=2.0)  # other node
        bus.record_compute(node=1, t=0.5, seconds=0.25, ops=2.0)  # other step
        assert [(e.node, e.step, e.seconds) for e in bus.events] == [
            (0, "s", 1.5), (1, "s", 0.25), (1, "", 0.25),
        ]
        assert seen == [
            Compute(t=1.0, node=0, step="s", seconds=1.0, ops=10.0),
            Compute(t=0.25, node=1, step="s", seconds=0.25, ops=2.0),
            Compute(t=0.5, node=1, step="", seconds=0.25, ops=2.0),
        ]

    def test_subscriber_receives_what_is_later_read_back(self):
        bus = TelemetryBus(level="full")
        seen = []
        bus.subscribe(seen.append)
        bus.record_fault("disk", node=2, t=0.5, detail="x")
        bus.record_retry("s", node=-1, t=0.5, attempt=1, backoff=0.1)
        bus.record_net_transfer(src=0, dst=1, t_end=1.0, nbytes=8, duration=0.5)
        bus.record_barrier_wait("s", 1, 2.0, 0.5)
        assert seen == bus.events and len(seen) == 4

    def test_emit_takes_a_prebuilt_object(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        event = MemReserve(t=0.0, node=0, step="", n_items=1, in_use=1)
        bus.emit(event)
        assert seen[0] is event
        assert bus.events == [event] and bus.events.rows == [(MemReserve, 0.0, 0, "", 1, 1)]

    def test_of_wraps_an_iterable_and_passes_a_log_through(self):
        log = self._bus().events
        assert EventLog.of(log) is log
        assert EventLog.of(iter(list(log))) == log
        assert EventLog.of(list(log)).rows == log.rows

    def test_clear_empties_the_rows(self):
        bus = self._bus()
        log = bus.events
        bus.clear()
        assert log.rows == [] and bus.events is log and bus.events == []

    def test_entry_points_the_benchmark_resolves_stay_on_their_classes(self):
        from repro.obs import audit, exporters, profiler

        for name in (
            "emit", "record_step_begin", "record_step_end", "record_barrier_wait",
            "record_block_io", "record_compute", "record_net_transfer", "record_mem",
            "record_fault", "record_retry",
        ):
            assert callable(vars(TelemetryBus)[name])
        for owner in (Cluster, ClusterView):
            assert inspect.isgeneratorfunction(inspect.unwrap(vars(owner)["step"]))
            assert callable(vars(owner)["barrier"])
        assert callable(audit.audit_run)
        assert callable(exporters.write_jsonl) and callable(exporters.write_chrome_trace)
        assert isinstance(vars(profiler.RunProfile)["from_cluster"], staticmethod)


class TestClusterWiring:
    def test_steps_level_records_only_step_events(self):
        cluster, _ = _run(level="steps")
        kinds = {type(e) for e in cluster.bus.events}
        assert StepEnd in kinds
        assert BlockRead not in kinds and NetTransfer not in kinds

    def test_io_level_records_block_and_net_events(self):
        cluster, res = _run(level="io")
        reads = [e for e in cluster.bus.events if isinstance(e, BlockRead)]
        writes = [e for e in cluster.bus.events if isinstance(e, BlockWrite)]
        xfers = [e for e in cluster.bus.events if isinstance(e, NetTransfer)]
        # Event stream and IOStats counters agree exactly.
        assert len(reads) == res.io.blocks_read
        assert len(writes) == res.io.blocks_written
        assert sum(e.n_items for e in reads) == res.io.items_read
        assert sum(e.n_items for e in writes) == res.io.items_written
        assert len(xfers) == res.network_messages
        assert sum(e.nbytes for e in xfers) == res.network_bytes

    def test_full_level_adds_memory_events(self):
        cluster, _ = _run(n=4_000, level="full")
        assert any(isinstance(e, MemReserve) for e in cluster.bus.events)

    def test_every_io_event_attributed_to_a_step(self):
        cluster, _ = _run(level="io")
        for e in cluster.bus.events:
            if isinstance(e, (BlockRead, BlockWrite)):
                assert e.step != ""

    def test_step_times_are_the_fold_over_the_bus(self):
        cluster, res = _run(level="steps")
        assert list(res.step_times.items()) == list(step_seconds(cluster.bus.events).items())
        assert list(res.step_times) == [
            "1:local-sort", "2:pivots", "3:partition",
            "4:redistribute", "5:final-merge",
        ]

    def test_labels_view_matches_step_io(self):
        cluster, res = _run(level="steps")  # labels work at every level
        merged = IOStats.merge([node.disk.stats for node in cluster.nodes])
        assert merged.labels
        for step, io in res.step_io.items():
            assert merged.labels.get(step, 0) == io.block_ios

    def test_reset_clears_bus(self):
        cluster, _ = _run(n=4_000, level="io")
        assert cluster.bus.events
        cluster.reset()
        assert cluster.bus.events == []
        assert step_seconds(cluster.bus.events) == {}
        assert cluster.bus.level == "io"


class TestIOStatsFixes:
    def test_merge_accumulates_without_snapshots(self, monkeypatch):
        """merge(N stats) must do O(N) work: no per-element snapshot/add."""
        calls = {"snapshot": 0, "add": 0}
        orig_snapshot = IOStats.snapshot
        orig_add = IOStats.__add__

        def counting_snapshot(self):
            calls["snapshot"] += 1
            return orig_snapshot(self)

        def counting_add(self, other):
            calls["add"] += 1
            return orig_add(self, other)

        monkeypatch.setattr(IOStats, "snapshot", counting_snapshot)
        monkeypatch.setattr(IOStats, "__add__", counting_add)
        stats = []
        for i in range(50):
            s = IOStats()
            s.record_read(256, 0.01)
            s.bump(f"step{i % 3}")
            stats.append(s)
        out = IOStats.merge(stats)
        assert calls == {"snapshot": 0, "add": 0}
        assert out.blocks_read == 50 and out.items_read == 50 * 256
        assert sum(out.labels.values()) == 50

    def test_merge_equals_repeated_add(self):
        a, b, c = IOStats(), IOStats(), IOStats()
        a.record_read(10, 0.1)
        b.record_write(20, 0.2)
        b.bump("x", 3)
        c.record_read(5, 0.05)
        c.bump("x")
        c.bump("y")
        assert IOStats.merge([a, b, c]) == a + b + c

    def test_str_includes_labels(self):
        s = IOStats()
        s.record_read(256, 0.01)
        s.bump("2:pivots")
        s.bump("1:local-sort", 2)
        text = str(s)
        assert "labels{1:local-sort: 2, 2:pivots: 1}" in text
        assert "labels" not in str(IOStats())


class TestTraceIndex:
    """The per-step queries of the retired ``Trace`` index, asked of the
    fold over the bus's step rows."""

    def _bus(self):
        bus = TelemetryBus()
        for node in (0, 1):
            bus.record_step_begin("a", node, 0.0)
        bus.record_step_end("a", 0, 0.0, 1.0)
        bus.record_step_end("a", 1, 0.0, 2.0)
        bus.record_step_begin("b", 0, 2.0)
        bus.record_step_end("b", 0, 2.0, 5.0)
        return bus

    def test_for_step_and_steps(self):
        intervals = step_intervals(self._bus().events)
        assert list(intervals) == ["a", "b"]
        assert [sorted(ex) for ex in intervals["a"]] == [[0, 1]]
        assert "missing" not in intervals

    def test_indexed_queries_match_events(self):
        events = self._bus().events
        assert step_seconds(events) == {"a": pytest.approx(2.0), "b": pytest.approx(3.0)}
        assert step_intervals(events)["a"] == [{0: (0.0, 1.0), 1: (0.0, 2.0)}]
        assert step_intervals(events)["b"] == [{0: (2.0, 5.0)}]
        assert RunProfile(events).blame.step("a").time_skew == pytest.approx(2.0 / 1.5)

    def test_post_init_indexes_preexisting_events(self):
        """Events that already exist as objects (not a bus's rows) fold the same."""
        events = self._bus().events
        assert step_seconds(list(events)) == step_seconds(events)
        assert step_intervals(iter(events)) == step_intervals(events)

    def test_extend_maintains_index(self):
        """Nothing is cached: rows recorded after a fold show in the next one."""
        bus = self._bus()
        assert list(step_seconds(bus.events)) == ["a", "b"]
        bus.record_step_begin("c", 0, 5.0)
        bus.record_step_end("c", 0, 5.0, 6.0)
        assert step_seconds(bus.events) == {"a": 2.0, "b": 3.0, "c": 1.0}
