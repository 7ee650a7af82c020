"""Tests for virtual clocks, nodes and the step record read off the bus."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.node import CpuParams, SimNode
from repro.cluster.simclock import VirtualClock, barrier
from repro.obs.bus import TelemetryBus
from repro.obs.events import step_intervals, step_seconds
from repro.obs.profiler import RunProfile
from repro.pdm.disk import DiskParams


class TestVirtualClock:
    def test_advance(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.time == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_advance_to_never_goes_back(self):
        c = VirtualClock(start=5.0)
        c.advance_to(3.0)
        assert c.time == 5.0
        c.advance_to(7.0)
        assert c.time == 7.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1)

    def test_reset(self):
        c = VirtualClock()
        c.advance(3)
        c.reset()
        assert c.time == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_barrier_syncs_to_max(self, times):
        clocks = [VirtualClock(start=t) for t in times]
        t = barrier(clocks)
        assert t == pytest.approx(max(times))
        assert all(c.time == t for c in clocks)

    def test_barrier_empty(self):
        assert barrier([]) == 0.0


class TestSimNode:
    def test_compute_scales_with_speed(self):
        slow = SimNode(0, speed=1.0, cpu_params=CpuParams(seconds_per_op=1e-6))
        fast = SimNode(1, speed=4.0, cpu_params=CpuParams(seconds_per_op=1e-6))
        slow.compute(1000)
        fast.compute(1000)
        assert slow.clock.time == pytest.approx(4 * fast.clock.time)

    def test_disk_observer_advances_clock(self):
        n = SimNode(0, disk_params=DiskParams(seek_time=0.01, bandwidth=1e6))
        n.disk.charge_write(100, 4)
        assert n.clock.time == pytest.approx(0.01 + 400 / 1e6)

    def test_io_scaled_by_speed(self):
        loaded = SimNode(0, speed=0.25, disk_params=DiskParams(seek_time=0.01, bandwidth=1e6))
        loaded.disk.charge_write(100, 4)
        assert loaded.clock.time == pytest.approx(4 * (0.01 + 400 / 1e6))

    def test_io_not_scaled_when_disabled(self):
        n = SimNode(
            0,
            speed=0.25,
            disk_params=DiskParams(seek_time=0.01, bandwidth=1e6),
            io_scaled_by_speed=False,
        )
        n.disk.charge_write(100, 4)
        assert n.clock.time == pytest.approx(0.01 + 400 / 1e6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SimNode(-1)
        with pytest.raises(ValueError):
            SimNode(0, speed=0)
        with pytest.raises(ValueError):
            CpuParams(seconds_per_op=0)
        with pytest.raises(ValueError):
            SimNode(0).compute(-5)

    def test_reset(self):
        n = SimNode(0)
        n.compute(100)
        n.disk.charge_read(4, 4)
        n.reset()
        assert n.clock.time == 0.0
        assert n.disk.stats.block_ios == 0
        assert n.ops_charged == 0

    def test_default_name(self):
        assert SimNode(3).name == "node3"


def _stream(*executions):
    """The bus stream of ``(step, [(node, t_start, t_end), ...])`` step
    executions: each one's begins, then its ends, as ``Cluster.step`` emits."""
    bus = TelemetryBus()
    for step, intervals in executions:
        for node, t0, _ in intervals:
            bus.record_step_begin(step, node, t0)
        for node, t0, t1 in intervals:
            bus.record_step_end(step, node, t0, t1)
    return bus.events


class TestTrace:
    """The queries the ``Trace`` view answered, asked of the fold over the
    bus's ``StepBegin``/``StepEnd`` rows (and of the profiler's blame
    report for the per-step imbalance)."""

    def test_record_and_summary(self):
        events = _stream(
            ("sort", [(0, 0.0, 2.0), (1, 0.0, 4.0)]), ("merge", [(0, 4.0, 5.0)])
        )
        times = step_seconds(events)
        assert list(times) == ["sort", "merge"]
        assert times["sort"] == pytest.approx(4.0)
        assert times["merge"] == pytest.approx(1.0)

    def test_imbalance(self):
        events = _stream(("s", [(0, 0.0, 1.0), (1, 0.0, 3.0)]))
        assert RunProfile(events).blame.step("s").time_skew == pytest.approx(1.5)

    def test_imbalance_empty_and_zero(self):
        blame = RunProfile(_stream(("z", [(0, 1.0, 1.0)]))).blame
        assert blame.step("z").time_skew == 1.0
        with pytest.raises(KeyError):
            blame.step("none")

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="no StepBegin at or before"):
            step_seconds(_stream(("s", [(0, 2.0, 1.0)])))

    def test_end_without_begin_rejected(self):
        bus = TelemetryBus()
        bus.record_step_end("s", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="no StepBegin at or before"):
            step_intervals(bus.events)

    def test_queries_are_arrival_order_insensitive(self):
        """Event-kernel regression: nodes flow through step boundaries at
        their own clocks, so a fast node's step-2 interval can lie before
        a slow node's step-1 interval.  The fold must be a function of
        the recorded intervals, not of the order the rows arrived in."""
        sort = ("sort", [(0, 0.0, 2.0), (1, 1.0, 4.0)])
        merge = ("merge", [(0, 2.0, 5.0), (1, 4.0, 6.0), (2, 4.5, 4.5)])
        in_order = _stream(sort, merge)
        # Worst-case arrival: the later step and the later nodes first.
        shuffled = _stream(*[(step, iv[::-1]) for step, iv in (merge, sort)])
        assert list(step_seconds(shuffled)) == list(step_seconds(in_order)) == ["sort", "merge"]
        assert step_seconds(shuffled) == step_seconds(in_order) == {"sort": 4.0, "merge": 4.0}
        assert step_intervals(shuffled) == step_intervals(in_order)
        skew = lambda events, step: RunProfile(events).blame.step(step).time_skew  # noqa: E731
        for step in ("sort", "merge"):
            assert skew(shuffled, step) == skew(in_order, step)

    def test_a_step_executed_twice_reports_the_sum_not_the_hull(self):
        events = _stream(
            ("pivots", [(0, 0.0, 1.0), (1, 0.0, 2.0)]),
            ("salvage", [(0, 2.0, 7.0)]),
            ("pivots", [(0, 7.0, 8.5)]),
        )
        assert step_intervals(events)["pivots"] == [
            {0: (0.0, 1.0), 1: (0.0, 2.0)},
            {0: (7.0, 8.5)},
        ]
        assert step_seconds(events) == {"pivots": 3.5, "salvage": 5.0}
        assert list(step_seconds(events)) == ["pivots", "salvage"]

    def test_an_attempt_that_raised_is_not_timed(self):
        bus = TelemetryBus()
        bus.record_step_begin("s", 0, 0.0)  # first attempt: no end
        bus.record_retry("s", node=-1, t=1.0, attempt=1, backoff=0.5)
        bus.record_step_begin("s", 0, 1.5)
        bus.record_step_end("s", 0, 1.5, 2.0)
        assert step_intervals(bus.events) == {"s": [{0: (1.5, 2.0)}]}
        assert step_seconds(bus.events) == {"s": 0.5}
