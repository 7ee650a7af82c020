"""Per-node timeline reconstruction from a recorded telemetry stream.

The profiler's foundation: replay a run's event stream (in emission
order) keeping one time cursor per node, and tile every node's clock
from 0 to the run's end with typed :class:`~repro.obs.profiler.model.Segment`
intervals.  The reconstruction is *recorded-timestamp driven* — segment
boundaries come from the events' own clock stamps, never from re-running
the cost model — so two invariants hold by construction:

* every node's segments tile ``[0, elapsed]`` without gaps or overlaps;
* clipping segments to a step's recorded span always sums exactly to
  that span (the blame report's conservation property).

Cross-node causality is preserved as ``link`` annotations on wait-type
segments (who released this barrier, which transfer blocked this send),
which is all the critical-path walk needs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    Compute,
    Event,
    EventLog,
    NetTransfer,
    Retry,
    Row,
    StepBegin,
    StepEnd,
)
from repro.obs.profiler.model import (
    BACKOFF,
    BARRIER,
    COMPUTE,
    DISK,
    DISK_FLUSH,
    DISK_QUEUE,
    IDLE,
    NET_RECV,
    NET_SEND,
    NET_WAIT,
    OTHER,
    BarrierGroup,
    HardwareMeta,
    Segment,
)

#: Intervals shorter than this are dropped (float noise, not time).
EPS = 1e-12


@dataclass
class Timeline:
    """The reconstructed run: per-node segment tilings + causal anchors."""

    n_nodes: int
    #: Per-node segments, time-ascending, tiling ``[0, elapsed]``.
    segments: dict[int, list[Segment]]
    #: Merged busy intervals per ``(node, disk_name)`` drive timeline.
    drive_busy: dict[tuple[int, str], list[tuple[float, float]]]
    #: Every rendezvous observed (explicit barriers + lockstep entries).
    barrier_groups: list[BarrierGroup]
    #: ``step -> node -> [(t0, t1), ...]`` recorded step spans.
    step_spans: dict[str, dict[int, list[tuple[float, float]]]]
    #: End of the run: the furthest any node's cursor reached.
    elapsed: float
    #: Per-node cursor position before trailing-idle padding.
    final_times: list[float]
    #: True when the stream carried ``Compute`` events (capture level
    #: "full"); without them, pre-I/O gaps are untracked compute and are
    #: labelled ``other`` instead of ``disk-queue``.
    has_compute: bool
    _ends: dict[int, list[float]] = field(default_factory=dict, repr=False)

    def segment_at(self, node: int, t: float) -> Optional[Segment]:
        """The segment of ``node`` covering ``(t0, t]`` for time ``t``."""
        segs = self.segments.get(node)
        if not segs:
            return None
        ends = self._ends.get(node)
        if ends is None or len(ends) != len(segs):
            ends = [s.t1 for s in segs]
            self._ends[node] = ends
        tol = EPS * max(1.0, abs(t))
        idx = bisect_left(ends, t - tol)
        if idx >= len(segs):
            return None
        seg = segs[idx]
        if seg.t0 > t + tol:
            return None
        return seg

    def total_by_kind(self) -> dict[str, float]:
        """Summed duration per segment kind across all nodes."""
        out: dict[str, float] = {}
        for segs in self.segments.values():
            for s in segs:
                out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out


class _Builder:
    """Stream interpreter: one cursor per node, causal bookkeeping."""

    def __init__(self, n_nodes: int, has_compute: bool) -> None:
        self.n = n_nodes
        self.has_compute = has_compute
        self.tau = [0.0] * n_nodes
        #: Furthest write-behind completion queued since the last sync.
        self.pending_flush = [0.0] * n_nodes
        self.segs: dict[int, list[Segment]] = {r: [] for r in range(n_nodes)}
        self.drive_busy: dict[tuple[int, str], list[tuple[float, float]]] = {}
        self.groups: list[BarrierGroup] = []
        self.step_spans: dict[str, dict[int, list[tuple[float, float]]]] = {}
        #: Last completed transfer into each rank: ``dst -> (end, src)``.
        self.in_channel: dict[int, tuple[float, int]] = {}

    # -- segment emission --------------------------------------------------

    def advance(
        self,
        node: int,
        t: float,
        kind: str,
        step: str,
        link: Optional[tuple[int, float]] = None,
    ) -> None:
        """Move ``node``'s cursor forward to ``t``, labelling the interval."""
        t0 = self.tau[node]
        if t <= t0 + EPS * max(1.0, abs(t)):
            self.tau[node] = max(t0, t)
            return
        self.segs[node].append(Segment(node=node, t0=t0, t1=t, kind=kind, step=step, link=link))
        self.tau[node] = t

    def busy(self, node: int, disk: str, t0: float, t1: float) -> None:
        if t1 > t0:
            self.drive_busy.setdefault((node, disk), []).append((t0, t1))

    # -- row handlers (a row is ``(cls, t, node, step, *own fields)``) --------

    def on_compute(self, row: Row) -> None:
        _, t, node, step, seconds, _ = row
        self.advance(node, t - seconds, OTHER, step)
        self.advance(node, t, COMPUTE, step)

    def on_read(self, row: Row) -> None:
        _, t, node, step, disk, _, _, cost, queued = row[:9]
        if queued < 0.0:
            queued = t - cost
        gap_kind = DISK_QUEUE if self.has_compute else OTHER
        self.advance(node, queued, gap_kind, step)
        self.advance(node, t, DISK, step)
        self.busy(node, disk, queued, queued + cost)
        # A read drains the drive's queue: nothing is pending any more.
        self.pending_flush[node] = 0.0

    def on_write(self, row: Row) -> None:
        _, t, node, step, disk, _, _, cost, queued = row[:9]
        if queued < 0.0:
            queued = t - cost
        self.busy(node, disk, queued, queued + cost)
        # Discriminate write-behind (t = issue time, service starts at or
        # after it) from synchronous writes (t = completion, service was
        # [t - cost, t]) by where the service interval sits relative to t.
        write_behind = cost <= 0.0 or queued > t - cost * 0.5
        if write_behind:
            end = queued + cost
            if end > self.pending_flush[node]:
                self.pending_flush[node] = end
            self.advance(node, t, OTHER, step)
        else:
            gap_kind = DISK_QUEUE if self.has_compute else OTHER
            self.advance(node, queued, gap_kind, step)
            self.advance(node, t, DISK, step)

    def on_transfer(self, row: Row) -> None:
        _, t, _, step, src, dst, _, duration = row
        start = t - duration
        # Sender side: a gap before the transmission means the message
        # waited for the receiver's inbound channel — the previous
        # transfer into ``dst`` is the cause (the sender's own outbound
        # channel is never behind its clock after a synchronous send).
        if src < self.n:
            prev = self.in_channel.get(dst)
            tol = EPS * max(1.0, abs(start))
            if prev is not None and abs(prev[0] - start) <= tol:
                cause = (prev[1], start)
            else:
                cause = (dst, start)
            self.advance(src, start, NET_WAIT, step, link=cause)
            self.advance(src, t, NET_SEND, step)
        # Receiver side: blocked until the data fully arrived; any gap
        # before the transfer started is waiting on the sender.
        if dst < self.n and self.tau[dst] < t:
            self.advance(dst, start, NET_WAIT, step, link=(src, start))
            self.advance(dst, t, NET_RECV, step)
        self.in_channel[dst] = (t, src)

    def on_barrier_group(self, group: Sequence[Row]) -> None:
        """``group``: consecutive ``BarrierWait`` rows of one rendezvous."""
        _, t1, _, step, _ = group[0]
        bg = BarrierGroup(t=t1, step=step, waits=[(row[2], row[4]) for row in group])
        gating = bg.gating_node()
        for _, _, node, step, wait in group:
            if node >= self.n:
                continue
            arrival = max(self.tau[node], t1 - wait)
            flush = self.pending_flush[node]
            if flush > self.tau[node]:
                self.advance(node, min(flush, arrival), DISK_FLUSH, step)
            self.advance(node, arrival, OTHER, step)
            self.advance(node, t1, BARRIER, step, link=(gating, t1))
            self.pending_flush[node] = 0.0
        self.groups.append(bg)

    def on_step_begin_group(self, group: Sequence[Row]) -> None:
        """``group``: consecutive ``StepBegin`` rows of one step."""
        # Under the lockstep kernel step entry is a barrier: members
        # share one timestamp and the gap up to it is rendezvous idle.
        # Under the event kernel timestamps differ per node and any gap
        # is just untracked residue.
        by_t: dict[float, list[int]] = {}
        for _, t, node, _ in group:
            by_t.setdefault(t, []).append(node)
        step = group[0][3]
        for t, members in by_t.items():
            ranks = [node for node in members if node < self.n]
            if len(members) >= 2:
                waits = [(node, t - self.tau[node]) for node in ranks]
                if not waits:
                    continue
                bg = BarrierGroup(t=t, step=step, waits=waits)
                gating = bg.gating_node()
                emitted = False
                for node in ranks:
                    before = len(self.segs[node])
                    self.advance(node, t, BARRIER, step, link=(gating, t))
                    emitted = emitted or len(self.segs[node]) > before
                if emitted:
                    self.groups.append(bg)
            else:
                for node in ranks:
                    self.advance(node, t, OTHER, step)

    def on_step_end(self, row: Row) -> None:
        _, t, node, step, duration = row
        spans = self.step_spans.setdefault(step, {})
        spans.setdefault(node, []).append((t - duration, t))
        self.advance(node, t, OTHER, step)

    def on_retry(self, row: Row) -> None:
        _, _, node, step, _, backoff = row
        # Backoff is charged to every node's clock from where it stands.
        ranks = range(self.n) if node < 0 else [node]
        for r in ranks:
            self.advance(r, self.tau[r] + backoff, BACKOFF, step)


def build_timeline(
    events: Iterable[Event], hw: Optional[HardwareMeta] = None
) -> Timeline:
    """Reconstruct per-node timelines from a recorded event stream."""
    stream = EventLog.of(events).rows
    ranks: set[int] = set()
    has_compute = False
    for row in stream:
        if row[2] >= 0:
            ranks.add(row[2])
        if row[0] is NetTransfer:
            ranks.update(row[4:6])  # src, dst
        elif row[0] is Compute:
            has_compute = True
    if hw is not None and hw.speeds:
        ranks.update(range(len(hw.speeds)))
    n = (max(ranks) + 1) if ranks else 0
    b = _Builder(n, has_compute)
    handlers = {
        Compute: b.on_compute,
        BlockRead: b.on_read,
        BlockWrite: b.on_write,
        NetTransfer: b.on_transfer,
        StepEnd: b.on_step_end,
        Retry: b.on_retry,
        # FaultInjected / MemReserve / MemRelease carry no clock advance.
    }

    i = 0
    while i < len(stream):
        cls, t, _, step = stream[i][:4]
        j = i
        if cls is BarrierWait:
            seen: set[int] = set()
            tol = EPS * max(1.0, abs(t))
            while (
                j < len(stream)
                and stream[j][0] is BarrierWait
                and abs(stream[j][1] - t) <= tol
                and stream[j][2] not in seen
            ):
                seen.add(stream[j][2])
                j += 1
            b.on_barrier_group(stream[i:j])
        elif cls is StepBegin:
            while j < len(stream) and stream[j][0] is StepBegin and stream[j][3] == step:
                j += 1
            b.on_step_begin_group(stream[i:j])
        else:
            handler = handlers.get(cls)
            if handler is not None:
                handler(stream[i])
            j += 1
        i = j

    final_times = list(b.tau)
    elapsed = max(final_times) if final_times else 0.0
    # Trailing idle: nodes that finished early (or died) pad to the end
    # so every timeline tiles the same [0, elapsed] axis.
    for r in range(n):
        b.advance(r, elapsed, IDLE, "")
    busy = {
        key: merge_intervals(iv) for key, iv in sorted(b.drive_busy.items())
    }
    return Timeline(
        n_nodes=n,
        segments=b.segs,
        drive_busy=busy,
        barrier_groups=b.groups,
        step_spans=b.step_spans,
        elapsed=elapsed,
        final_times=final_times,
        has_compute=has_compute,
    )


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Coalesce overlapping/adjacent intervals (drive busy accounting)."""
    out: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1] + EPS:
            if t1 > out[-1][1]:
                out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out
