"""Replay: re-run a recorded event stream on a real cluster.

The what-if engine's core.  The recorded rows are walked in emission
order — every compute charge, block access, message and rendezvous —
and fed to the production scheduling surfaces of a freshly built
:class:`~repro.cluster.machine.Cluster`: the execution kernel's
``on_io`` and ``sync``, :meth:`Network.transfer
<repro.cluster.network.Network.transfer>` and :meth:`SimNode.compute
<repro.cluster.node.SimNode.compute>`.  Costs are therefore recomputed
by the very code that produced the log, from the
:class:`~repro.cluster.machine.ClusterSpec` the replay is given.

Replaying on the run's own spec reproduces its elapsed time exactly;
replaying on an edited spec gives the elapsed time of the hypothetical
run — exactly, as long as the edit keeps the operation *sequence* itself
invariant (uniform speed scaling, disk count, any disk, CPU or network
parameter).  Edits that alter scheduling decisions (block size changes
the merge arity, perf ratios move partition boundaries) are first-order
approximations and are flagged as such by the what-if layer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cluster.machine import Cluster, ClusterSpec
from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    Compute,
    Event,
    EventLog,
    NetTransfer,
    Retry,
    StepBegin,
)
from repro.obs.profiler.model import HardwareMeta


def replay(
    events: Iterable[Event],
    hw: HardwareMeta,
    spec: ClusterSpec,
    volume_scale: Sequence[float] = (),
) -> float:
    """Re-run the recorded stream of a run on ``hw`` on a cluster built
    from ``spec``; returns its elapsed time (pending write-behind included).

    ``volume_scale`` is the one correction no machine can express: a
    per-node data-volume ratio vs. the recorded run, applied to that
    node's compute charges, block payloads and received messages (the
    first-order model of a perf edit that moves the partition shares).
    """
    cluster = Cluster(spec, kernel=hw.kernel)
    nodes, network, sched = cluster.nodes, cluster.network, cluster.kernel
    volume = list(volume_scale) or [1.0] * spec.p
    link, packet_bytes = hw.spec.link, hw.spec.packet_bytes
    stream = EventLog.of(events).rows
    i = 0
    while i < len(stream):
        row = stream[i]
        cls, t = row[0], row[1]
        j = i + 1
        if cls is BarrierWait:
            # One rendezvous: a run of waits released at the same instant.
            ranks = [row[2]]
            while (
                j < len(stream)
                and stream[j][0] is BarrierWait
                and stream[j][1] == t
                and stream[j][2] not in ranks
            ):
                ranks.append(stream[j][2])
                j += 1
            sched.sync([nodes[r] for r in ranks])
        elif cls is StepBegin:
            # Lockstep entry barriers show up as same-timestamp runs.
            step, members = row[3], []
            j = i
            while j < len(stream) and stream[j][0] is StepBegin and stream[j][3] == step:
                if stream[j][1] == t:
                    members.append(stream[j][2])
                j += 1
            if len(members) >= 2 and hw.kernel == "lockstep":
                sched.sync([nodes[r] for r in members])
        elif cls is Compute:
            node, ops = row[2], row[5]
            nodes[node].compute(ops * volume[node])
        elif cls is BlockRead or cls is BlockWrite:
            _, _, node, _, _, n_items, itemsize, _, _, name, offset = row
            sched.on_io(
                nodes[node].disk,
                "read" if cls is BlockRead else "write",
                n_items * itemsize * volume[node],  # the payload, as 1-byte items
                1,
                name or None,
                offset if offset >= 0 else None,
            )
        elif cls is NetTransfer:
            _, _, _, _, src, dst, nbytes, duration = row
            # Injected network faults (drops, delays) inflate the recorded
            # duration beyond the link model; the excess rides the
            # injector's own hook so faulty runs replay faithfully.
            extra = max(0.0, duration - link.message_time(nbytes, packet_bytes))
            network.fault_hook = lambda *_, extra=extra: extra
            scale = volume[dst]
            if scale != 1.0:
                nbytes = int(round(nbytes * scale))
            network.transfer(nodes[src], nodes[dst], nbytes)
        elif cls is Retry:
            # A retry pause, cluster-wide when node < 0.
            node, backoff = row[2], row[5]
            for target in nodes if node < 0 else [nodes[node]]:
                target.clock.advance(backoff)
        i = j
    return cluster.elapsed()
