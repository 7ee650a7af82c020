"""Replay: re-run a recorded operation sequence on a real cluster.

The what-if engine's core.  A recorded run is reduced to its *operation
sequence* — every compute charge, block access, message and rendezvous,
in emission order — and fed to the production scheduling surfaces of a
freshly built :class:`~repro.cluster.machine.Cluster`: the execution
kernel's ``on_io`` and ``sync``, :meth:`Network.transfer
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

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.machine import Cluster, ClusterSpec
from repro.obs.events import (
    BarrierWait,
    BlockRead,
    BlockWrite,
    Compute,
    Event,
    NetTransfer,
    Retry,
    StepBegin,
)
from repro.obs.profiler.model import HardwareMeta

# -- operation sequence ------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One replayable operation (a tagged union, ``kind`` discriminates)."""

    kind: str  # "compute" | "read" | "write" | "xfer" | "barrier" | "backoff"
    node: int = -1
    step: str = ""
    ops: float = 0.0           # compute
    nbytes: int = 0            # read/write/xfer
    stream: str = ""           # read/write
    offset: int = -1           # read/write
    dst: int = -1              # xfer
    extra: float = 0.0         # xfer fault surcharge / backoff pause
    ranks: tuple[int, ...] = ()  # barrier participants


def extract_ops(events: Iterable[Event], hw: HardwareMeta) -> list[Op]:
    """Reduce a recorded stream to its replayable operation sequence."""
    stream = list(events)
    link = hw.link
    ops: list[Op] = []
    i = 0
    while i < len(stream):
        ev = stream[i]
        if isinstance(ev, BarrierWait):
            ranks: list[int] = []
            j = i
            while (
                j < len(stream)
                and isinstance(stream[j], BarrierWait)
                and stream[j].t == ev.t
                and stream[j].node not in ranks
            ):
                ranks.append(stream[j].node)
                j += 1
            ops.append(Op(kind="barrier", step=ev.step, ranks=tuple(ranks)))
            i = j
            continue
        if isinstance(ev, StepBegin):
            # Lockstep entry barriers show up as same-timestamp runs.
            members: list[int] = []
            j = i
            while (
                j < len(stream)
                and isinstance(stream[j], StepBegin)
                and stream[j].step == ev.step
            ):
                if stream[j].t == ev.t:
                    members.append(stream[j].node)
                j += 1
            if len(members) >= 2 and hw.kernel == "lockstep":
                ops.append(Op(kind="barrier", step=ev.step, ranks=tuple(members)))
            i = j
            continue
        if isinstance(ev, Compute):
            ops.append(Op(kind="compute", node=ev.node, step=ev.step, ops=ev.ops))
        elif isinstance(ev, (BlockRead, BlockWrite)):
            ops.append(
                Op(
                    kind="read" if isinstance(ev, BlockRead) else "write",
                    node=ev.node,
                    step=ev.step,
                    nbytes=ev.n_items * ev.itemsize,
                    stream=ev.stream,
                    offset=ev.offset,
                )
            )
        elif isinstance(ev, NetTransfer):
            base = link.message_time(ev.nbytes, hw.packet_bytes)
            # Injected network faults (drops, delays) inflate the
            # recorded duration beyond the link model; carry the excess
            # verbatim so faulty runs replay faithfully.
            surcharge = max(0.0, ev.duration - base)
            ops.append(
                Op(
                    kind="xfer",
                    node=ev.src,
                    dst=ev.dst,
                    step=ev.step,
                    nbytes=ev.nbytes,
                    extra=surcharge,
                )
            )
        elif isinstance(ev, Retry):
            ops.append(Op(kind="backoff", node=ev.node, step=ev.step, extra=ev.backoff))
        i += 1
    return ops


# -- the replay driver -------------------------------------------------------


def replay(
    ops: Iterable[Op],
    spec: ClusterSpec,
    kernel: str,
    volume_scale: Sequence[float] = (),
) -> float:
    """Run an operation sequence on a cluster built from ``spec``;
    returns its elapsed time (pending write-behind included).

    ``volume_scale`` is the one correction no machine can express: a
    per-node data-volume ratio vs. the recorded run, applied to that
    node's compute charges, block payloads and received messages (the
    first-order model of a perf edit that moves the partition shares).
    """
    cluster = Cluster(spec, kernel=kernel)
    nodes, network, sched = cluster.nodes, cluster.network, cluster.kernel
    volume = list(volume_scale) or [1.0] * spec.p
    for op in ops:
        if op.kind == "compute":
            nodes[op.node].compute(op.ops * volume[op.node])
        elif op.kind in ("read", "write"):
            sched.on_io(
                nodes[op.node].disk,
                op.kind,
                op.nbytes * volume[op.node],  # the payload, as 1-byte items
                1,
                op.stream or None,
                op.offset if op.offset >= 0 else None,
            )
        elif op.kind == "xfer":
            scale = volume[op.dst]
            nbytes = int(round(op.nbytes * scale)) if scale != 1.0 else op.nbytes
            # The recorded fault surcharge rides the injector's own hook.
            network.fault_hook = lambda *_, extra=op.extra: extra
            network.transfer(nodes[op.node], nodes[op.dst], nbytes)
        elif op.kind == "barrier":
            sched.sync([nodes[r] for r in op.ranks])
        else:  # backoff: a retry pause, cluster-wide when node < 0
            for node in nodes if op.node < 0 else [nodes[op.node]]:
                node.clock.advance(op.extra)
    return cluster.elapsed()
