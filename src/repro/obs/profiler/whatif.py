"""What-if engine: predict virtual speedups without re-running.

A scenario is a small spec string, e.g. ``perf=2,2,8,8``, ``disks=4``,
``net=myrinet`` or ``net.latency=1e-3``; clauses combine with ``;`` or
whitespace (``"disks=4; net=myrinet"``).  The engine edits the recorded
machine's :class:`~repro.cluster.machine.ClusterSpec` accordingly and
re-runs the recorded rows on a real cluster built from it
(:func:`~repro.obs.profiler.replay.replay`) — once on the run's own
spec, once on the edit — and scales the recorded elapsed time by the
ratio of the two model times:

    predicted = recorded_elapsed * T_model(edited) / T_model(baseline)

Replay runs the production kernels, so ``T_model(baseline)`` equals the
recorded elapsed time and a sequence-preserving edit predicts the real
re-run exactly; the ratio form only matters for logs captured below
level ``full``, whose compute is missing from both model times.

Supported clauses
-----------------
``perf=s0,s1,...``     new relative-speed vector (must keep length)
``disks=D``            drives per node
``net=NAME``           link preset (``fast-ethernet`` or ``myrinet``)
``net.latency=S``      per-packet latency, seconds
``net.bandwidth=B``    link bandwidth, bytes/second
``net.overhead=S``     sub-MTU small-message overhead, seconds
``packet=BYTES``       message packetisation size
``disk.seek=S``        per-access seek/overhead, seconds
``disk.bandwidth=B``   drive bandwidth, bytes/second
``cpu=S``              seconds per abstract operation
``block=ITEMS``        block size (approximate: every recorded access
                       pays the seek ``old_B / ITEMS`` times; the merge
                       order of the real algorithm depends on B, which
                       a replay cannot reproduce)

Changes that move partition shares (non-uniform ``perf`` edits) apply a
first-order per-node volume correction and are flagged ``approximate``,
as is ``block=``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.cluster.machine import ClusterSpec, NodeSpec
from repro.cluster.network import FAST_ETHERNET, MYRINET
from repro.obs.events import Event
from repro.obs.profiler.model import HardwareMeta
from repro.obs.profiler.replay import replay
from repro.pdm.disk import DiskParams

#: Link presets addressable from a scenario spec.
LINK_PRESETS = {
    "fast-ethernet": FAST_ETHERNET,
    "ethernet": FAST_ETHERNET,
    "myrinet": MYRINET,
}


class WhatIfError(ValueError):
    """A scenario spec could not be parsed or applied."""


@dataclass(frozen=True)
class WhatIfResult:
    """One scenario's prediction."""

    scenario: str
    predicted_elapsed: float
    recorded_elapsed: float
    #: recorded / predicted: > 1 means the change helps.
    speedup: float
    #: True when the change may alter the real run's operation sequence
    #: (the replay is a first-order approximation, not a prediction
    #: backed by identical scheduling).
    approximate: bool
    baseline_model: float
    whatif_model: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "predicted_elapsed_seconds": self.predicted_elapsed,
            "recorded_elapsed_seconds": self.recorded_elapsed,
            "speedup": self.speedup,
            "approximate": self.approximate,
            "model_baseline_seconds": self.baseline_model,
            "model_whatif_seconds": self.whatif_model,
        }


def _clauses(spec: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for raw in spec.replace(";", " ").split():
        if "=" not in raw:
            raise WhatIfError(f"what-if clause {raw!r} is not key=value")
        key, value = raw.split("=", 1)
        out.append((key.strip().lower(), value.strip()))
    if not out:
        raise WhatIfError("empty what-if spec")
    return out


def _each_node(spec: ClusterSpec, edit: Callable[[NodeSpec], NodeSpec]) -> ClusterSpec:
    return replace(spec, nodes=tuple(edit(ns) for ns in spec.nodes))


def _each_disk(spec: ClusterSpec, edit: Callable[[DiskParams], DiskParams]) -> ClusterSpec:
    return _each_node(spec, lambda ns: replace(ns, disk=edit(ns.disk)))


def apply_spec(
    base: ClusterSpec, spec: str, block_items: Optional[int] = None
) -> tuple[ClusterSpec, tuple[float, ...], bool]:
    """Apply a scenario spec to the recorded machine.

    Returns ``(edited machine, volume_scale, approximate)``.  The
    algorithm partitions data proportionally to relative speed, so a
    ``perf`` edit that changes the *ratios* moves each node's share;
    ``volume_scale`` is the first-order ``new_share / recorded_share``
    per node (empty when the shares, and so the operation sequence, are
    untouched).
    """
    edited = base
    volume_scale: tuple[float, ...] = ()
    seek_factor = 1.0
    approximate = False
    for key, value in _clauses(spec):
        try:
            if key == "perf":
                speeds = tuple(float(v) for v in value.split(","))
                if len(speeds) != base.p:
                    raise WhatIfError(f"perf needs {base.p} values, got {len(speeds)}")
                if any(s <= 0 for s in speeds):
                    raise WhatIfError("perf values must be > 0")
                edited = replace(
                    edited,
                    nodes=tuple(
                        replace(ns, speed=s) for ns, s in zip(edited.nodes, speeds)
                    ),
                )
                old, new = _shares([ns.speed for ns in base.nodes]), _shares(speeds)
                if [round(x, 12) for x in new] != [round(x, 12) for x in old]:
                    volume_scale = tuple(n / o for n, o in zip(new, old))
                    approximate = True
                else:
                    volume_scale = ()
            elif key == "disks":
                n_disks = int(value)
                if n_disks < 1:
                    raise WhatIfError("disks must be >= 1")
                edited = _each_node(edited, lambda ns: replace(ns, n_disks=n_disks))
            elif key == "net":
                preset = LINK_PRESETS.get(value.lower())
                if preset is None:
                    raise WhatIfError(
                        f"unknown link preset {value!r}; have {sorted(LINK_PRESETS)}"
                    )
                edited = edited.with_link(preset)
            elif key == "net.latency":
                edited = edited.with_link(replace(edited.link, latency=float(value)))
            elif key == "net.bandwidth":
                edited = edited.with_link(replace(edited.link, bandwidth=float(value)))
            elif key == "net.overhead":
                edited = edited.with_link(
                    replace(edited.link, small_message_overhead=float(value))
                )
            elif key == "packet":
                edited = edited.with_packet_bytes(int(value))
            elif key == "disk.seek":
                seek = float(value)
                edited = _each_disk(edited, lambda d: replace(d, seek_time=seek))
            elif key == "disk.bandwidth":
                bw = float(value)
                edited = _each_disk(edited, lambda d: replace(d, bandwidth=bw))
            elif key == "cpu":
                cpu = float(value)
                edited = _each_node(
                    edited, lambda ns: replace(ns, cpu=replace(ns.cpu, seconds_per_op=cpu))
                )
            elif key == "block":
                new_b = int(value)
                if new_b < 1:
                    raise WhatIfError("block must be >= 1 item")
                if block_items is None:
                    raise WhatIfError(
                        "block= what-if needs the run's block size "
                        "(run_meta.block_items missing from the log)"
                    )
                # The same payload moves in block_items / new_b accesses,
                # each paying the (possibly amortized) seek.
                seek_factor = max(1.0, block_items / new_b)
                approximate = True
            else:
                raise WhatIfError(f"unknown what-if key {key!r}")
        except WhatIfError:
            raise
        except ValueError as exc:
            raise WhatIfError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    if seek_factor != 1.0:
        edited = _each_disk(
            edited, lambda d: replace(d, seek_time=d.seek_time * seek_factor)
        )
    return edited, volume_scale, approximate


def predict(
    events: Sequence[Event],
    hw: HardwareMeta,
    base: ClusterSpec,
    spec: str,
    recorded_elapsed: float,
    block_items: Optional[int] = None,
) -> WhatIfResult:
    """Predict the elapsed time of the recorded run ``events`` (on ``hw``,
    as the machine ``base``) under a hypothetical change."""
    edited, volume_scale, approximate = apply_spec(base, spec, block_items=block_items)
    base_model = replay(events, hw, base)
    what_model = replay(events, hw, edited, volume_scale)
    if base_model > 0:
        predicted = recorded_elapsed * what_model / base_model
    else:
        predicted = what_model
    speedup = (recorded_elapsed / predicted) if predicted > 0 else float("inf")
    return WhatIfResult(
        scenario=spec,
        predicted_elapsed=predicted,
        recorded_elapsed=recorded_elapsed,
        speedup=speedup,
        approximate=approximate,
        baseline_model=base_model,
        whatif_model=what_model,
    )


def _shares(speeds: Sequence[float]) -> list[float]:
    total = sum(speeds)
    return [s / total for s in speeds]
