"""Declarative fault plans, typed fault errors and retry policies.

A :class:`FaultPlan` describes *what goes wrong* in one simulated run —
disk faults ("disk on node d fails after k I/Os"), message faults
(drop/delay each message with some probability, or hard-fail the n-th
one) and node kills ("node r dies at the step-s barrier") — all
deterministic under the plan's seed.  The plan is pure data: the
:class:`~repro.faults.injector.FaultInjector` turns it into live hooks
on :class:`~repro.pdm.disk.SimDisk`, :class:`~repro.cluster.network.Network`
and the cluster's step observers.

Every injected failure raises a subclass of :class:`FaultError`, so
callers can distinguish injected faults from genuine bugs (and from host
errors: an ``OSError`` is never a simulated fault).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------


class FaultError(RuntimeError):
    """Base class of every *injected* failure (never raised by real bugs)."""


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad node index, probability, ...)."""


class DiskFaultError(FaultError):
    """An injected disk fault fired on a block I/O."""

    def __init__(self, disk_name: str, op: str, io_index: int) -> None:
        super().__init__(
            f"injected disk fault on {disk_name!r} ({op} #{io_index})"
        )
        self.disk_name = disk_name
        self.op = op
        self.io_index = io_index


class NetworkFaultError(FaultError):
    """An injected hard failure of one network message."""

    def __init__(self, src: int, dst: int, message_index: int) -> None:
        super().__init__(
            f"injected network fault on message #{message_index} "
            f"({src} -> {dst})"
        )
        self.src = src
        self.dst = dst
        self.message_index = message_index


class NodeKilledError(FaultError):
    """Node ``rank`` was declared dead at the start of algorithm step ``step``."""

    def __init__(self, rank: int, step: int) -> None:
        super().__init__(f"node {rank} killed at step {step}")
        self.rank = rank
        self.step = step


# ---------------------------------------------------------------------------
# Fault specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskFault:
    """Fail a node's disk after a number of I/Os.

    Attributes
    ----------
    node:
        Rank of the node whose disk faults (ignored when the fault is
        attached to a standalone disk).
    after_ios:
        Number of block I/Os (counted from arming) that succeed before
        the fault fires: I/O number ``after_ios + 1`` is the first to fail.
    count:
        How many consecutive I/Os fail once triggered; ``None`` means the
        disk never heals (permanent media failure).  ``count=1`` models a
        transient error a retry can get past.
    """

    node: int = 0
    after_ios: int = 0
    count: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultPlanError(f"node must be >= 0, got {self.node}")
        if self.after_ios < 0:
            raise FaultPlanError(f"after_ios must be >= 0, got {self.after_ios}")
        if self.count is not None and self.count < 1:
            raise FaultPlanError(f"count must be >= 1 or None, got {self.count}")


@dataclass(frozen=True)
class MessageFault:
    """Probabilistic drops/delays and deterministic hard message failures.

    A *dropped* message is retransmitted: the transfer succeeds but is
    charged its own duration again plus ``delay`` (the sender's timeout).
    A *delayed* message is charged ``delay`` extra seconds.  A *hard*
    failure (``fail_after``) raises :class:`NetworkFaultError` on the
    matching message — what a retry policy recovers from.

    ``src``/``dst`` restrict the fault to one endpoint pair; ``None``
    matches any rank.
    """

    drop_probability: float = 0.0
    delay_probability: float = 0.0
    delay: float = 0.0
    fail_after: Optional[int] = None
    count: Optional[int] = 1
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_probability", "delay_probability"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise FaultPlanError(f"{name} must be in [0, 1], got {v}")
        if self.delay < 0:
            raise FaultPlanError(f"delay must be >= 0, got {self.delay}")
        if self.fail_after is not None and self.fail_after < 0:
            raise FaultPlanError(f"fail_after must be >= 0, got {self.fail_after}")
        if self.count is not None and self.count < 1:
            raise FaultPlanError(f"count must be >= 1 or None, got {self.count}")


@dataclass(frozen=True)
class NodeKill:
    """Declare node ``node`` dead at the start of algorithm step ``step`` (1-5)."""

    node: int
    step: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultPlanError(f"node must be >= 0, got {self.node}")
        if not (1 <= self.step <= 5):
            raise FaultPlanError(f"step must be in 1..5, got {self.step}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of every fault to inject in one run."""

    disk_faults: tuple[DiskFault, ...] = ()
    message_faults: tuple[MessageFault, ...] = ()
    node_kills: tuple[NodeKill, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "disk_faults", tuple(self.disk_faults))
        object.__setattr__(self, "message_faults", tuple(self.message_faults))
        object.__setattr__(self, "node_kills", tuple(self.node_kills))
        kills = {}
        for k in self.node_kills:
            if k.node in kills:
                raise FaultPlanError(f"node {k.node} killed more than once")
            kills[k.node] = k

    def validate_for(self, p: int) -> None:
        """Check every node index against a p-node cluster."""
        for f in self.disk_faults:
            if f.node >= p:
                raise FaultPlanError(f"disk fault on node {f.node} of a {p}-node cluster")
        for k in self.node_kills:
            if k.node >= p:
                raise FaultPlanError(f"kill of node {k.node} of a {p}-node cluster")
        for m in self.message_faults:
            for end in (m.src, m.dst):
                if end is not None and end >= p:
                    raise FaultPlanError(f"message fault endpoint {end} of a {p}-node cluster")

    # -- (de)serialisation (the CLI's --fault-plan format) -----------------

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "disk": [
                {"node": f.node, "after_ios": f.after_ios, "count": f.count}
                for f in self.disk_faults
            ],
            "network": [
                {
                    "drop_probability": m.drop_probability,
                    "delay_probability": m.delay_probability,
                    "delay": m.delay,
                    "fail_after": m.fail_after,
                    "count": m.count,
                    "src": m.src,
                    "dst": m.dst,
                }
                for m in self.message_faults
            ],
            "kills": [{"node": k.node, "step": k.step} for k in self.node_kills],
        }

    @staticmethod
    def from_dict(d: dict[str, object]) -> "FaultPlan":
        if not isinstance(d, dict):
            raise FaultPlanError(f"fault plan must be a JSON object, got {type(d).__name__}")
        known = {"seed", "disk", "network", "kills"}
        extra = set(d) - known
        if extra:
            raise FaultPlanError(f"unknown fault plan keys: {sorted(extra)}")
        try:
            return FaultPlan(
                disk_faults=tuple(DiskFault(**f) for f in d.get("disk", ())),
                message_faults=tuple(MessageFault(**m) for m in d.get("network", ())),
                node_kills=tuple(NodeKill(**k) for k in d.get("kills", ())),
                seed=int(d.get("seed", 0)),
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            return FaultPlan.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None

    @staticmethod
    def load(path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())


# ---------------------------------------------------------------------------
# Retry policy and counters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Step-level retry budget with exponential backoff.

    ``backoff * 2**(attempt-1)`` simulated seconds are
    charged to every surviving node's clock before attempt+1 — failure
    handling costs wall time, exactly like a real MPI job waiting out an
    I/O hiccup.
    """

    max_attempts: int = 3
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Backoff charged after failed attempt number ``attempt`` (1-based)."""
        return self.backoff * 2 ** (attempt - 1)


@dataclass
class FaultCounters:
    """Everything that went wrong (and was recovered from) in one run.

    Shared by the injector (fault side) and the step runner (recovery
    side); surfaced on :class:`~repro.core.external_psrs.PSRSResult` and
    rendered by :func:`repro.metrics.report.fault_table`.
    """

    disk_faults: int = 0
    network_faults: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    node_kills: int = 0
    dead_nodes: list[int] = field(default_factory=list)
    retries: dict[str, int] = field(default_factory=dict)
    backoff_time: float = 0.0
    degraded: bool = False

    @property
    def total_faults(self) -> int:
        return self.disk_faults + self.network_faults + self.node_kills

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def fault_free(self) -> bool:
        """No fault fired, no step was retried, the run is not degraded.

        The one condition under which the paper's per-step bounds are
        enforced: a retried step repeats its I/O and a degraded run
        rescales the shares, so neither is described by them.
        """
        return not (self.degraded or self.total_faults or self.total_retries)

    def note_retry(self, step: str) -> None:
        self.retries[step] = self.retries.get(step, 0) + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultCounters(disk={self.disk_faults}, net={self.network_faults}, "
            f"kills={self.node_kills}, retries={self.total_retries}, "
            f"degraded={self.degraded})"
        )


def step_index(name: str) -> Optional[int]:
    """Algorithm step number of a step label like ``\"4:redistribute\"``.

    Recovery-internal steps (``\"recover:salvage\"``) and utility steps
    (``\"gather\"``) have no number and return ``None``.
    """
    head, _, _ = name.partition(":")
    try:
        return int(head)
    except ValueError:
        return None

