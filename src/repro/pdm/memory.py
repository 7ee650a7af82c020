"""Internal-memory budget enforcement.

The whole point of an out-of-core algorithm is that it never holds more
than ``M`` items in core.  :class:`MemoryManager` makes that a *checked*
property: every buffer the sorting engines pin goes through
:meth:`MemoryManager.reserve`, and exceeding the budget raises
:class:`MemoryBudgetError` instead of silently cheating.

The test suite runs the external sorts with tiny budgets (tens to a few
hundreds of items) to force genuinely out-of-core execution paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.analysis.sanitizers import active_sanitizer

if TYPE_CHECKING:
    from repro.cluster.node import SimNode
    from repro.obs.bus import TelemetryBus


class MemoryBudgetError(RuntimeError):
    """Raised when an algorithm tries to pin more than M items in core."""


class _Reservation:
    """``with mem.reserve(n):`` — acquire on entry, release on exit."""

    __slots__ = ("mem", "n_items")

    def __init__(self, mem: "MemoryManager", n_items: int) -> None:
        self.mem = mem
        self.n_items = n_items

    def __enter__(self) -> None:
        self.mem.acquire(self.n_items)

    def __exit__(self, *exc: object) -> None:
        self.mem.release(self.n_items)


class MemoryManager:
    """Tracks in-core item usage against a capacity of ``M`` items.

    Parameters
    ----------
    capacity:
        The PDM parameter ``M`` in items.  ``None`` means unlimited
        (useful for in-core baselines).
    """

    def __init__(self, capacity: int | None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.in_use = 0
        self.high_water = 0
        self.total_reservations = 0
        #: Owning :class:`~repro.cluster.node.SimNode` (set by the node);
        #: used to stamp telemetry events with rank and clock time.
        self.owner: Optional["SimNode"] = None
        #: Telemetry bus (wired by the owning Cluster).  Reservations are
        #: published as ``MemReserve``/``MemRelease`` at the ``"full"``
        #: capture level only.
        self.bus: Optional["TelemetryBus"] = None
        san = active_sanitizer()
        if san is not None:
            san.on_manager_created(self)  # leak tracking (SAN-MEM-LEAK)

    @property
    def available(self) -> int:
        if self.capacity is None:
            return 2**62
        return self.capacity - self.in_use

    def acquire(self, n_items: int) -> None:
        """Pin ``n_items`` items in core; raises if over budget."""
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        if self.capacity is not None and self.in_use + n_items > self.capacity:
            raise MemoryBudgetError(
                f"memory budget exceeded: in_use={self.in_use} + "
                f"request={n_items} > M={self.capacity}"
            )
        self.in_use += n_items
        self.total_reservations += 1
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        bus = self.bus
        if bus is not None and bus.captures_memory:
            self._publish(bus, "reserve", n_items)

    def release(self, n_items: int) -> None:
        """Unpin ``n_items`` previously acquired items."""
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        if n_items > self.in_use:
            raise ValueError(
                f"releasing {n_items} items but only {self.in_use} are in use"
            )
        self.in_use -= n_items
        bus = self.bus
        if bus is not None and bus.captures_memory:
            self._publish(bus, "release", n_items)

    def apply_planned(self, peak: int, reservations: int, delta: int) -> bool:
        """Apply ``reservations`` planned acquires and their releases at
        once: ``in_use`` peaks at ``peak`` and moves by ``delta``.  False,
        changing nothing, if ``peak`` exceeds M.  Publishes no row."""
        if self.capacity is not None and peak > self.capacity:
            return False
        self.in_use += delta
        self.total_reservations += reservations
        if peak > self.high_water:
            self.high_water = peak
        return True

    def reserve(self, n_items: int) -> _Reservation:
        """Context-managed acquire/release of ``n_items`` items."""
        return _Reservation(self, n_items)

    def _publish(self, bus: "TelemetryBus", op: str, n_items: int) -> None:
        """Publish one reservation change to a memory-capturing bus."""
        owner = self.owner
        bus.record_mem(
            op,
            node=owner.rank if owner is not None else -1,
            t=owner.clock.time if owner is not None else 0.0,
            n_items=n_items,
            in_use=self.in_use,
        )

    def checkpoint(self) -> int:
        """Current usage, for leak assertions in tests."""
        return self.in_use

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"MemoryManager(in_use={self.in_use}/{cap}, high_water={self.high_water})"
