"""Runtime sanitizers: dynamic cross-checks of the simulation invariants.

The static rules (:mod:`repro.analysis.rules`) catch what syntax can
see; the sanitizers catch what only execution can.  When a sanitizer is
installed (the test suite installs one around every test via an autouse
conftest fixture), the accounting surfaces consult it on their hot
paths:

* :class:`~repro.pdm.disk.SimDisk` reports every charge —
  ``SAN-DISK-EMPTY`` (degenerate zero-payload accounting) and
  ``SAN-DISK-DEAD-WRITE`` (a write charged to a dead node's disk: node
  isolation — a crashed node's disk stays *readable* for salvage, but
  nothing may write through a dead node);
* :class:`~repro.pdm.blockfile.BlockFile` brackets each block I/O —
  ``SAN-DISK-UNACCOUNTED`` (a block moved without exactly one counter
  increment on the owning disk, the "every block charged exactly once"
  invariant that caching/subclassing PRs are most likely to break);
* :class:`~repro.cluster.network.Network` reports every transfer —
  ``SAN-NET-DEAD-DST`` (message delivered to a dead node) and
  ``SAN-NET-TORN`` (message size not a whole number of items when the
  call site declares the item width — paper step 4 moves whole items in
  block-multiple messages);
* :class:`~repro.pdm.memory.MemoryManager` registers itself at
  construction — ``SAN-MEM-LEAK`` (reservations still pinned when the
  test ends: a buffer acquired and never released means the M budget
  drifts and later phases under-report pressure).

Sanitizers are strictly opt-in and nestable (a stack); with none
installed every hook is a single ``is None`` test, so the fault-free
cost model is untouched.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # import only for annotations: avoid runtime cycles
    from repro.cluster.network import Network
    from repro.cluster.node import SimNode
    from repro.pdm.disk import SimDisk
    from repro.pdm.memory import MemoryManager


class SanitizerError(AssertionError):
    """An invariant violation detected at runtime.

    ``check`` is the stable machine-readable check id (``SAN-...``);
    the message carries the forensic detail.  Subclasses AssertionError
    so a violation reads as a failed invariant, not an operational
    error, and is never swallowed by ``except Exception`` recovery
    paths tested elsewhere.
    """

    def __init__(self, check: str, message: str) -> None:
        super().__init__(f"[{check}] {message}")
        self.check = check


@dataclass
class SanitizerStats:
    """How many times each hook ran (visibility that checks are live)."""

    disk_charges: int = 0
    block_ios: int = 0
    transfers: int = 0
    managers_tracked: int = 0


@dataclass(frozen=True)
class SanitizerTrip:
    """One recorded invariant violation (kept even after the raise).

    Consumers that swallow or translate the :class:`SanitizerError`
    (the scenario fuzzer classifying a run, a retry layer unwinding a
    step) can still read the machine-readable trip record off
    :attr:`RuntimeSanitizer.trips` afterwards.
    """

    check: str
    message: str


class RuntimeSanitizer:
    """One installed set of dynamic invariant checks."""

    def __init__(self) -> None:
        self.stats = SanitizerStats()
        #: Every violation this sanitizer raised, in firing order.
        self.trips: list[SanitizerTrip] = []
        self._managers: list[weakref.ref["MemoryManager"]] = []

    def _violation(self, check: str, message: str) -> None:
        self.trips.append(SanitizerTrip(check, message))
        raise SanitizerError(check, message)

    # -- SimDisk ----------------------------------------------------------

    def on_disk_charge(
        self, disk: "SimDisk", op: str, n_items: int, itemsize: int
    ) -> None:
        """Called by :meth:`SimDisk.charge` for every block it charges."""
        self.stats.disk_charges += 1
        if n_items < 1 or itemsize < 1:
            self._violation(
                "SAN-DISK-EMPTY",
                f"disk {disk.name!r} charged a degenerate {op} of "
                f"{n_items} item(s) x {itemsize} byte(s); empty I/O must "
                "not be accounted",
            )
        owner = getattr(disk, "owner", None)
        if op == "write" and owner is not None and not owner.alive:
            self._violation(
                "SAN-DISK-DEAD-WRITE",
                f"write charged to disk {disk.name!r} of dead node "
                f"{owner.name!r} (died at {owner.failed_at!r}); a crashed "
                "node's disk is salvage-readable but never writable",
            )

    def expect_block_charge(
        self, disk: "SimDisk", reads: int = 0, writes: int = 0
    ) -> "_BlockChargeBracket":
        """Bracket BlockFile block I/O: exactly ``reads`` and ``writes``
        counter increments.

        Guards the "every block read/write charged exactly once"
        invariant against future caching or subclass shortcuts: each
        block move must land in the owning disk's IOStats exactly once.
        """
        return _BlockChargeBracket(self, disk, reads, writes)

    # -- Network ----------------------------------------------------------

    def on_transfer(
        self,
        network: "Network",
        src: "SimNode",
        dst: "SimNode",
        nbytes: int,
        item_bytes: Optional[int],
    ) -> None:
        """Called by :meth:`Network.transfer` before the charge."""
        self.stats.transfers += 1
        if not dst.alive:
            self._violation(
                "SAN-NET-DEAD-DST",
                f"message of {nbytes} byte(s) from {src.name!r} addressed "
                f"to dead node {dst.name!r} (died at {dst.failed_at!r}); "
                "dead nodes receive nothing",
            )
        if item_bytes is not None and item_bytes > 0 and nbytes % item_bytes != 0:
            self._violation(
                "SAN-NET-TORN",
                f"message {src.name!r} -> {dst.name!r} of {nbytes} byte(s) "
                f"is not a whole number of {item_bytes}-byte items; "
                "messages move whole items (paper step 4)",
            )

    # -- MemoryManager -----------------------------------------------------

    def on_manager_created(self, manager: "MemoryManager") -> None:
        """Called by :meth:`MemoryManager.__init__` while installed."""
        self.stats.managers_tracked += 1
        self._managers.append(weakref.ref(manager))

    def assert_no_leaks(self) -> None:
        """Raise SAN-MEM-LEAK if any tracked manager still pins memory."""
        leaks = []
        for ref in self._managers:
            mgr = ref()
            if mgr is not None and mgr.in_use > 0:
                leaks.append(f"{mgr!r}")
        if leaks:
            self._violation(
                "SAN-MEM-LEAK",
                "memory reservations still pinned at scope end: "
                + "; ".join(leaks)
                + " — every acquire must be released (use mem.reserve)",
            )


class _BlockChargeBracket:
    """``with san.expect_block_charge(disk, reads, writes):`` — the
    counters are read on entry and compared on exit, unless the body raised."""

    __slots__ = ("san", "disk", "reads", "writes", "before")

    def __init__(self, san: RuntimeSanitizer, disk: "SimDisk", reads: int, writes: int) -> None:
        self.san = san
        self.disk = disk
        self.reads = reads
        self.writes = writes

    def __enter__(self) -> None:
        self.san.stats.block_ios += self.reads + self.writes
        stats = self.disk.stats
        self.before = (stats.blocks_read, stats.blocks_written)

    def __exit__(self, exc_type: object, *exc: object) -> None:
        stats = self.disk.stats
        moved = (stats.blocks_read - self.before[0], stats.blocks_written - self.before[1])
        if exc_type is None and moved != (self.reads, self.writes):
            self.san._violation(
                "SAN-DISK-UNACCOUNTED",
                f"block I/O on disk {self.disk.name!r} moved the read/write "
                f"counters by {moved} instead of {(self.reads, self.writes)}; "
                "every block I/O must be charged exactly once",
            )


# One process-wide stack so nested installs (a sanitizer test inside the
# suite-wide fixture) compose; only the innermost sanitizer is consulted.
_ACTIVE: list[RuntimeSanitizer] = []  # repro: noqa REP008(process-global sanitizer stack, deliberately shared)


def active_sanitizer() -> Optional[RuntimeSanitizer]:
    """The innermost installed sanitizer, or None (the fast path)."""
    return _ACTIVE[-1] if _ACTIVE else None


def install_sanitizers() -> RuntimeSanitizer:
    """Arm a new sanitizer and return it (stack discipline: LIFO)."""
    san = RuntimeSanitizer()
    _ACTIVE.append(san)
    return san


def uninstall_sanitizers(san: Optional[RuntimeSanitizer] = None) -> None:
    """Disarm ``san`` (default: the innermost installed sanitizer)."""
    if not _ACTIVE:
        raise RuntimeError("no sanitizer installed")
    if san is None:
        _ACTIVE.pop()
        return
    try:
        _ACTIVE.remove(san)
    except ValueError:
        raise RuntimeError("sanitizer is not installed") from None


@contextmanager
def sanitized() -> Iterator[RuntimeSanitizer]:
    """Context-managed install: arm, run, leak-check (on success), disarm."""
    san = install_sanitizers()
    try:
        yield san
        san.assert_no_leaks()
    finally:
        uninstall_sanitizers(san)
