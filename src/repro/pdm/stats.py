"""I/O accounting for simulated block devices.

Every :class:`~repro.pdm.disk.SimDisk` owns an :class:`IOStats`; the
external-sorting engines and the parallel algorithm report these counters,
and the test suite checks them against the theoretical bounds in
:mod:`repro.pdm.model` and :mod:`repro.core.theory`.  An ``IOStats``
counts block I/O and nothing else: per-step I/O is
:attr:`~repro.faults.recovery.StepRunner.step_io` (or the bus's block
rows, folded by :func:`repro.obs.audit.collect_step_io` into ``IOStats``
cells), and injected faults are counted by
:class:`~repro.faults.plan.FaultCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass
class IOStats:
    """Counters for one block device (or an aggregate of several).

    ``blocks_read``/``blocks_written`` count block-granularity operations
    (the PDM cost measure); ``items_read``/``items_written`` count the
    payload items actually moved, which is what the paper's per-step item
    bounds (e.g. ``2 l_i (1 + ceil(log_m l_i))``) are phrased in.
    """

    blocks_read: int = 0
    blocks_written: int = 0
    items_read: int = 0
    items_written: int = 0
    busy_time: float = 0.0

    @property
    def block_ios(self) -> int:
        """Total block I/O operations (the PDM complexity measure)."""
        return self.blocks_read + self.blocks_written

    @property
    def item_ios(self) -> int:
        """Total items moved to or from the device."""
        return self.items_read + self.items_written

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counters."""
        return IOStats(
            blocks_read=self.blocks_read,
            blocks_written=self.blocks_written,
            items_read=self.items_read,
            items_written=self.items_written,
            busy_time=self.busy_time,
        )

    def reset(self) -> None:
        self.blocks_read = 0
        self.blocks_written = 0
        self.items_read = 0
        self.items_written = 0
        self.busy_time = 0.0

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats.merge((self, other))

    def __sub__(self, other: "IOStats") -> "IOStats":
        """Counter delta (``self`` must be a later snapshot of ``other``)."""
        return IOStats(
            blocks_read=self.blocks_read - other.blocks_read,
            blocks_written=self.blocks_written - other.blocks_written,
            items_read=self.items_read - other.items_read,
            items_written=self.items_written - other.items_written,
            busy_time=self.busy_time - other.busy_time,
        )

    @staticmethod
    def merge(stats: Iterable["IOStats"]) -> "IOStats":
        """Aggregate several devices' counters into one.

        Accumulates in place on a single fresh instance — O(total
        counters), no per-iteration snapshots of the accumulator.
        """
        out = IOStats()
        for s in stats:
            out.blocks_read += s.blocks_read
            out.blocks_written += s.blocks_written
            out.items_read += s.items_read
            out.items_written += s.items_written
            out.busy_time += s.busy_time
        return out

    def __str__(self) -> str:
        parts = [
            f"blocks r/w={self.blocks_read}/{self.blocks_written}",
            f"items r/w={self.items_read}/{self.items_written}",
            f"busy={self.busy_time:.4f}s",
        ]
        return "IOStats(" + ", ".join(parts) + ")"
