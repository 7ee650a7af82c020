"""D-disk striping (PDM Figure 1, organisation (a): P=1, D disks).

The paper's cluster uses organisation (b) — one disk per processor, used
independently — but quotes the PDM bound for general ``D``.  This module
implements the classic striped layout so the Figure-1 bench can contrast
the two regimes: with striping, ``D`` consecutive blocks live on ``D``
distinct drives and one "parallel I/O" moves all of them simultaneously;
the elapsed model time of a stripe access is the *maximum* of the member
drives' service times, not their sum.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.pdm.blockfile import BlockFile
from repro.pdm.disk import SimDisk
from repro.pdm.stats import IOStats


class StripedFile:
    """A logical file whose blocks are striped round-robin over D disks.

    Logical block ``i`` lives on disk ``i mod D``.  :meth:`append_stripe`
    and :meth:`read_stripe` move up to ``D`` blocks in one parallel I/O
    and return the elapsed (max-over-drives) model time; the per-drive
    counters still record every block individually, so total block I/Os
    remain the PDM measure.
    """

    def __init__(
        self,
        disks: Sequence[SimDisk],
        B: int,
        dtype: np.dtype | type = np.uint32,
        name: str = "striped",
    ) -> None:
        if not disks:
            raise ValueError("need at least one disk")
        self.disks = list(disks)
        self.B = B
        self.dtype = np.dtype(dtype)
        self.name = name
        self._members = [
            BlockFile(d, B, dtype, name=f"{name}@{d.name}") for d in self.disks
        ]
        self._n_blocks = 0
        self._n_items = 0

    @property
    def D(self) -> int:
        return len(self.disks)

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def n_items(self) -> int:
        return self._n_items

    def block_items(self, index: int) -> int:
        """Item count of logical block ``index`` (metadata, not charged)."""
        return self._members[index % self.D].block_items(index // self.D)

    def append_stripe(self, blocks: Sequence[np.ndarray]) -> float:
        """Write up to D blocks in one parallel I/O; returns elapsed time.

        Only the final stripe of a file may be shorter than D blocks, and
        only its final block may be partial (compact packing, as in
        :class:`~repro.pdm.blockfile.BlockFile`).
        """
        if not (1 <= len(blocks) <= self.D):
            raise ValueError(f"a stripe holds 1..{self.D} blocks, got {len(blocks)}")
        elapsed = 0.0
        for blk in blocks:
            member = self._members[self._n_blocks % self.D]
            before = member.disk.stats.busy_time
            member.append_block(blk)
            elapsed = max(elapsed, member.disk.stats.busy_time - before)
            self._n_blocks += 1
            self._n_items += len(blk)
        return elapsed

    def read_stripe(self, stripe_index: int) -> tuple[list[np.ndarray], float]:
        """Read the D (or fewer, at EOF) blocks of one stripe in parallel.

        Returns ``(blocks, elapsed_time)`` with blocks in logical order.
        """
        first = stripe_index * self.D
        if not (0 <= first < self._n_blocks):
            raise IndexError(f"stripe {stripe_index} out of range")
        out: list[np.ndarray] = []
        elapsed = 0.0
        for logical in range(first, min(first + self.D, self._n_blocks)):
            member = self._members[logical % self.D]
            local = logical // self.D
            before = member.disk.stats.busy_time
            out.append(member.read_block(local))
            elapsed = max(elapsed, member.disk.stats.busy_time - before)
        return out, elapsed

    @property
    def n_stripes(self) -> int:
        return -(-self._n_blocks // self.D)

    def iter_stripes(self) -> Iterator[tuple[list[np.ndarray], float]]:
        for s in range(self.n_stripes):
            yield self.read_stripe(s)

    def stats(self) -> IOStats:
        """Aggregate counters over the member drives."""
        return IOStats.merge([d.stats for d in self.disks])

    def to_array(self) -> np.ndarray:
        """Charge-free logical content, for validation only."""
        parts = [
            self._members[i % self.D].inspect_block(i // self.D)
            for i in range(self._n_blocks)
        ]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)
