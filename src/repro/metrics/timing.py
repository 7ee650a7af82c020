"""Repeated-trial statistics.

The paper reports each configuration over 30 experiments with mean and
standard deviation.  The simulation is deterministic given a seed, so a
"trial" here varies the input seed: the spread measures data-dependent
variation (run counts, partition skew), which is exactly what the
paper's deviation column captures net of OS noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrialStats:
    """Mean / standard deviation / extremes over repeated trials."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("need at least one trial")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for a single trial."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.5f} ± {self.std:.5f} (n={self.n})"

