"""Load-balance metrics: partition statistics and sublist expansion.

The paper's Table 3 reports, per configuration:

* ``Mean`` — mean final partition size (over the *fastest* nodes in the
  heterogeneous rows, whose optimal is the interesting one),
* ``Max`` — the largest final partition,
* ``S(max)`` — the sublist-expansion metric: the ratio of the maximum
  partition size to its optimal.  In the homogeneous case the optimal is
  ``n/p`` (Blelloch et al.'s classic definition: max/mean); in the
  heterogeneous case each node's optimal is its performance-proportional
  share ``n * perf[i] / sum(perf)``, so the metric is
  ``max_i received_i / optimal_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.perf import PerfVector


@dataclass(frozen=True)
class PartitionStats:
    """Summary of a final partitioning against its optimum."""

    sizes: tuple[int, ...]
    optimal: tuple[float, ...]
    mean: float
    max: int
    s_max: float
    mean_fastest: float
    s_max_fastest: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionStats(mean={self.mean:.1f}, max={self.max}, "
            f"S(max)={self.s_max:.4f})"
        )


def partition_stats(sizes: Sequence[int], perf: PerfVector, n: int) -> PartitionStats:
    """Compute the Table-3 columns for one run.

    ``sizes[i]`` is the number of items node i handled in the final
    merge; ``n`` the global input size.
    """
    if len(sizes) != perf.p:
        raise ValueError(f"{len(sizes)} sizes for a {perf.p}-node perf vector")
    if any(s < 0 for s in sizes):
        raise ValueError("partition sizes must be >= 0")
    expansions = perf.share_ratios(sizes, n)
    fastest = max(perf.values)
    fast_idx = [i for i, v in enumerate(perf.values) if v == fastest]
    mean_fast = float(np.mean([sizes[i] for i in fast_idx]))
    s_max_fast = max(expansions[i] for i in fast_idx)
    return PartitionStats(
        sizes=tuple(int(s) for s in sizes),
        optimal=tuple(perf.optimal_shares(n)),
        mean=float(np.mean(sizes)),
        max=int(max(sizes)),
        s_max=float(max(expansions)),
        mean_fastest=mean_fast,
        s_max_fastest=float(s_max_fast),
    )
