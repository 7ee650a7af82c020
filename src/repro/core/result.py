"""What every sort in this package returns: the paper's Table-3 columns.

Table 3 reports three numbers per run — ``Mean``, ``Max`` and ``S(max)``,
the largest final partition against its performance-proportional share.
:class:`SortResult` holds the fields they are computed from and defines
them once; each algorithm's result class adds only its own diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

import numpy as np

from repro.core.incore import concat_for_verification
from repro.core.perf import PerfVector

if TYPE_CHECKING:
    from repro.pdm.blockfile import BlockFile

#: A node's output: a disk file out of core, an array in core.
OutputT = TypeVar("OutputT", "BlockFile", np.ndarray)


@dataclass
class SortResult(Generic[OutputT]):
    """Per-node sorted outputs plus the load-balance and timing figures.

    In a degraded run the per-node lists cover the *surviving* nodes only
    and ``perf`` is the rescaled survivor perf vector, so the shares the
    2x bound is checked against are the rescaled ones.
    """

    #: Node i's sorted output; outputs are globally ordered by position.
    outputs: list[OutputT]
    perf: PerfVector
    n_items: int
    #: Simulated seconds up to the closing barrier.
    elapsed: float
    #: Step -> simulated seconds (:func:`repro.obs.events.step_seconds`).
    step_times: dict[str, float]
    #: Items node i handled in its final merge.
    received_sizes: list[int]

    @property
    def optimal_sizes(self) -> list[float]:
        """Per-node performance-proportional share ``n * perf[i] / sum(perf)``."""
        return self.perf.optimal_shares(self.n_items)

    @property
    def expansions(self) -> list[float]:
        """Per-node received/optimal ratio (perf-normalised)."""
        return self.perf.share_ratios(self.received_sizes, self.n_items)

    @property
    def s_max(self) -> float:
        """The sublist-expansion metric S(max) = max_i received_i/optimal_i."""
        return max(self.expansions)

    @property
    def mean_partition(self) -> float:
        """Mean final partition size (paper Table 3 'Mean')."""
        return float(np.mean(self.received_sizes))

    @property
    def max_partition(self) -> int:
        """Largest final partition (paper Table 3 'Max')."""
        return max(self.received_sizes)

    def to_array(self) -> np.ndarray:
        """Charge-free concatenation of the global sorted output."""
        return concat_for_verification(self.outputs)
