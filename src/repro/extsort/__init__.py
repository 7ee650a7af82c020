"""Sequential external-sorting substrate.

The paper's Algorithm 1 uses a sequential external sort twice: step 1
(local sort of each node's portion) and step 5 (final merge of the p
received runs).  The paper implements both with **polyphase merge sort**
(Knuth vol. 3): run formation followed by a generalized-Fibonacci tape
schedule that achieves a (T-1)-way merge with T files and no
redistribution pass.

This package provides:

* :mod:`~repro.extsort.runs` — run formation (memory-load sorting and
  replacement selection),
* :mod:`~repro.extsort.losertree` — the tournament (loser) tree used by
  item-at-a-time merging,
* :mod:`~repro.extsort.multiway` — block-buffered k-way merging of sorted
  runs under a memory budget (the vectorised engine every sort runs, and
  the textbook item-at-a-time merge kept as its reference),
* :mod:`~repro.extsort.polyphase` — polyphase merge sort (the paper's
  sequential engine),
* :mod:`~repro.extsort.balanced` — balanced k-way external merge sort
  (baseline comparator),
* :mod:`~repro.extsort.distribution` — external distribution (bucket)
  sort with sampled splitters (the §2 baseline).
"""

from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.distribution import distribution_sort
from repro.extsort.losertree import LoserTree
from repro.extsort.multiway import (
    RunCursor,
    RunRef,
    max_merge_order,
    merge_cursors,
    merge_cursors_itemwise,
)
from repro.extsort.polyphase import PolyphaseResult, polyphase_sort
from repro.extsort.runs import form_runs

__all__ = [
    "LoserTree",
    "PolyphaseResult",
    "RunCursor",
    "RunRef",
    "balanced_merge_sort",
    "distribution_sort",
    "form_runs",
    "max_merge_order",
    "merge_cursors",
    "merge_cursors_itemwise",
    "polyphase_sort",
]
