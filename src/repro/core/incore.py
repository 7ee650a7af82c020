"""Bounded, charged in-core primitives for the comparison engines.

The three dedicated in-core comparators (:mod:`~repro.core.in_core_psrs`,
:mod:`~repro.core.hyperquicksort`, :mod:`~repro.core.overpartition`) hold
whole portions in node RAM *by design* — they are the paper's baselines,
not out-of-core code.  What still must hold is the cost model: every
buffer is pinned against the owning node's
:class:`~repro.pdm.memory.MemoryManager` while it is alive, and every
comparison is charged to the node's clock.  This module is the one
sanctioned site for those operations (``REP002`` exempts it, exactly the
way ``extsort/runs.py`` is exempt for run formation), so the comparators
themselves stay lint-clean without per-line annotations or baseline
entries.

The ``concat_for_verification`` accessor at the bottom is the opposite
case: a deliberately *uncharged* read used only by tests and result
inspection, documented as such in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.cluster.node import SimNode
    from repro.pdm.blockfile import BlockFile


def sort_ops(n: int) -> float:
    """The charged comparison count of an n-item sort: ``n * log2(n)``."""
    return n * float(np.log2(n)) if n > 1 else float(n)


def sort_in_memory(arr: np.ndarray, node: "SimNode") -> np.ndarray:
    """Sort ``arr`` in ``node``'s RAM, pinned and charged.

    The returned array is a sorted copy; the working set (input + copy
    share the same item count bound) is reserved against the node's
    memory budget for the duration of the sort, and ``n log2 n``
    comparisons are charged to the node's clock.
    """
    a = np.asarray(arr)
    with node.mem.reserve(int(a.size)):
        out = np.sort(a)
    node.compute(sort_ops(int(out.size)))
    return out


def merge_in_memory(pieces: Sequence[np.ndarray], node: "SimNode") -> np.ndarray:
    """Merge ``k`` sorted pieces in ``node``'s RAM, charged as a k-way merge.

    ``pieces`` must be non-empty.  The merged buffer is pinned while it
    is formed and the node is charged ``n * log2(k)`` comparisons — the
    cost of an in-core k-way merge, matching the charge the external
    merge engine applies per item.
    """
    if not pieces:
        raise ValueError("merge_in_memory needs at least one piece")
    from repro.extsort.losertree import kway_merge_sorted

    arrs = [np.asarray(q) for q in pieces]
    total = int(sum(int(a.size) for a in arrs))
    with node.mem.reserve(total):
        merged = kway_merge_sorted(arrs)
    node.compute(merged.size * float(np.log2(max(2, len(arrs)))))
    return merged


def concat_in_memory(pieces: Sequence[np.ndarray], node: "SimNode") -> np.ndarray:
    """Concatenate buffers in ``node``'s RAM under a memory reservation.

    A data move, not a comparison pass: nothing is charged to the clock
    beyond what the caller charges, but the combined buffer is pinned
    against the node's budget while it is built.  ``pieces`` must be
    non-empty.
    """
    if not pieces:
        raise ValueError("concat_in_memory needs at least one piece")
    arrs = [np.asarray(q) for q in pieces]
    total = int(sum(int(a.size) for a in arrs))
    with node.mem.reserve(total):
        return np.concatenate(arrs)


def concat_for_verification(pieces: Iterable["np.ndarray | BlockFile"]) -> np.ndarray:
    """Charge-free concatenation of output pieces, arrays or files alike.

    Used by the ``to_array()`` verification accessors of the result
    dataclasses — outside the simulated run, after the barrier, so no
    node is charged and no budget applies.
    """
    arrs = [q if isinstance(q, np.ndarray) else q.to_array() for q in pieces]  # repro: noqa REP005(verification accessor; documented charge-free)
    return np.concatenate(arrs) if arrs else np.empty(0)  # repro: noqa REP006(verification accessor; outside the simulated run)
