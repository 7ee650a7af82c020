"""Theoretical bounds the paper states, used by tests and reports.

* the PSRS load-balance theorem, heterogeneous form (paper §4): the
  final amount of data on node i is at most ``2 * l_i`` (its initial
  performance-proportional portion) plus ``d`` for duplicate keys
  (§3.1: "the upper bound with d duplicates becomes U + d").

The per-step I/O bounds of Algorithm 1 are the auditor's
(:mod:`repro.obs.audit`); the PDM sort bound of Theorem 1 is
:class:`~repro.pdm.model.PDMConfig`'s.
"""

from __future__ import annotations

import numpy as np

from repro.core.perf import PerfVector


def load_balance_bound(n: int, perf: PerfVector, i: int, d_duplicates: int = 0) -> float:
    """Max items node i may handle in the final merge: ``2*l_i + d``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d_duplicates < 0:
        raise ValueError(f"d_duplicates must be >= 0, got {d_duplicates}")
    return 2.0 * perf.optimal_share(n, i) + d_duplicates


def max_duplicate_count(data: np.ndarray) -> int:
    """The paper's ``d``: multiplicity of the most duplicated key."""
    arr = np.asarray(data)
    if arr.size == 0:
        return 0
    _, counts = np.unique(arr, return_counts=True)
    return int(counts.max())


def ideal_speedup(perf: PerfVector) -> float:
    """Speedup of the hetero-aware parallel sort over the *slowest* node
    running alone, if load balance and communication were perfect.

    The slowest node alone processes n at speed min(perf); the cluster
    processes n at aggregate speed sum(perf): ratio = total/min.
    """
    return perf.total / min(perf.values)


def ideal_speedup_vs_fastest(perf: PerfVector) -> float:
    """Speedup over the *fastest* node running alone: total/max."""
    return perf.total / max(perf.values)


def homogeneous_waste_factor(perf: PerfVector) -> float:
    """Slowdown from treating a hetero cluster as homogeneous.

    With equal shares, the slowest node (speed min) gets n/p and finishes
    last in time ~ (n/p)/min; with perf-proportional shares every node
    finishes in ~ n/total.  Ratio = total / (p * min) — e.g. 2.5x for
    {1,1,4,4}; Table 3 measures ~2x (constant offsets dampen it).
    """
    return perf.total / (perf.p * min(perf.values))
