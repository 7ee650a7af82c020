"""Heterogeneity-aware regular sampling and pivot selection (paper step 2).

Each node i picks ``L_i = c * (p-1) * perf[i]`` samples from its
*sorted* local portion at the fixed interval

    off = l_i // L_i  =  (k * lcm * perf[i]) // (c * (p-1) * perf[i])
                      =  k * lcm // (c * (p-1))

which, thanks to Eq. 2, is the *same offset on every node* — between any
two consecutive samples there is the same number of sorted elements
cluster-wide, and node i contributes candidates proportional to its data
share.  This is the paper's generalisation of PSRS regular sampling
(``c=1`` is the paper's literal count; the default ``c=4`` refines the
candidate grid, see :func:`sample_count`).

The designated node sorts the gathered candidates and picks ``p - 1``
pivots at the cumulative-performance ranks

    rank_j = c * (p-1) * sum(perf[:j]) - 1

aiming pivot j at the global quantile ``sum(perf[:j]) / sum(perf)`` —
the boundary of node j's performance-proportional share (see
:func:`pivot_ranks` for the derivation).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.perf import PerfVector
from repro.pdm.blockfile import BlockFile
from repro.pdm.memory import MemoryManager


def sample_count(perf_i: int, p: int, oversample: int = 4) -> int:
    """Per-node candidate count ``L_i = c * (p-1) * perf[i]``.

    ``oversample=1`` is the paper's literal ``(p-1) * perf[i]``; the
    default ``c=4`` refines the candidate quantile grid fourfold, which
    the sampling ablation shows is needed to reach the paper's measured
    S(max) (the candidate grid must nearly contain the cumulative-perf
    boundary quantiles; see pivot_ranks).
    """
    if perf_i < 1 or p < 1:
        raise ValueError(f"perf_i and p must be >= 1, got {perf_i}, {p}")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    return oversample * (p - 1) * perf_i


def sample_interval(l_i: int, perf_i: int, p: int, oversample: int = 4) -> int:
    """Sampling offset ``off = l_i // L_i`` (>= 1); identical across
    nodes when l_i satisfies Eq. 2."""
    if l_i < 0:
        raise ValueError(f"l_i must be >= 0, got {l_i}")
    L = sample_count(perf_i, p, oversample)
    if L == 0:
        return max(1, l_i)
    return max(1, l_i // L)


def regular_sample_positions(l_i: int, off: int, max_samples: int) -> np.ndarray:
    """Positions ``off-1, 2*off-1, ...`` (at most ``max_samples`` of them,
    all < l_i) — the paper's fseek/fread loop."""
    if off < 1:
        raise ValueError(f"off must be >= 1, got {off}")
    if max_samples < 0:
        raise ValueError(f"max_samples must be >= 0, got {max_samples}")
    if l_i <= 0 or max_samples == 0:
        return np.empty(0, dtype=np.int64)
    count = min(max_samples, l_i // off)  # j*off - 1 < l_i  <=>  j <= l_i // off
    pos = (np.arange(1, count + 1, dtype=np.int64) * off) - 1
    return pos


def read_samples(
    sorted_file: BlockFile, positions: Sequence[int], mem: MemoryManager
) -> np.ndarray:
    """Read the items at ``positions`` from a sorted block file.

    Charges one block read per *distinct* block touched (the paper's
    fseek/fread loop enjoys the same locality: consecutive sample
    positions often share a block).
    """
    pos = np.asarray(list(positions), dtype=np.int64)
    if pos.size == 0:
        return np.empty(0, dtype=sorted_file.dtype)
    if pos.min() < 0 or pos.max() >= sorted_file.n_items:
        raise IndexError(f"sample positions out of range [0, {sorted_file.n_items})")
    B = sorted_file.B
    out = np.empty(pos.size, dtype=sorted_file.dtype)
    blocks = pos // B
    for b in np.unique(blocks):
        with mem.reserve(sorted_file.block_items(int(b))):
            blk = sorted_file.read_block(int(b))
            sel = blocks == b
            out[sel] = blk[pos[sel] - b * B]
    return out


def regular_sample(
    sorted_file: BlockFile,
    perf: PerfVector,
    node: int,
    mem: MemoryManager,
    oversample: int = 4,
) -> np.ndarray:
    """Node ``node``'s regular sample of its sorted portion (paper step 2)."""
    if not (0 <= node < perf.p):
        raise IndexError(f"node {node} out of range 0..{perf.p - 1}")
    l_i = sorted_file.n_items
    if perf.p == 1:
        return np.empty(0, dtype=sorted_file.dtype)
    off = sample_interval(l_i, perf[node], perf.p, oversample)
    L = sample_count(perf[node], perf.p, oversample)
    positions = regular_sample_positions(l_i, off, L)
    return read_samples(sorted_file, positions, mem)


def random_sample(
    file: BlockFile,
    n_samples: int,
    mem: MemoryManager,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform random positions — the oversampling variant's sampler."""
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    n = file.n_items
    if n == 0 or n_samples == 0:
        return np.empty(0, dtype=file.dtype)
    positions = np.sort(rng.integers(0, n, size=min(n_samples, n)))  # repro: noqa REP002(sorts O(s) sample positions, metadata not records)
    return read_samples(file, positions, mem)


def pivot_ranks(perf: PerfVector, oversample: int = 4) -> np.ndarray:
    """Ranks of the p-1 pivots among the gathered candidates.

    With samples taken at chunk *ends* (positions off-1, 2*off-1, ...),
    the candidate at sorted rank r has about ``(r+1) * off`` items at or
    below it cluster-wide (stratified sampling), so the pivot aimed at
    the cumulative-performance boundary ``n * cum_perf_j / total`` sits
    at rank ``c * (p-1) * cum_perf_j - 1``.  All-ones perf recovers the
    classic PSRS regular positions.
    """
    p = perf.p
    if p == 1:
        return np.empty(0, dtype=np.int64)
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    cum = np.cumsum(perf.values)[:-1]
    total_candidates = oversample * (p - 1) * perf.total
    ranks = oversample * (p - 1) * cum - 1
    return np.clip(ranks, 0, max(0, total_candidates - 1)).astype(np.int64)


def select_pivots(
    candidates: np.ndarray,
    perf: PerfVector,
    compute: Optional[Callable[[float], None]] = None,
    oversample: int = 4,
) -> np.ndarray:
    """Sort the gathered candidates and pick the p-1 regular pivots.

    The candidate array must be the concatenation of all nodes' samples
    (any order); this runs in core on the designated node — the paper
    notes the sample is tiny relative to M.
    """
    cand = np.sort(np.asarray(candidates))  # repro: noqa REP002(pivot candidates are tiny vs M per the paper; charged via compute below)
    if compute is not None and cand.size > 1:
        compute(cand.size * float(np.log2(cand.size)))
    if perf.p == 1:
        return np.empty(0, dtype=cand.dtype)
    if cand.size == 0:
        raise ValueError("cannot select pivots from an empty candidate set")
    ranks = np.minimum(pivot_ranks(perf, oversample), cand.size - 1)
    return cand[ranks]
