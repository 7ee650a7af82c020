"""Theoretical bounds the paper states — each written down once.

* the PSRS load-balance theorem, heterogeneous form (paper §4): the
  final amount of data on node i is at most twice its ideal
  performance-proportional share ``n*perf[i]/sum(perf)``, plus ``d`` for
  duplicate keys (§3.1: "the upper bound with d duplicates becomes
  U + d") — :func:`load_balance`;
* the per-step item-I/O bounds of Algorithm 1 — :func:`step_bounds`,
  one :mod:`repro.pdm.sym` expression per numbered step, adjusted for
  the *documented* implementation realities its builders name.  The
  runtime auditor (:mod:`repro.obs.audit`) evaluates that table per
  node, REP301 checks the statically derived bounds against it, the
  certifier's contracts call the same builders at the sizes its walker
  derives, and docs/COSTS.md renders it.

The PDM sort bound of Theorem 1 is :class:`~repro.pdm.model.PDMConfig`'s.
"""

from __future__ import annotations

import numpy as np

from repro.core.perf import PerfVector
from repro.pdm.sym import (
    Add,
    BitLen,
    Ceil,
    Const,
    Div,
    Expr,
    Max,
    Mul,
    Sym,
    merge_cost,
    poly_cost,
)

_L = Sym("l")
_P = Sym("p")
_B = Sym("B")
_P_MINUS_1 = Add((_P, Const(-1)))

#: A node's ideal (real-valued) share ``n*perf[i]/sum(perf)`` — what
#: :meth:`PerfVector.optimal_share` computes.  Its actual portion ``l``
#: differs by rounding unless ``n`` meets the lcm condition.
IDEAL_SHARE = Div(Mul((Sym("n"), Sym("g"))), Sym("G"))

#: Step 2: ``c(p-1)perf[i]`` regular samples, each read at block
#: granularity, so sample *blocks* — ``*B`` items.
SAMPLE_COST = Mul((Sym("c"), _P_MINUS_1, Sym("g"), _B))


def load_balance(share: Expr) -> Expr:
    """Max items a node may handle in the final merge: ``2*share + d``."""
    return Add((Mul((Const(2), share)), Sym("d")))


def probe_cost(size: Expr, extra_blocks: int) -> Expr:
    """Step 3's ``p-1`` pivot binary searches over ``size`` items: each
    probes ``floor(log2 n_blocks)+1`` blocks plus ``extra_blocks`` (the
    final cut block; the boundary block the materialising copy re-reads)."""
    n_blocks = Max((Const(1), Ceil(Div(size, _B))))
    return Mul((_P_MINUS_1, Add((BitLen(n_blocks), Const(extra_blocks))), _B))


def redistribute_cost(sent: Expr, share: Expr) -> Expr:
    """Step 4: the sender reads its ``sent`` materialised partition
    items, the receiver writes at most :func:`load_balance` of its
    share; partial blocks add at most one block per sender."""
    return Add((sent, load_balance(share), Mul((_P, _B))))


def step_bounds() -> dict[str, Expr]:
    """Algorithm 1's per-(step, node) item-I/O bounds, at a node's actual
    portion ``l`` and ideal share ``n*g/G``.  Steps 1 and 5 carry the
    fixed :data:`~repro.pdm.sym.POLYPHASE_SLACK`; the table has no
    parameter."""
    return {
        "1:local-sort": poly_cost(_L),
        "2:pivots": SAMPLE_COST,
        "3:partition": Add((Mul((Const(2), _L)), probe_cost(_L, 2))),
        "4:redistribute": redistribute_cost(_L, IDEAL_SHARE),
        "5:final-merge": merge_cost(Ceil(load_balance(IDEAL_SHARE)), _P),
    }


#: Algorithm 1's numbered steps, in order.
NUMBERED_STEPS: tuple[str, ...] = tuple(step_bounds())


def load_balance_bound(n: int, perf: PerfVector, i: int, d_duplicates: int = 0) -> float:
    """:func:`load_balance` of node i's ideal share, as a number."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d_duplicates < 0:
        raise ValueError(f"d_duplicates must be >= 0, got {d_duplicates}")
    return load_balance(IDEAL_SHARE).eval(
        {"n": n, "g": perf[i], "G": perf.total, "d": d_duplicates}
    )


def max_duplicate_count(data: np.ndarray) -> int:
    """The paper's ``d``: multiplicity of the most duplicated key.

    Exact, holding one sorted copy and one boolean mask at a time: with
    ``k + 1`` distinct keys in ``n``, ``ceil(n / (k + 1)) <= d <= n - k``,
    and sorted, some key occurs ``m`` times iff ``s[i] == s[i + m - 1]``
    for some ``i``, so ``d`` is bisected between the two bounds."""
    s = np.sort(np.asarray(data), axis=None)  # repro: noqa REP002(the input's d, measured outside any run: not a simulated cost)
    n = s.size
    k = int(np.count_nonzero(s[1:] != s[:-1]))
    lo, hi = -(-n // (k + 1)), n - k + 1  # lo occurs; hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if np.any(s[mid - 1 :] == s[: n - mid + 1]) else (lo, mid)
    return lo


def homogeneous_waste_factor(perf: PerfVector) -> float:
    """Slowdown from treating a hetero cluster as homogeneous.

    With equal shares, the slowest node (speed min) gets n/p and finishes
    last in time ~ (n/p)/min; with perf-proportional shares every node
    finishes in ~ n/total.  Ratio = total / (p * min) — e.g. 2.5x for
    {1,1,4,4}; Table 3 measures ~2x (constant offsets dampen it).
    """
    return perf.total / (perf.p * min(perf.values))
