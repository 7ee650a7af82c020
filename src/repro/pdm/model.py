"""PDM parameter bundle and theoretical I/O bounds (paper §2).

The paper states (Theorem 1, after Aggarwal & Vitter / Nodine & Vitter)
that the average- and worst-case number of I/Os required to sort
``N = nB`` items with ``D`` disks is

    Sort(N) = Theta((n / D) * log_m(n))

where ``n = N/B`` and ``m = M/B``.  In practice the ``log_m n`` term is a
small constant; the bounds here are used by the test suite to check the
measured I/O counters of the external sorting engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def merge_order(M: int, B: int) -> int:
    """Largest merge arity sustainable in memory ``M``.

    A k-way external merge needs one B-item input buffer per run plus
    one B-item output buffer, so ``k = floor(M/B) - 1`` (at least 2).
    """
    return max(2, M // B - 1)


def merge_levels(n_runs: float, k: int) -> int:
    """Passes a k-way merge needs over ``n_runs`` runs: the least
    ``j >= 1`` with ``k**j >= n_runs``, by integer powers (a float
    ``log`` overshoots by one at exact powers such as ``(125, 5)``)."""
    if k < 2:
        raise ValueError(f"merge order must be >= 2, got {k}")
    if n_runs <= 1:
        return 0
    levels, reach = 1, k
    while reach < n_runs:
        levels += 1
        reach *= k
    return levels


def merge_passes(n_items: float, M: int, B: int) -> int:
    """Merge passes over ``n_items`` items: none when they fit in ``M``,
    else the :func:`merge_levels` of their ``ceil(n_items / M)`` initial
    memory-load runs at the full :func:`merge_order`."""
    if n_items <= M:
        return 0
    return merge_levels(-(-n_items // M), merge_order(M, B))


@dataclass(frozen=True)
class PDMConfig:
    """Parameters of the Parallel Disk Model.

    Attributes
    ----------
    N:
        Problem size, in items.
    M:
        Internal memory size, in items.  An out-of-core algorithm may
        never hold more than ``M`` items in core at once.
    B:
        Block transfer size, in items.  Disks move whole blocks.
    D:
        Number of independent disk drives.
    P:
        Number of CPUs.  The paper uses the ``P = D`` organisation
        (Figure 1 (b)): one disk attached to each cluster node.
    """

    N: int
    M: int
    B: int
    D: int = 1
    P: int = 1

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.M < 2 * self.B:
            raise ValueError(
                f"M must be >= 2*B (need room for at least one input and one "
                f"output block), got M={self.M}, B={self.B}"
            )
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")
        if self.P < 1:
            raise ValueError(f"P must be >= 1, got {self.P}")

    @property
    def n(self) -> int:
        """Problem size in blocks, ``ceil(N / B)``."""
        return -(-self.N // self.B)

    @property
    def m(self) -> int:
        """Memory size in blocks, ``floor(M / B)``."""
        return self.M // self.B

    def merge_passes(self, n_items: int | None = None) -> int:
        """Number of merge passes over the data, ``ceil(log_m n)``.

        This is the ``(1 + ceil(log_m l_i))`` factor (minus the initial
        run-formation pass) in the paper's step-1 I/O bound.
        """
        return merge_passes(self.N if n_items is None else n_items, self.M, self.B)

    def sort_io_bound(self, n_items: int | None = None) -> float:
        """Theorem 1: ``Sort(N) = (n/D) * max(1, log_m n)`` block I/Os.

        Returned as a float (the Theta-bound ignores constant factors; the
        tests compare measured counts against a small multiple of this).
        """
        N = self.N if n_items is None else n_items
        n = -(-N // self.B)
        if n == 0:
            return 0.0
        m = max(2, self.m)
        return (n / self.D) * max(1.0, math.log(n, m))

    def step1_io_bound(self, l_i: int) -> float:
        """Paper step 1 bound: ``2 * l_i * (1 + ceil(log_m l_i))`` I/Os —
        :func:`repro.pdm.sym.sort_cost` evaluated at ``l_i``.

        The paper counts I/Os in items here (read + write of every item
        once per pass); divide by ``B`` for block I/Os.
        """
        from repro.pdm.sym import Sym, sort_cost  # sym imports this module

        if l_i <= 0:
            return 0.0
        return sort_cost(Sym("l")).eval({"l": l_i, "M": self.M, "B": self.B})

    def with_(self, **kwargs: int) -> "PDMConfig":
        """Return a copy with some parameters replaced."""
        cur = {"N": self.N, "M": self.M, "B": self.B, "D": self.D, "P": self.P}
        cur.update(kwargs)
        return PDMConfig(**cur)
