"""The performance vector and the lcm input-size condition (paper Eq. 2).

The heterogeneity of the cluster is coded in an integer array ``perf``
of relative node performances (higher = faster).  The paper requires the
input size to satisfy

    n = k * perf[0] * lcm(perf) + ... + k * perf[p-1] * lcm(perf)
      = k * lcm(perf) * sum(perf)                                (Eq. 2)

for some integer ``k >= 1``, so every node's portion
``l_i = n * perf[i] / sum(perf)`` is integral *and* the regular-sampling
interval ``n / (p * sum(perf))``... divides every portion evenly — the
property that makes the pivot-selection offsets identical on all nodes
("the value of i is the same on all processors due to Equation 2").

For sizes that do not satisfy Eq. 2 the paper points at standard
load-balancing techniques; :meth:`PerfVector.portions` implements
largest-remainder rounding, and :meth:`PerfVector.nearest_admissible`
finds the closest Eq.-2 size (how the paper turns 2^24 into 16777220
for the {1,1,4,4} machine).
"""

from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


class PerfVector:
    """Integer relative performances of the p nodes.

    ``PerfVector([1, 1, 4, 4])`` is the paper's loaded-cluster machine;
    ``PerfVector([1]*p)`` is the homogeneous configuration.
    """

    def __init__(self, values: Sequence[int]) -> None:
        vals = list(values)
        if not vals:
            raise ValueError("perf vector cannot be empty")
        for v in vals:
            if not isinstance(v, (int,)) or isinstance(v, bool):
                raise TypeError(f"perf values must be ints, got {v!r}")
            if v < 1:
                raise ValueError(f"perf values must be >= 1, got {v}")
        self.values = vals

    @property
    def p(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def lcm(self) -> int:
        return reduce(math.lcm, self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return self.p

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PerfVector) and self.values == other.values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PerfVector({self.values})"

    # -- Eq. 2 -----------------------------------------------------------

    @property
    def granularity(self) -> int:
        """The Eq.-2 quantum ``lcm(perf) * sum(perf)``: admissible sizes
        are exactly its positive multiples."""
        return self.lcm * self.total

    def is_admissible(self, n: int) -> bool:
        """Does ``n`` satisfy Eq. 2 for some integer k >= 1?"""
        return n > 0 and n % self.granularity == 0

    def admissible_size(self, k: int) -> int:
        """The Eq.-2 size for a given k."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return k * self.granularity

    def nearest_admissible(self, n: int) -> int:
        """Smallest strictly Eq.-2-admissible size >= n."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        g = self.granularity
        return -(-n // g) * g

    @property
    def portion_granularity(self) -> int:
        """Smallest g such that every multiple of g has integral
        performance-proportional portions ``n * perf[i] / total``.

        This is the condition the paper actually applies when it grows
        2^24 to 16777220 for the {1,1,4,4} machine ("since the least
        common multiple of {1,1,4,4} is 4, we are able to choose the
        size of 16777220"): 16777220 is the smallest size >= 2^24 whose
        portions (1677722 / 6710888) are whole numbers.
        """
        g = 1
        for v in self.values:
            g = math.lcm(g, self.total // math.gcd(self.total, v))
        return g

    def nearest_exact(self, n: int) -> int:
        """Smallest size >= n with integral portions (paper: 2^24 -> 16777220)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        g = self.portion_granularity
        return -(-n // g) * g

    # -- data distribution -------------------------------------------------

    def exact_portions(self, n: int) -> list[int]:
        """Per-node portions for an Eq.-2 admissible size (exact)."""
        if not self.is_admissible(n):
            raise ValueError(
                f"n={n} does not satisfy Eq. 2 for perf={self.values} "
                f"(granularity {self.granularity}); use portions() or "
                f"nearest_admissible()"
            )
        unit = n // self.total
        return [unit * v for v in self.values]

    def portions(self, n: int) -> list[int]:
        """Per-node portions proportional to perf, for any ``n >= 0``.

        Uses largest-remainder rounding, so ``sum == n`` always and each
        portion is within 1 of the exact proportional share.  For
        admissible sizes this equals :meth:`exact_portions`.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        shares = [n * v / self.total for v in self.values]
        base = [int(s) for s in shares]
        rem = n - sum(base)
        order = sorted(
            range(self.p), key=lambda i: (shares[i] - base[i], self.values[i]), reverse=True
        )
        for i in order[:rem]:
            base[i] += 1
        return base

    def split(self, data: "np.ndarray") -> list["np.ndarray"]:
        """``data`` dealt into consecutive slices of :meth:`portions` sizes."""
        slices, start = [], 0
        for l_i in self.portions(data.size):
            slices.append(data[start : start + l_i])
            start += l_i
        return slices

    def optimal_share(self, n: int, i: int) -> float:
        """The ideal (real-valued) share of node i: ``n * perf[i] / total``."""
        if not (0 <= i < self.p):
            raise IndexError(f"node {i} out of range 0..{self.p - 1}")
        return n * self.values[i] / self.total

    def optimal_shares(self, n: int) -> list[float]:
        """:meth:`optimal_share` of every node."""
        return [n * v / self.total for v in self.values]

    def share_ratios(self, sizes: Sequence[int], n: int) -> list[float]:
        """Per-node ``sizes[i] / optimal_share(n, i)`` — the sublist
        expansion, whose maximum is the paper's S(max); 1.0 where the
        share is empty."""
        return [s / o if o > 0 else 1.0 for s, o in zip(sizes, self.optimal_shares(n))]

    def subset(self, indices: Sequence[int]) -> "PerfVector":
        """The perf vector of a node subset (degraded-mode rescaling).

        ``perf.subset(survivors)`` re-bases the performance-proportional
        shares on the surviving nodes, which is what the 2x load-balance
        bound is re-checked against after a node death.
        """
        idx = list(indices)
        if not idx:
            raise ValueError("subset cannot be empty")
        for i in idx:
            if not (0 <= i < self.p):
                raise IndexError(f"node {i} out of range 0..{self.p - 1}")
        return PerfVector([self.values[i] for i in idx])

    # -- derivation ----------------------------------------------------------

    @staticmethod
    def from_speeds(speeds: Sequence[float]) -> "PerfVector":
        """Round measured relative speeds to a small-integer perf vector.

        Normalises by the slowest node and rounds to the nearest integer,
        capped at 64 (the paper's protocol: "the ratios to the slower
        execution time allow us to fill the perf array") — e.g. measured
        ratios {4.06, 4.03, 1.0, 0.97} become {4, 4, 1, 1}.
        """
        sp = [float(s) for s in speeds]
        if not sp:
            raise ValueError("speeds cannot be empty")
        if any(s <= 0 for s in sp):
            raise ValueError(f"speeds must be > 0, got {sp}")
        slowest = min(sp)
        vals = [max(1, min(64, round(s / slowest))) for s in sp]
        return PerfVector(vals)
