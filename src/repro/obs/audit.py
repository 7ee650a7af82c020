"""Bounds auditor: measured per-step I/O vs the paper's Algorithm-1 bounds.

Folds a telemetry event stream (``BlockRead``/``BlockWrite`` with step
attribution) into per-step, per-node item-I/O counters and checks each
numbered PSRS step against the theoretical bound the paper states for
it, using the same formula sources the test suite trusts:
:meth:`repro.pdm.model.PDMConfig.step1_io_bound` and
:func:`repro.core.theory.load_balance_bound`.

The audited bounds are the paper's, adjusted for two *documented*
implementation realities (each noted in the report row):

* **step 1 / step 5** — the paper's ``2·l·(1+⌈log_m l⌉)`` assumes an
  ideal multiway merge; the polyphase engine pads with dummy runs, so a
  ``POLYPHASE_SLACK`` factor (1.3, the same gate the I/O-complexity
  benchmarks enforce) is applied, and the log term is floored at one
  pass (the engine always writes runs and then merges them to the
  output, even when ``l ≤ M``).  Step 5 additionally takes the max
  with the explicit p-run merge depth ``2·l'·⌈log_k p⌉`` (the formula's
  ``l'/M`` run count can undercount when many small runs are merged).
* **step 2** — the sample is read at block granularity, so the bound is
  ``c·(p-1)·perf[i]`` sample *blocks*, i.e. ``·B`` items; the exact
  ``quantile`` pivot method does unbounded-by-this-formula counting
  search I/O and is reported as informational.
* **step 3** — partitioning reads the portion once and writes it once
  (``2·Q``) plus ``p-1`` binary searches, each touching at most
  ``⌊log2 n_blocks⌋+3`` blocks (the search loop's ``⌊log2 nb⌋+1``
  probes, the final cut block, and the partition-boundary block the
  materialising copy re-reads).
* **step 4** — the sender reads its ``l_i`` materialised partition
  items; the receiver writes at most the load-balance bound
  ``2·l_i + d``; partial blocks add at most ``p·B`` items.

Every bound is finally rounded *up to a whole block* (``⌈bound/B⌉·B``):
the engines only do block-granular I/O, so a bound that falls mid-block
cannot be meaningfully violated by a sub-block amount.  (Found by the
scenario fuzzer: a 3-block-memory polyphase run measured 2502 items
against a fractional bound of 2501.2 — a 0.8-item "violation".)

Non-numbered steps (``gather``, ``recover:*``) are outside Algorithm 1
and are reported as informational rows with no bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.core.perf import PerfVector
from repro.core.theory import load_balance_bound
from repro.metrics.report import Table
from repro.obs.events import BlockRead, BlockWrite, Event
from repro.pdm.model import PDMConfig, merge_levels

#: Step-1/5 slack for polyphase dummy-run padding — the same factor the
#: I/O-complexity benchmark gate allows (benchmarks/test_io_complexity.py).
POLYPHASE_SLACK = 1.3


@dataclass(frozen=True)
class RunMeta:
    """Run parameters the auditor needs; serialised into the JSONL head."""

    n_items: int
    perf: tuple[int, ...]
    memory_items: Optional[int]
    block_items: int
    oversample: int
    d_duplicates: int
    pivot_method: str = "regular"

    def to_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "perf": list(self.perf),
            "memory_items": self.memory_items,
            "block_items": self.block_items,
            "oversample": self.oversample,
            "d_duplicates": self.d_duplicates,
            "pivot_method": self.pivot_method,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "RunMeta":
        try:
            return RunMeta(
                n_items=int(data["n_items"]),  # type: ignore[arg-type]
                perf=tuple(int(v) for v in data["perf"]),  # type: ignore[union-attr]
                memory_items=(
                    None if data["memory_items"] is None else int(data["memory_items"])  # type: ignore[arg-type]
                ),
                block_items=int(data["block_items"]),  # type: ignore[arg-type]
                oversample=int(data["oversample"]),  # type: ignore[arg-type]
                d_duplicates=int(data["d_duplicates"]),  # type: ignore[arg-type]
                pivot_method=str(data.get("pivot_method", "regular")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid run_meta record: {exc}") from exc


@dataclass
class StepNodeIO:
    """Folded I/O counters for one (step, node) cell."""

    items_read: int = 0
    items_written: int = 0
    blocks_read: int = 0
    blocks_written: int = 0

    @property
    def item_ios(self) -> int:
        return self.items_read + self.items_written

    @property
    def block_ios(self) -> int:
        return self.blocks_read + self.blocks_written


def collect_step_io(events: Iterable[Event]) -> dict[tuple[str, int], StepNodeIO]:
    """Fold block I/O events into per-(step, node) counters."""
    out: dict[tuple[str, int], StepNodeIO] = {}
    for e in events:
        if isinstance(e, BlockRead):
            cell = out.setdefault((e.step, e.node), StepNodeIO())
            cell.items_read += e.n_items
            cell.blocks_read += 1
        elif isinstance(e, BlockWrite):
            cell = out.setdefault((e.step, e.node), StepNodeIO())
            cell.items_written += e.n_items
            cell.blocks_written += 1
    return out


@dataclass(frozen=True)
class AuditRow:
    """One (step, node) verdict."""

    step: str
    node: int
    measured_items: int
    bound_items: Optional[float]  # None = informational, no bound applies
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.bound_items is None or self.measured_items <= self.bound_items

    @property
    def ratio(self) -> Optional[float]:
        if self.bound_items is None or self.bound_items == 0:
            return None
        return self.measured_items / self.bound_items


@dataclass
class AuditReport:
    """All verdicts of one audited run."""

    meta: RunMeta
    rows: list[AuditRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def violations(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.ok]

    @property
    def worst_ratio(self) -> float:
        """Largest measured/bound ratio over the bounded rows (0.0 if none).

        The scenario fuzzer uses this as its corpus score: a run that
        pushes closer to a paper bound is a more interesting neighbour
        to mutate than one that idles in the middle of the envelope.
        """
        return max((r.ratio for r in self.rows if r.ratio is not None), default=0.0)

    @property
    def worst_row(self) -> Optional[AuditRow]:
        """The bounded row with the largest ratio, or None."""
        bounded = [r for r in self.rows if r.ratio is not None]
        if not bounded:
            return None
        return max(bounded, key=lambda r: r.ratio)  # type: ignore[arg-type, return-value]

    def table(self) -> Table:
        t = Table(
            "bounds audit (measured vs paper per-step item I/O)",
            ["step", "node", "measured", "bound", "ratio", "verdict"],
        )
        for r in self.rows:
            if r.bound_items is None:
                t.add_row(r.step, r.node, r.measured_items, "-", "-",
                          f"info ({r.note})" if r.note else "info")
            else:
                t.add_row(
                    r.step,
                    r.node,
                    r.measured_items,
                    round(r.bound_items, 1),
                    f"{r.ratio:.3f}",
                    "ok" if r.ok else "VIOLATION",
                )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.violations)} violation(s))"
        t.add_section(verdict)
        return t

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "meta": self.meta.to_dict(),
            "rows": [
                {
                    "step": r.step,
                    "node": r.node,
                    "measured_items": r.measured_items,
                    "bound_items": r.bound_items,
                    "ratio": r.ratio,
                    "ok": r.ok,
                    "note": r.note,
                }
                for r in self.rows
            ],
        }


def _bound_for(
    step: str,
    node: int,
    meta: RunMeta,
    perf: PerfVector,
    portions: list[int],
    slack: float = POLYPHASE_SLACK,
) -> tuple[Optional[float], str]:
    """The paper bound (in items) for one (step, node) cell, with a note."""
    if node < 0 or node >= perf.p:
        return None, "no owning node"
    l_i = portions[node]
    B = meta.block_items
    M = meta.memory_items
    p = perf.p
    d = meta.d_duplicates
    received_bound = load_balance_bound(meta.n_items, perf, node, d)
    if M is not None:
        cfg = PDMConfig(N=max(meta.n_items, 2 * B), M=M, B=B)
        k = cfg.merge_order()
    else:
        cfg = None
        k = None

    if step == "1:local-sort":
        # The engine always runs a run-formation pass plus >=1 merge/output
        # pass, even when l_i <= M (the formula's log term is then 0).
        base = cfg.step1_io_bound(l_i) if cfg is not None else 0.0
        base = max(base, 4.0 * l_i)
        return slack * base, f"2l(1+max(1,ceil(log_m l))) x{slack:g} polyphase slack"
    if step == "2:pivots":
        if meta.pivot_method == "quantile":
            return None, "quantile search I/O not bounded by the sample formula"
        samples = meta.oversample * (p - 1) * perf[node]
        return float(samples * B), "c(p-1)perf[i] sample blocks"
    if step == "3:partition":
        n_blocks = max(1, -(-l_i // B))
        probes = (p - 1) * (n_blocks.bit_length() + 2)  # floor(log2 nb)+1 reads +2
        return 2.0 * l_i + probes * B, "2Q + pivot binary-search probes"
    if step == "4:redistribute":
        return l_i + received_bound + p * B, "l_i reads + (2l_i+d) writes (+partial blocks)"
    if step == "5:final-merge":
        lb = int(math.ceil(received_bound))
        if cfg is not None and k is not None:
            paper = cfg.step1_io_bound(lb)
            runs = 2.0 * lb * max(1, merge_levels(p, k))
            base = max(paper, runs)
        else:
            base = 2.0 * lb
        return slack * base + p * B, "2l'(1+ceil(log_m l')) on l'<=2l_i+d"
    return None, "outside Algorithm 1"


def audit_run(
    events: Iterable[Event],
    meta: RunMeta,
    *,
    polyphase_slack: float = POLYPHASE_SLACK,
) -> AuditReport:
    """Check a run's folded per-step I/O against the paper bounds.

    Assumes a fault-free, full-cluster run: in degraded mode the node
    positions and shares are rescaled mid-run and the Algorithm-1
    per-node bounds no longer describe the execution (the CLI skips
    enforcement for degraded runs).

    ``polyphase_slack`` overrides the step-1/5 dummy-run slack factor;
    the scenario fuzzer tightens it toward 1.0 to hunt for runs that
    exceed the paper's *ideal* merge formula, not just the engineering
    envelope.
    """
    if polyphase_slack <= 0:
        raise ValueError(f"polyphase_slack must be > 0, got {polyphase_slack}")
    perf = PerfVector(list(meta.perf))
    portions = perf.portions(meta.n_items)
    report = AuditReport(meta=meta)
    for (step, node), io in sorted(collect_step_io(events).items()):
        bound, note = _bound_for(step, node, meta, perf, portions, polyphase_slack)
        if bound is not None:
            # I/O is block-granular; a mid-block bound is not violable
            # by sub-block amounts.
            bound = float(math.ceil(bound / meta.block_items) * meta.block_items)
        report.rows.append(
            AuditRow(
                step=step,
                node=node,
                measured_items=io.item_ios,
                bound_items=bound,
                note=note,
            )
        )
    return report
