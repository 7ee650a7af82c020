"""Bounds auditor: measured per-step I/O vs Algorithm 1's step bounds.

Folds a telemetry event stream (``BlockRead``/``BlockWrite`` with step
attribution) into per-step, per-node item-I/O counters and checks each
(step, node) cell against a table of symbolic bounds, evaluated at that
node's concrete parameters.  One evaluator, :func:`evaluate_cells`,
serves both tables the repo has:

* :func:`audit_run` evaluates the paper's table,
  :func:`repro.core.theory.step_bounds` — where every formula, and the
  implementation realities it is adjusted for, is stated — at the
  node's *actual* portion ``l``;
* ``repro audit --certify`` (:mod:`repro.analysis.cost.certify`)
  evaluates the bounds the cost interpreter *derived* from the code, at
  ``l = max(portion, ceil(share))`` so that expressions derived in
  terms of the paper's idealised ``l`` stay sound for the rounding the
  concrete splitter performs, and additionally reports numbered steps
  for which no usable bound was derived.

Every bound is finally rounded *up to a whole block* (``⌈bound/B⌉·B``):
the engines only do block-granular I/O, so a bound that falls mid-block
cannot be meaningfully violated by a sub-block amount.  (Found by the
scenario fuzzer: a 3-block-memory polyphase run measured 2502 items
against a fractional bound of 2501.2 — a 0.8-item "violation".)

Steps the table has no bound for (``gather``, ``recover:*`` on the
paper side; the ``quantile`` pivot method's counting search, whose I/O
the sample formula does not bound) are reported as informational rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Mapping, Optional

from repro.core.perf import PerfVector
from repro.core.theory import NUMBERED_STEPS, step_bounds
from repro.metrics.report import Table
from repro.obs.events import BlockRead, BlockWrite, Event, EventLog
from repro.pdm.sym import POLYPHASE_SLACK, Expr, find_tops

#: One (step, node, measured item I/O) cell of a recorded run.
Cell = tuple[str, int, int]

#: Memory substituted when a run recorded ``memory_items=None``: large
#: enough that every pass count floors at the engine minimum (no
#: multi-pass penalty is derivable without ``M``).
_UNKNOWN_MEMORY = float(2**62)


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

    def to_dict(self) -> dict[str, object]:
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
    for row in EventLog.of(events).rows:
        cls = row[0]
        if cls is BlockRead or cls is BlockWrite:
            # (cls, t, node, step, disk, n_items, ...)
            cell = out.get((row[3], row[2]))
            if cell is None:
                cell = out[(row[3], row[2])] = StepNodeIO()
            if cls is BlockRead:
                cell.items_read += row[5]
                cell.blocks_read += 1
            else:
                cell.items_written += row[5]
                cell.blocks_written += 1
    return out


def fold_cells(
    events: Iterable[Event],
    step_io: Optional[Mapping[tuple[str, int], StepNodeIO]] = None,
) -> list[Cell]:
    """The (step, node, measured item I/O) cells of an event stream
    (``step_io``: its :func:`collect_step_io` fold, if already made)."""
    step_io = collect_step_io(events) if step_io is None else step_io
    return [(step, node, io.item_ios) for (step, node), io in step_io.items()]


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
    """All verdicts of one run against one table of bounds."""

    meta: RunMeta
    rows: list[AuditRow] = field(default_factory=list)
    #: ``None``: the bounds are the paper's.  An algorithm name: they are
    #: the bounds statically derived for it (a certification report).
    algorithm: Optional[str] = None
    #: Numbered steps that appeared in the run but have no usable derived
    #: bound (missing or TOP) — a certification failure on its own.
    missing_steps: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing_steps and all(r.ok for r in self.rows)

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
        derived = self.algorithm is not None
        t = Table(
            "static certification (measured vs derived per-step item I/O)"
            if derived
            else "bounds audit (measured vs paper per-step item I/O)",
            ["step", "node", "measured",
             "static bound" if derived else "bound", "ratio", "verdict"],
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
                    f"{r.ratio:.3f}" if r.ratio is not None else "-",
                    "ok" if r.ok else "VIOLATION",
                )
        for step in self.missing_steps:
            t.add_row(step, "-", "-", "-", "-", "NO STATIC BOUND")
        if self.ok:
            verdict = "CERTIFIED" if derived else "PASS"
        else:
            unbounded = f", {len(self.missing_steps)} unbounded step(s)" if derived else ""
            verdict = f"FAIL ({len(self.violations)} violation(s){unbounded})"
        t.add_section(verdict)
        return t

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "ok": self.ok,
            "algorithm": self.algorithm,
            "meta": self.meta.to_dict(),
            "missing_steps": list(self.missing_steps),
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
        if self.algorithm is None:  # a paper audit carries neither key
            del out["algorithm"], out["missing_steps"]
        return out


def node_envs(meta: RunMeta, *, cover_share: bool = False) -> list[dict[str, float]]:
    """The concrete symbol environment of every node of one run.

    ``l`` is the node's actual portion; with ``cover_share`` it is
    ``max(portion, ceil(ideal share))``, which expressions *derived* in
    terms of the paper's idealised ``l`` need to stay sound for the
    rounding the concrete splitter performs.
    """
    perf = PerfVector(list(meta.perf))
    portions = perf.portions(meta.n_items)
    B = float(meta.block_items)
    shared = {
        "n": float(meta.n_items),
        "p": float(perf.p),
        "B": B,
        "M": _UNKNOWN_MEMORY if meta.memory_items is None else float(meta.memory_items),
        "c": float(meta.oversample),
        "G": float(perf.total),
        "d": float(meta.d_duplicates),
        "r": float(meta.n_items),
        "cm": 8.0 * B,
    }
    return [
        {
            **shared,
            "g": float(perf[node]),
            "l": float(
                max(portion, math.ceil(perf.optimal_share(meta.n_items, node)))
                if cover_share
                else portion
            ),
        }
        for node, portion in enumerate(portions)
    ]


def _expr_for(exprs: Mapping[str, Expr], step: str) -> Optional[Expr]:
    """The usable (present, non-TOP) bound of ``step``; keys may be
    ``fnmatch`` patterns (``level-*``)."""
    hit = exprs.get(step) or next(
        (e for pat, e in exprs.items() if "*" in pat and fnmatchcase(step, pat)), None
    )
    return None if hit is None or find_tops(hit) else hit


def evaluate_cells(
    cells: Iterable[Cell],
    meta: RunMeta,
    exprs: Mapping[str, Expr],
    *,
    algorithm: Optional[str] = None,
    notes: Optional[Mapping[str, str]] = None,
) -> AuditReport:
    """Check folded (step, node, measured) cells against ``exprs``.

    ``algorithm=None`` means ``exprs`` is the paper's table: a step
    without a bound is outside Algorithm 1 and informational.  With an
    algorithm name, ``exprs`` is that algorithm's derived table
    (evaluated with ``cover_share``, see :func:`node_envs`), and a
    numbered step without a usable bound is a failure, listed once in
    ``missing_steps`` with no per-node rows.  ``notes`` labels the
    bounded rows per step.
    """
    derived = algorithm is not None
    psrs = algorithm in (None, "external_psrs")
    envs = node_envs(meta, cover_share=derived)
    usable: dict[str, Optional[Expr]] = {}
    report = AuditReport(meta=meta, algorithm=algorithm)
    for step, node, measured in sorted(cells):
        if step not in usable:
            usable[step] = _expr_for(exprs, step)
        expr = usable[step]
        bound: Optional[float] = None
        if not 0 <= node < len(envs):
            note = "no owning node"
        elif psrs and step == "2:pivots" and meta.pivot_method == "quantile":
            note = (
                "quantile search I/O not statically bounded" if derived
                else "quantile search I/O not bounded by the sample formula"
            )
        elif expr is not None:
            bound = expr.eval(envs[node])
            if not math.isinf(bound):
                # I/O is block-granular; a mid-block bound is not
                # violable by sub-block amounts.
                bound = float(math.ceil(bound / meta.block_items) * meta.block_items)
            note = "derived static bound" if notes is None else notes[step]
        elif derived and (step in NUMBERED_STEPS if psrs else step in exprs):
            if step not in report.missing_steps:
                report.missing_steps.append(step)
            continue
        else:
            note = "no static bound" if derived else "outside Algorithm 1"
        report.rows.append(AuditRow(step, node, measured, bound, note))
    return report


def audit_run(
    events: Iterable[Event],
    meta: RunMeta,
    *,
    polyphase_slack: float = POLYPHASE_SLACK,
    step_io: Optional[Mapping[tuple[str, int], StepNodeIO]] = None,
) -> AuditReport:
    """Check a run's folded per-step I/O against the paper bounds,
    :func:`repro.core.theory.step_bounds` at ``polyphase_slack``.

    Assumes a fault-free, full-cluster run: in degraded mode the node
    positions and shares are rescaled mid-run and the Algorithm-1
    per-node bounds no longer describe the execution (the CLI skips
    enforcement for degraded runs).  A caller that has already folded
    ``events`` with :func:`collect_step_io` passes the fold as ``step_io``.
    """
    if polyphase_slack <= 0:
        raise ValueError(f"polyphase_slack must be > 0, got {polyphase_slack}")
    notes = {
        "1:local-sort": f"2l(1+max(1,ceil(log_m l))) x{polyphase_slack:g} polyphase slack",
        "2:pivots": "c(p-1)perf[i] sample blocks",
        "3:partition": "2Q + pivot binary-search probes",
        "4:redistribute": "l_i reads + (2l_i+d) writes (+partial blocks)",
        "5:final-merge": "2l'(1+ceil(log_m l')) on l'<=2l_i+d",
    }
    return evaluate_cells(
        fold_cells(events, step_io), meta, step_bounds(polyphase_slack), notes=notes
    )
