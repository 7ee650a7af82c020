"""Plain-text table rendering shaped like the paper's tables.

The bench harness prints its results through these helpers so the
regenerated Table 2 / Table 3 read like the originals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Table:
    """A titled table accumulated row by row."""

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_fmt(c) for c in cells])

    def add_section(self, label: str) -> None:
        """A full-width section header row (the paper's per-config bands)."""
        self.rows.append([f"-- {label}"])

    def render(self) -> str:
        return format_table(self.title, self.columns, self.rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _fmt(c: object) -> str:
    if isinstance(c, float):
        if c == 0:
            return "0"
        if abs(c) >= 1000:
            return f"{c:.1f}"
        if abs(c) >= 1:
            return f"{c:.3f}"
        return f"{c:.5f}"
    return str(c)


def fault_table(counters) -> Table:
    """Render a :class:`~repro.faults.plan.FaultCounters` as a report table.

    One row per counter that is non-trivial, so a fault-free run prints a
    single "(no faults injected)" band; the ``sort --fault-plan`` CLI and
    the recovery test suite read retries/backoff out of this table.
    """
    table = Table("fault injection", ["counter", "value"])
    if counters.total_faults == 0 and counters.total_retries == 0:
        table.add_section("(no faults injected)")
        return table
    table.add_row("disk faults", counters.disk_faults)
    table.add_row("network faults", counters.network_faults)
    table.add_row("messages dropped", counters.messages_dropped)
    table.add_row("messages delayed", counters.messages_delayed)
    table.add_row("node kills", counters.node_kills)
    table.add_row("dead nodes", str(counters.dead_nodes) if counters.dead_nodes else "-")
    for step in sorted(counters.retries):
        table.add_row(f"retries[{step}]", counters.retries[step])
    table.add_row("total retries", counters.total_retries)
    table.add_row("backoff charged (s)", counters.backoff_time)
    table.add_row("degraded mode", "yes" if counters.degraded else "no")
    return table


def format_table(title: str, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace table with column alignment and section bands."""
    ncols = len(columns)
    widths = [len(c) for c in columns]
    for row in rows:
        if len(row) == 1 and row[0].startswith("--"):
            continue
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    total = sum(widths) + 2 * (ncols - 1)
    lines = [title, "=" * max(total, len(title))]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("-" * max(total, len(title)))
    for row in rows:
        if len(row) == 1 and row[0].startswith("--"):
            lines.append(row[0][3:].center(max(total, len(title)), "-"))
        else:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
