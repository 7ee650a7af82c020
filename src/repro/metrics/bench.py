"""Append-writer for the machine-readable benchmark artifacts.

``BENCH_sort.json`` used to be overwritten with whichever single summary
ran last, so dashboards diffing the file between commits silently lost
every other configuration.  Version 2 makes the artifact a *keyed run
list*: one document with a schema tag and one entry per
``<n_items>x<perf-vector>`` configuration.  Re-running a configuration
updates its entry in place; new configurations append.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Optional

#: Schema tag of the keyed-run-list document format.
SCHEMA = "repro-bench-sort/2"


class BenchFormatError(ValueError):
    """A benchmark artifact is structurally invalid."""


def run_key(summary: Mapping[str, object]) -> str:
    """Stable identity of one benchmark configuration.

    ``"131080x1-1-4-4"``: input size times the perf vector — the two
    axes the Table-2/3 experiments sweep.
    """
    try:
        n = int(summary["n_items"])  # type: ignore[arg-type]
        perf = [int(v) for v in summary["perf"]]  # type: ignore[union-attr]
    except (KeyError, TypeError, ValueError) as exc:
        raise BenchFormatError(f"summary lacks n_items/perf: {exc}") from None
    return f"{n}x" + "-".join(str(v) for v in perf)


def load_bench(path: str) -> dict:
    """Read and validate a benchmark document.

    A missing file yields an empty document, so the first append works
    on a fresh checkout.
    """
    if not os.path.exists(path):
        return {"schema": SCHEMA, "runs": []}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BenchFormatError(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise BenchFormatError(f"{path}: expected a JSON object")
    validate_bench(doc, path=path)
    return doc


def validate_bench(doc: Mapping[str, object], path: str = "<doc>") -> None:
    """Structural check of a v2 document; raises BenchFormatError."""
    if doc.get("schema") != SCHEMA:
        raise BenchFormatError(f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise BenchFormatError(f"{path}: 'runs' must be a list")
    seen: set[str] = set()
    for i, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise BenchFormatError(f"{path}: runs[{i}] is not an object")
        key = entry.get("key")
        if not isinstance(key, str) or not key:
            raise BenchFormatError(f"{path}: runs[{i}] has no key")
        if key != run_key(entry):
            raise BenchFormatError(
                f"{path}: runs[{i}] key {key!r} does not match its "
                f"n_items/perf ({run_key(entry)!r})"
            )
        if key in seen:
            raise BenchFormatError(f"{path}: duplicate run key {key!r}")
        seen.add(key)


def append_run(path: str, summary: Mapping[str, object]) -> dict:
    """Fold one CLI JSON summary into the artifact at ``path``.

    Returns the written document.  The entry for the summary's
    configuration is updated in place when it already exists (latest
    run wins), appended otherwise — earlier configurations survive.
    """
    doc = load_bench(path)
    entry = {"key": run_key(summary), **summary}
    runs = doc["runs"]
    for i, existing in enumerate(runs):
        if existing.get("key") == entry["key"]:
            runs[i] = entry
            break
    else:
        runs.append(entry)
    validate_bench(doc, path=path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def get_run(doc: Mapping[str, object], key: str) -> Optional[dict]:
    """The run entry with ``key``, or None."""
    for entry in doc.get("runs", ()):  # type: ignore[union-attr]
        if entry.get("key") == key:
            return entry
    return None


def _worst_step(entry: Mapping[str, object]) -> tuple[str, float]:
    """The step that regressed most vs. the best recorded run.

    Compares ``step_seconds`` against ``best_step_seconds`` and returns
    ``(step, delta)`` for the largest positive delta.  Older entries
    without a best-step record fall back to the largest absolute step —
    still a useful pointer, just not a differential one.
    """
    steps = entry.get("step_seconds")
    if not isinstance(steps, Mapping) or not steps:
        return "", 0.0
    best_steps = entry.get("best_step_seconds")
    if isinstance(best_steps, Mapping) and best_steps:
        worst, delta = "", 0.0
        for step, t in steps.items():
            d = float(t) - float(best_steps.get(step, t))  # type: ignore[arg-type]
            if d > delta:
                worst, delta = step, d
        if worst:
            return worst, delta
    worst = max(steps, key=lambda s: float(steps[s]))  # type: ignore[arg-type]
    return worst, 0.0


def _blamed_component(entry: Mapping[str, object], step: str) -> str:
    """Dominant blame component of ``step``, from the entry's profiler
    blame summary (``repro sort --format json``); "unknown" for entries
    recorded before blame summaries existed."""
    blame = entry.get("blame")
    if isinstance(blame, Mapping):
        for sb in blame.get("steps", ()):  # type: ignore[union-attr]
            if isinstance(sb, Mapping) and sb.get("step") == step:
                return str(sb.get("dominant", "unknown"))
    return "unknown"


def report_rows(doc: Mapping[str, object], factor: float = 1.2) -> list[dict]:
    """Regression analysis of every run in a keyed artifact.

    One row per configuration: its elapsed time against the best ever
    recorded, whether it regressed by more than ``factor``, and — when
    it did — which step moved most and which blame component dominates
    that step.  This is what ``repro bench report`` renders.
    """
    rows: list[dict] = []
    for entry in doc.get("runs", ()):  # type: ignore[union-attr]
        elapsed = float(entry.get("elapsed_seconds", 0.0))
        raw_best = entry.get("best_elapsed_seconds")
        best = float(raw_best) if isinstance(raw_best, (int, float)) else elapsed
        ratio = elapsed / best if best > 0 else 1.0
        regressed = best > 0 and elapsed > factor * best
        step, delta = _worst_step(entry)
        rows.append(
            {
                "key": str(entry.get("key", "")),
                "elapsed_seconds": elapsed,
                "best_elapsed_seconds": best,
                "ratio": ratio,
                "regressed": regressed,
                "blamed_step": step,
                "blamed_step_delta_seconds": delta,
                "blamed_component": _blamed_component(entry, step),
            }
        )
    return rows
