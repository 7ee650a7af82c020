"""Compare two results files of ``run.py`` under the benchmark's bounds.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base, B the candidate.  For every workload in both files and
every end-to-end metric — plus every per-layer value that repeats
exactly (``contract.EXACT``) when both runs traced — prints one row: both
values, the ratio B/A (base A), the bound, the run-to-run spread and a
verdict:

``same``        B is within the bound of A
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  within the bound, but the spread of the timed samples
                (interquartile range / median, the wider of the two
                files) exceeds the bound, so "unchanged" is not shown

Simulated-clock metrics and exact counts get bound 0: two runs of one
program at one seed must agree on them to the last digit.  Exit code 1
on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if not __package__:  # started as a script: make the package importable (PEP 366)
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    __package__ = "benchmarks.perf"

from . import contract

#: End-to-end metric -> the timed samples its spread is read from.
_SAMPLES = {"items_per_host_s": "calibrated_s", "setup_s": "setup_s"}


def spread(samples: list[float]) -> float:
    """Interquartile range over median; 0 with fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, better: str, bound: float, noise: float) -> str:
    if a == b:
        return "same"
    worsening = (b - a) if better == "lower" else (a - b)
    change = worsening / abs(a) if a else float("inf") * (1 if worsening > 0 else -1)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unresolved" if noise > bound else "same"


def compared() -> list[tuple[str, str, dict, float]]:
    """(section, metric, declaration, bound) of everything compared: the
    end-to-end metrics, ``fail_ratio``, and the exact per-layer values
    (host-time layer readings carry no bound)."""
    out = []
    for name, entry in contract.declared("end_to_end").items():
        out.append(("end_to_end", name, entry, 0.0 if name in contract.EXACT else entry["bound"]))
    out.append(("end_to_end", "fail_ratio", {"unit": "ratio", "better": "lower"}, 0.0))
    for name, entry in contract.declared("per_layer").items():
        if name in contract.EXACT:
            out.append(("per_layer", name, entry, 0.0))
    return out


def _values(doc: dict, section: str) -> dict:
    if section == "end_to_end":
        return {**doc[section], "fail_ratio": doc["fail_ratio"]}
    return doc[section]


def compare(base: dict, cand: dict) -> list[dict]:
    """One row per (workload, metric) present in both documents."""
    rows = []
    metrics = compared()
    for workload, a_doc in base["workloads"].items():
        b_doc = cand["workloads"].get(workload)
        if b_doc is None:
            continue
        for section, name, entry, bound in metrics:
            a_values, b_values = _values(a_doc, section), _values(b_doc, section)
            if name not in a_values or name not in b_values:
                continue  # a traced-pass value, and one of the runs did not trace
            key = _SAMPLES.get(name)
            noise = max(spread(doc["samples"].get(key, [])) for doc in (a_doc, b_doc)) if key else 0.0
            a, b = a_values[name], b_values[name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": entry["unit"],
                    "base": a,
                    "candidate": b,
                    "ratio": b / a if a else float("nan"),
                    "bound": bound,
                    "spread": noise,
                    "verdict": verdict(a, b, entry["better"], bound, noise),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':10s} {'metric':28s} {'A (base)':>14s} {'B':>14s} {'B/A':>9s} "
        f"{'bound':>6s} {'spread':>7s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:10s} {r['metric']:28s} {r['base']:>14.6g} {r['candidate']:>14.6g} "
            f"{r['ratio']:>9.4f} {r['bound']:>6.0%} {r['spread']:>7.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = compare(*docs)
    print(render(rows))
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} comparisons, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
