"""Dynamic certification: static bounds vs measured I/O of real runs.

The certifier's closing move — ``repro audit --certify`` — substitutes
one recorded run's concrete parameters (n, p, B, M, c, d, perf) into
the *statically derived* per-step expressions and fails if measured
item I/O ever exceeds the static bound.  With the REP301 dominance
check (derived <= paper) and the dynamic auditor (measured <= paper,
per run), this makes the certifier, the auditor and the fuzzer three
mutually cross-checking views of one cost model:

    measured  <=  derived(static)  <=  paper

Three input shapes are supported:

* :func:`certify_events` — a telemetry event stream + its
  :class:`~repro.obs.audit.RunMeta`, exactly like ``repro audit``;
* :func:`certify_corpus` — replays every scenario in a fuzz-corpus
  directory (``tests/data/fuzz_corpus/`` in CI) and certifies the
  fault-free ones (degraded/recovered runs rescale shares mid-run, so
  the per-node static bounds do not describe them — same exemption the
  auditor applies);
* :func:`certify_bench` — folds the recorded ``audit`` blocks of a
  ``BENCH_sort.json`` size x p matrix, no re-execution needed.

Evaluation is the auditor's: :func:`repro.obs.audit.evaluate_cells`
on the derived table, which also documents the ``l`` the derived
expressions are evaluated at and the unknown-memory fallback.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from repro.obs.audit import (
    AuditReport,
    Cell,
    RunMeta,
    evaluate_cells,
    fold_cells,
)
from repro.obs.events import Event
from repro.pdm.sym import Expr

from repro.analysis.cost.interp import derive_costs

_EXPR_CACHE: dict[str, dict[str, Expr]] = {}


def static_step_exprs(algorithm: str = "external_psrs") -> dict[str, Expr]:
    """Derive (and memoize) the installed package's step expressions."""
    if not _EXPR_CACHE:
        import repro
        from repro.analysis.flow import load_project

        root = Path(repro.__file__).parent
        project = load_project([root])
        for algo, costs in derive_costs(project).items():
            _EXPR_CACHE[algo] = {
                name: sc.expr for name, sc in costs.steps.items()
            }
    return _EXPR_CACHE.get(algorithm, {})


def certify_cells(
    cells: Iterable[Cell],
    meta: RunMeta,
    *,
    algorithm: str = "external_psrs",
    exprs: Optional[Mapping[str, Expr]] = None,
) -> AuditReport:
    """Certify folded (step, node, measured) cells of one run."""
    table = static_step_exprs(algorithm) if exprs is None else exprs
    return evaluate_cells(cells, meta, table, algorithm=algorithm)


def certify_events(
    events: Iterable[Event],
    meta: RunMeta,
    *,
    algorithm: str = "external_psrs",
    exprs: Optional[Mapping[str, Expr]] = None,
) -> AuditReport:
    """Certify a telemetry event stream against the static bounds."""
    return certify_cells(
        fold_cells(events), meta, algorithm=algorithm, exprs=exprs
    )


@dataclass(frozen=True)
class CertifyCaseResult:
    """One corpus scenario / bench run folded through the certifier."""

    name: str
    report: Optional[AuditReport]
    skipped: Optional[str] = None  # reason when bounds do not apply

    @property
    def ok(self) -> bool:
        return self.report is None or self.report.ok


def certify_corpus(
    corpus_dir: Union[str, Path],
    *,
    kernel: str = "event",
) -> list[CertifyCaseResult]:
    """Replay and certify every scenario in a fuzz-corpus directory.

    Only fault-free (``status == "ok"``) replays are certified: degraded
    and recovered runs rescale node shares mid-run, and violation cases
    exist precisely to exceed bounds (under tightened slack), so the
    fault-free static bounds do not describe them.
    """
    from repro.fuzz import ScenarioExecutor, load_case

    executor = ScenarioExecutor(collect_coverage=False, kernel=kernel)
    results: list[CertifyCaseResult] = []
    for path in sorted(glob.glob(os.path.join(str(corpus_dir), "*.jsonl"))):
        name = os.path.splitext(os.path.basename(path))[0]
        outcome = executor.run(load_case(path).scenario)
        if outcome.status != "ok":
            results.append(CertifyCaseResult(
                name, None,
                f"status {outcome.status!r}: fault-free bounds do not apply",
            ))
            continue
        assert outcome.meta is not None  # every "ok" run was audited
        cells = [
            (step, node, items_read + items_written)
            for step, node, _br, _bw, items_read, items_written
            in outcome.io_counters
        ]
        results.append(CertifyCaseResult(
            name, certify_cells(cells, outcome.meta)
        ))
    return results


def certify_bench(path: Union[str, Path]) -> list[CertifyCaseResult]:
    """Certify every audited run recorded in a ``BENCH_sort.json``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    results: list[CertifyCaseResult] = []
    for run in data.get("runs", []):
        name = str(run.get("key", "?"))
        if run.get("degraded"):
            results.append(CertifyCaseResult(
                name, None, "degraded run: per-node bounds do not apply"
            ))
            continue
        audit = run.get("audit")
        if not isinstance(audit, dict):
            results.append(CertifyCaseResult(name, None, "no audit block"))
            continue
        meta = RunMeta.from_dict(audit["meta"])
        cells = [
            (str(row["step"]), int(row["node"]), int(row["measured_items"]))
            for row in audit.get("rows", [])
        ]
        results.append(CertifyCaseResult(
            name, certify_cells(cells, meta)
        ))
    return results
