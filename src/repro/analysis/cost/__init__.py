"""Symbolic I/O-cost certification: the rules REP301..REP306.

Layered on the flow engine's project model
(:mod:`repro.analysis.flow.project`), this subpackage abstract-interprets
each registered algorithm entry point into symbolic per-(step, node)
I/O bounds (:mod:`.interp`, over the algebra of :mod:`repro.pdm.sym` and the
contract base of :mod:`.charges`) and derives six rules from it
(:mod:`.rules`):

=======  ================================  ===============================
code     name                              invariant
=======  ================================  ===============================
REP301   derived-bound-exceeds-paper       derived <= the paper's step
                                           formula (:mod:`.paper`)
REP302   unbounded-io-in-step              no TOP escapes to a step bound
REP303   extra-pass                        <= 3 passes over a step's data
REP304   io-outside-derivable-loop-bound   every charge under a derivable
                                           loop bound
REP305   bound-regression                  derived <= the checked-in
                                           cost-baseline.json
REP306   dead-bound                        every formula backed by a real
                                           charge site
=======  ================================  ===============================

Entry points: :func:`analyze_cost` (wired into ``repro lint --cost``),
:func:`emit_costs` (the ``--emit-costs`` per-algorithm JSON),
:func:`baseline_payload` (``--write-cost-baseline``), and the dynamic
closing of the loop in :mod:`.certify` (``repro audit --certify``:
measured <= derived <= paper).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.engine import (
    ALL_RULES as _NOQA_ALL,
    AnalysisError,
    AnalysisReport,
    FileReport,
    Suppression,
    parse_noqa,
)
from repro.analysis.flow import load_project
from repro.analysis.flow.project import Project

from repro.analysis.cost.certify import (
    CertifyCaseResult,
    certify_bench,
    certify_cells,
    certify_corpus,
    certify_events,
    static_step_exprs,
)
from repro.analysis.cost.interp import (
    AlgorithmCosts,
    CostInterpreter,
    StepCost,
    derive_costs,
)
from repro.analysis.cost.rules import (
    COST_BASELINE_NAME,
    BoundRegressionRule,
    CostRule,
    DeadBoundRule,
    DerivedExceedsPaperRule,
    ExtraPassRule,
    UnboundedIORule,
    UnboundedLoopIORule,
)

#: version of the cost engine, reported in the JSON payload and keyed
#: into the whole-project lint cache
COST_ENGINE_VERSION = "1.0"

#: all cost rules, in code order — the registry the CLI and tests use
COST_RULES: tuple[CostRule, ...] = (
    DerivedExceedsPaperRule(),
    UnboundedIORule(),
    ExtraPassRule(),
    UnboundedLoopIORule(),
    BoundRegressionRule(),
    DeadBoundRule(),
)

COST_RULES_BY_CODE: dict[str, CostRule] = {r.code: r for r in COST_RULES}

__all__ = [
    "COST_BASELINE_NAME",
    "COST_ENGINE_VERSION",
    "COST_RULES",
    "COST_RULES_BY_CODE",
    "AlgorithmCosts",
    "CertifyCaseResult",
    "CostInterpreter",
    "CostRule",
    "StepCost",
    "analyze_cost",
    "analyze_cost_source",
    "baseline_payload",
    "certify_bench",
    "certify_cells",
    "certify_corpus",
    "certify_events",
    "derive_costs",
    "emit_costs",
    "get_cost_rules",
    "static_step_exprs",
    "write_cost_baseline",
]


def get_cost_rules(
    codes: Sequence[str] | None = None,
    baseline_path: Optional[Path] = None,
) -> tuple[CostRule, ...]:
    """Resolve ``--rule`` selections against the cost registry.

    ``baseline_path`` points REP305 at an explicit ``cost-baseline.json``
    (defaults to looking in the invocation directory).
    """
    registry = COST_RULES if baseline_path is None else tuple(
        BoundRegressionRule(baseline_path)
        if isinstance(rule, BoundRegressionRule) else rule
        for rule in COST_RULES
    )
    if not codes:
        return registry
    by_code = {r.code: r for r in registry}
    out = []
    for code in codes:
        rule = by_code.get(code.upper())
        if rule is None:
            raise AnalysisError(
                f"unknown cost rule {code!r}; have {', '.join(sorted(by_code))}"
            )
        out.append(rule)
    return tuple(out)


def _run_project(
    project: Project, rules: Sequence[CostRule]
) -> AnalysisReport:
    """Run cost rules over a built project, honouring noqa directives."""
    by_display: dict[str, FileReport] = {}
    noqa_by_display: dict[str, dict[int, dict[str, str]]] = {}
    for module in project.modules.values():
        by_display[module.display_path] = FileReport(path=module.display_path)
        noqa_by_display[module.display_path] = parse_noqa(module.lines)
    for rule in rules:
        for finding in rule.check_project(project):
            report = by_display[finding.path]
            directives = noqa_by_display[finding.path].get(finding.line)
            if directives is not None and (
                _NOQA_ALL in directives or finding.rule in directives
            ):
                reason = directives.get(
                    finding.rule, directives.get(_NOQA_ALL, "")
                )
                report.suppressed.append(Suppression(finding, reason))
            else:
                report.findings.append(finding)
    report_out = AnalysisReport()
    for file_report in by_display.values():
        file_report.findings.sort()
        report_out.files.append(file_report)
    return report_out


def analyze_cost(
    paths: Iterable[str | Path],
    rules: Sequence[CostRule] | None = None,
    project: Project | None = None,
) -> AnalysisReport:
    """Build the project model for ``paths`` and run the cost rules."""
    if project is None:
        project = load_project(paths)
    return _run_project(project, COST_RULES if rules is None else rules)


def analyze_cost_source(
    source: str,
    path: str,
    rules: Sequence[CostRule] | None = None,
) -> FileReport:
    """Cost-analyse one module given as text (the test-fixture entry).

    The module is its own one-file project, exactly like
    :func:`repro.analysis.protocol.analyze_protocol_source`.
    """
    project = Project.from_sources([(source, path, path)])
    report = _run_project(project, COST_RULES if rules is None else rules)
    for file_report in report.files:
        if file_report.path == path:
            return file_report
    return FileReport(path=path)  # pragma: no cover - defensive


def emit_costs(project: Project, out_dir: str | Path) -> list[Path]:
    """Write ``costs-<algo>.json`` per algorithm; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for algo, costs in sorted(derive_costs(project).items()):
        payload = dict(costs.to_dict())
        payload["cost_engine_version"] = COST_ENGINE_VERSION
        path = out / f"costs-{algo}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


def baseline_payload(project: Project) -> dict[str, object]:
    """The ``cost-baseline.json`` payload pinning every derived bound."""
    algorithms: dict[str, dict[str, object]] = {}
    for algo, costs in sorted(derive_costs(project).items()):
        algorithms[algo] = {
            name: {
                "expr": step.expr.to_dict(),
                "rendered": step.expr.render(),
            }
            for name, step in sorted(costs.steps.items())
        }
    return {
        "version": 1,
        "cost_engine_version": COST_ENGINE_VERSION,
        "algorithms": algorithms,
    }


def write_cost_baseline(project: Project, path: str | Path) -> Path:
    """Write the regression baseline REP305 compares against."""
    out = Path(path)
    out.write_text(
        json.dumps(baseline_payload(project), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out
