"""Flow-aware interprocedural analysis: the deep rules REP101..REP105.

Where :mod:`repro.analysis.rules` judges one statement at a time, this
subpackage builds a package-wide model (:mod:`.project`: call graph,
import resolution, step-context attribution), runs an intra-procedural
alias/typestate interpretation over every function (:mod:`.intra`), and
derives five rules from it:

=======  ====================  ==============================================
code     name                  invariant
=======  ====================  ==============================================
REP101   handle-leak           every BlockWriter is definitely closed
REP102   use-after-seal        no write/close on a sealed writer
REP103   read-never-written    no read of a provably-empty BlockFile
REP104   cross-node-escape     SimComm receiver copies are actually used
REP105   unattributed-io       charged I/O is reachable only under step(...)
=======  ====================  ==============================================

Entry points: :func:`run_project`, the whole-project rule runner every
interprocedural pass (``repro lint --deep`` / ``--protocol`` / ``--cost``)
goes through, and :func:`analyze_project_source`, the same over one module
given as text (the rule-fixture entry).  The rules themselves are
registered in the pass table of :mod:`repro.analysis.cli`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import (
    AnalysisReport,
    FileReport,
    Rule,
    file_finding,
    parse_noqa,
    read_sources,
)
from repro.analysis.flow.intra import TypestateInterpreter
from repro.analysis.flow.project import Project
from repro.analysis.flow.typestate import DeepRule

#: version of the flow (deep) engine, reported in the JSON payload
FLOW_ENGINE_VERSION = "1.0"

__all__ = [
    "FLOW_ENGINE_VERSION",
    "DeepRule",
    "Project",
    "TypestateInterpreter",
    "analyze_project_source",
    "load_project",
    "project_from_sources",
    "run_project",
]


def load_project(paths: Iterable[str | Path]) -> Project:
    """Parse every ``.py`` file under ``paths`` into one :class:`Project`."""
    return project_from_sources(read_sources(paths))


def project_from_sources(sources: Iterable[tuple[Path, str]]) -> Project:
    """One :class:`Project` from already-read ``(path, source)`` pairs."""
    return Project.from_sources(
        (source, str(path), path.as_posix()) for path, source in sources
    )


def run_project(project: Project, rules: Sequence[Rule]) -> AnalysisReport:
    """Run ``rules`` over a built project, honouring noqa directives."""
    by_display = {
        module.display_path: (FileReport(path=module.display_path),
                              parse_noqa(module.lines))
        for module in project.modules.values()
    }
    for rule in rules:
        for finding in rule.check_project(project):
            file_report, noqa = by_display[finding.path]
            file_finding(file_report, noqa, finding)
    report = AnalysisReport()
    for file_report, _ in by_display.values():
        file_report.findings.sort()
        report.files.append(file_report)
    return report


def analyze_project_source(
    source: str, path: str, rules: Sequence[Rule]
) -> FileReport:
    """Run ``rules`` over one module given as text (the test-fixture entry).

    The module is its own one-file project: imports into the rest of the
    package resolve to nothing, so interprocedural facts are local — which
    is exactly what rule fixtures want.
    """
    project = Project.from_sources([(source, path, path)])
    (file_report,) = run_project(project, rules).files
    return file_report
