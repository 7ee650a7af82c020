"""``python -m repro lint`` — the CI gate for simulation invariants.

Exit codes (CI contract, tested):

* ``0`` — clean, or every finding is suppressed by ``# repro: noqa``;
* ``1`` — at least one finding;
* ``2`` — internal error (unreadable path, unparsable file, bad rule
  code), so infrastructure breakage can never be mistaken for a clean
  run.

``--deep`` additionally runs the flow-aware interprocedural rules
(REP101..REP105, :mod:`repro.analysis.flow`), ``--protocol`` the
communication-protocol rules (REP201..REP206,
:mod:`repro.analysis.protocol`) and ``--cost`` the symbolic I/O-cost
certifier (REP301..REP304 and REP306, :mod:`repro.analysis.cost`) on top
of the syntactic pass — same exit contract, same ``noqa`` machinery.
``--all`` enables every pass at once and produces one merged,
stably-sorted report with one combined exit code (the single-job CI
entry point).

``--emit-schema DIR`` writes the statically extracted per-step
communication schema of every known algorithm entry point as
``protocol-<name>.json`` (the input to ``repro audit --protocol``);
``--emit-costs DIR`` writes the derived symbolic per-step I/O bounds as
``costs-<name>.json`` (the input to ``repro audit --certify``).

Results are cached under ``.lint-cache/`` keyed by content sha256 +
engine version (:mod:`repro.analysis.cache`); ``--no-cache`` bypasses,
and the JSON report breaks the hit rate down per pass.

``--format json`` output is stable for tooling: fixed keys, findings
sorted by (path, line, rule), engine version keys, no timestamps or
absolute paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Sequence, TextIO, TypeVar

from repro.analysis.cache import (
    DEFAULT_CACHE_DIR,
    LintCache,
    cache_key,
    file_report_from_dict,
    file_report_to_dict,
    project_digest,
    report_from_dict,
    report_to_dict,
    rule_selection_token,
    source_digest,
)
from repro.analysis.cost import COST_ENGINE_VERSION, emit_costs
from repro.analysis.cost.rules import (
    DeadBoundRule,
    DerivedExceedsPaperRule,
    ExtraPassRule,
    UnboundedIORule,
    UnboundedLoopIORule,
)
from repro.analysis.engine import (
    ENGINE_VERSION,
    AnalysisError,
    AnalysisReport,
    FileReport,
    Finding,
    Rule,
    analyze_source,
    read_sources,
)
from repro.analysis.flow import (
    FLOW_ENGINE_VERSION,
    Project,
    project_from_sources,
    run_project,
)
from repro.analysis.flow.escape import CrossNodeEscapeRule
from repro.analysis.flow.phases import PhaseAttributionRule
from repro.analysis.flow.typestate import (
    HandleLeakRule,
    ReadNeverWrittenRule,
    UseAfterSealRule,
)
from repro.analysis.protocol import PROTOCOL_ENGINE_VERSION, emit_schemas
from repro.analysis.protocol.rules import (
    BarrierConsistencyRule,
    CollectiveInRankLoopRule,
    CollectiveOrderRule,
    DegradedViewRankRule,
    RootMismatchRule,
    SelfSendRule,
)
from repro.analysis.rules import (
    InCoreSortRule,
    MagicBlockSizeRule,
    MemoryBypassRule,
    NodeIsolationRule,
    NondeterminismRule,
    RawHostIORule,
    SharedMutableStateRule,
    SwallowedFaultRule,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse (default: the repro package)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="REPxxx",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the flow-aware interprocedural rules (REP101..REP105)",
    )
    parser.add_argument(
        "--protocol",
        action="store_true",
        help="also run the communication-protocol rules (REP201..REP206)",
    )
    parser.add_argument(
        "--cost",
        action="store_true",
        help="also run the symbolic I/O-cost certifier (REP301..REP306)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        dest="all_passes",
        help="run every pass (shallow + --deep + --protocol + --cost) "
        "as one merged report with one exit code",
    )
    parser.add_argument(
        "--emit-schema",
        default=None,
        metavar="DIR",
        help="write per-algorithm protocol schemas (protocol-<name>.json) "
        "extracted from the analysed sources into DIR",
    )
    parser.add_argument(
        "--emit-costs",
        default=None,
        metavar="DIR",
        help="write per-algorithm derived I/O-cost bounds "
        "(costs-<name>.json) into DIR",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"bypass the incremental result cache ({DEFAULT_CACHE_DIR}/)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="location of the incremental result cache",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is stable for tooling)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by # repro: noqa, with reasons",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _default_paths() -> list[str]:
    import repro

    return [str(Path(repro.__file__).parent)]


# -- the pass table ------------------------------------------------------------


@dataclass(frozen=True)
class Pass:
    """One lint pass: a group of rules sharing an engine and a granularity.

    ``name`` is the cache namespace, the ``--list-rules`` tag and the
    argparse dest of ``flag`` (None = always on); ``version_key`` /
    ``version`` are the engine-version entry of the JSON report and of
    every cache key.  A ``per_file`` pass analyses and caches one module
    at a time; the others see the whole :class:`Project` and cache by its
    digest.
    """

    name: str
    flag: str | None
    label: str
    version_key: str
    version: str
    rules: tuple[Rule, ...]
    per_file: bool = False


#: Every lint pass and every rule, in code order — the one registry
#: ``run_lint``, ``--list-rules``, ``--rule`` and the tests read.
PASSES: tuple[Pass, ...] = (
    Pass(
        "shallow", None, "syntactic", "engine_version", ENGINE_VERSION,
        (
            RawHostIORule(),
            InCoreSortRule(),
            NondeterminismRule(),
            MagicBlockSizeRule(),
            NodeIsolationRule(),
            MemoryBypassRule(),
            SwallowedFaultRule(),
            SharedMutableStateRule(),
        ),
        per_file=True,
    ),
    Pass(
        "deep", "--deep", "flow-aware deep", "flow_engine_version",
        FLOW_ENGINE_VERSION,
        (
            HandleLeakRule(),
            UseAfterSealRule(),
            ReadNeverWrittenRule(),
            CrossNodeEscapeRule(),
            PhaseAttributionRule(),
        ),
    ),
    Pass(
        "protocol", "--protocol", "protocol", "protocol_engine_version",
        PROTOCOL_ENGINE_VERSION,
        (
            CollectiveOrderRule(),
            RootMismatchRule(),
            SelfSendRule(),
            CollectiveInRankLoopRule(),
            BarrierConsistencyRule(),
            DegradedViewRankRule(),
        ),
    ),
    Pass(
        "cost", "--cost", "I/O-cost", "cost_engine_version", COST_ENGINE_VERSION,
        (
            DerivedExceedsPaperRule(),
            UnboundedIORule(),
            ExtraPassRule(),
            UnboundedLoopIORule(),
            DeadBoundRule(),
        ),
    ),
)


def select(
    codes: Sequence[str] | None, enabled: Collection[str]
) -> dict[str, tuple[Rule, ...]]:
    """Resolve a ``--rule`` selection to the rules each pass should run.

    With no ``codes`` every enabled pass runs all of its rules; otherwise
    each code (case-insensitive) picks one rule, which must exist and
    belong to an enabled pass.  A pass mapped to ``()`` is skipped.
    """
    if not codes:
        return {p.name: p.rules if p.name in enabled else () for p in PASSES}
    by_code = {r.code: (p, r) for p in PASSES for r in p.rules}
    picked: dict[str, list[Rule]] = {p.name: [] for p in PASSES}
    for code in codes:
        if code.upper() not in by_code:
            raise AnalysisError(
                f"unknown rule {code!r}; have {', '.join(by_code)}"
            )
        p, rule = by_code[code.upper()]
        picked[p.name].append(rule)
    for p in PASSES:
        if picked[p.name] and p.name not in enabled:
            listed = ", ".join(sorted(r.code for r in picked[p.name]))
            raise AnalysisError(
                f"rule(s) {listed} are {p.label} rules; "
                f"pass {p.flag} to enable them"
            )
    return {name: tuple(rules) for name, rules in picked.items()}


def _list_rules(out: TextIO) -> None:
    for p in PASSES:
        tag = f" [{p.name}]" if p.flag else ""
        for rule in p.rules:
            scope = ", ".join(rule.scope) if rule.scope else "whole package"
            out.write(f"{rule.code} {rule.name}{tag}: {rule.summary}\n")
            out.write(f"    scope: {scope}\n")
            if rule.exempt:
                out.write(f"    exempt: {', '.join(rule.exempt)}\n")
            out.write(f"    fix: {rule.fix_hint}\n")


def _merge_reports(
    shallow: AnalysisReport, extra: AnalysisReport
) -> AnalysisReport:
    """Fold a later pass into the base report, keyed by display path.

    All passes walk the same files, so file counts must not double;
    findings for the same file are combined and re-sorted.
    """
    by_path: dict[str, FileReport] = {fr.path: fr for fr in shallow.files}
    for fr in extra.files:
        base = by_path.get(fr.path)
        if base is None:
            by_path[fr.path] = fr
            shallow.files.append(fr)
        else:
            base.findings.extend(fr.findings)
            base.findings.sort()
            base.suppressed.extend(fr.suppressed)
    return shallow


# -- cached pass execution ---------------------------------------------------

_T = TypeVar("_T")


def _cached(
    cache: LintCache | None,
    pass_name: str,
    key: str,
    compute: Callable[[], _T],
    to_dict: Callable[[_T], dict[str, object]],
    from_dict: Callable[[dict[str, object]], _T],
) -> _T:
    """``compute()`` through the cache: replay a hit, store a miss."""
    if cache is not None:
        hit = cache.get(key, pass_name)
        if hit is not None:
            return from_dict(hit)
    value = compute()
    if cache is not None:
        cache.put(key, to_dict(value))
    return value


def _run_per_file(
    p: Pass,
    rules: Sequence[Rule],
    token: str,
    sources: Sequence[tuple[Path, str]],
    cache: LintCache | None,
) -> AnalysisReport:
    """A per-module pass: every file analysed and cached on its own."""
    report = AnalysisReport()
    for path, source in sources:
        display = path.as_posix()
        report.files.append(_cached(
            cache, p.name,
            cache_key(p.name, p.version, token, display, source_digest(source)),
            lambda: analyze_source(source, str(path), rules, display_path=display),
            file_report_to_dict, file_report_from_dict,
        ))
    return report


def _run_whole_project(
    p: Pass,
    rules: Sequence[Rule],
    token: str,
    cache: LintCache | None,
    project: Callable[[], Project],
    digest: Callable[[], str],
) -> AnalysisReport:
    """An interprocedural pass: one entry keyed by the project digest; the
    model itself is only asked for on a miss."""
    return _cached(
        cache, p.name,
        # the empty last part keeps the keys older checkouts wrote valid
        cache_key(p.name, p.version, token, digest(), ""),
        lambda: run_project(project(), rules),
        report_to_dict, report_from_dict,
    )


# -- rendering ---------------------------------------------------------------


def _render_text(
    out: TextIO, report: AnalysisReport, show_suppressed: bool
) -> None:
    findings = report.findings
    for f in findings:
        out.write(f.render() + "\n")
    if show_suppressed:
        for s in report.suppressed:
            reason = f" ({s.reason})" if s.reason else ""
            out.write(f"{s.finding.render()} [suppressed: noqa{reason}]\n")
    out.write(
        f"{len(findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.files)} file(s) analysed\n"
    )


def _finding_order(f: Finding) -> tuple[str, int, str, int]:
    """Stable JSON ordering contract: (path, line, rule), then column."""
    return (f.path, f.line, f.rule, f.col)


def _render_json(
    out: TextIO,
    report: AnalysisReport,
    enabled: Collection[str],
    cache: LintCache | None,
) -> None:
    findings = report.findings
    payload = {
        "version": 2,
        **{p.version_key: p.version if p.name in enabled else None for p in PASSES},
        "findings": [f.to_dict() for f in sorted(findings, key=_finding_order)],
        "suppressed": [
            {**s.finding.to_dict(), "reason": s.reason}
            for s in sorted(report.suppressed, key=lambda s: _finding_order(s.finding))
        ],
        "summary": {
            "files": len(report.files),
            "findings": len(findings),
            "suppressed": len(report.suppressed),
        },
        "cache": cache.stats.to_dict() if cache is not None else None,
    }
    out.write(json.dumps(payload, indent=2) + "\n")


def run_lint(
    args: argparse.Namespace,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Execute the lint command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if args.list_rules:
            _list_rules(out)
            return EXIT_CLEAN
        enabled = {
            p.name for p in PASSES
            if p.flag is None or args.all_passes or getattr(args, p.name)
        }
        selected = select(args.rule, enabled)
        # keep stdout pure JSON for tooling; notices go to stderr
        notice_out = err if args.format == "json" else out
        cache = None if args.no_cache else LintCache(Path(args.cache_dir))
        sources = read_sources(args.paths or _default_paths())

        # one model and one digest for every whole-project consumer, built
        # on first use: a fully cached run never pays for the call graph
        project = functools.cache(lambda: project_from_sources(sources))
        digest = functools.cache(
            lambda: project_digest([(p.as_posix(), s) for p, s in sources])
        )

        report = AnalysisReport()
        for p in PASSES:
            rules = selected[p.name]
            if not rules:
                continue  # pass disabled, or filtered out by --rule
            token = rule_selection_token(
                [r.code for r in rules] if args.rule else None
            )
            if p.per_file:
                part = _run_per_file(p, rules, token, sources, cache)
            else:
                part = _run_whole_project(p, rules, token, cache, project, digest)
            report = _merge_reports(report, part)

        for directory, what, emit in (
            (args.emit_schema, "schema", emit_schemas),
            (args.emit_costs, "costs", emit_costs),
        ):
            if directory is not None:
                for path in emit(project(), directory):
                    notice_out.write(f"wrote {what} {path.as_posix()}\n")

        if args.format == "json":
            _render_json(out, report, enabled, cache)
        else:
            _render_text(out, report, args.show_suppressed)
        return EXIT_FINDINGS if report.findings else EXIT_CLEAN
    except AnalysisError as exc:
        err.write(f"repro lint: internal error: {exc}\n")
        return EXIT_INTERNAL_ERROR
    except Exception as exc:  # CI contract: never report breakage as findings
        err.write(f"repro lint: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "simulation-invariant linter (REP001..REP008; "
            "--deep adds flow-aware REP101..REP105; "
            "--protocol adds communication rules REP201..REP206; "
            "--cost adds I/O-cost certification REP301..REP306; "
            "--all runs every pass)"
        ),
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
