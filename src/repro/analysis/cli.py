"""``python -m repro lint`` — the CI gate for simulation invariants.

Exit codes (CI contract, tested):

* ``0`` — clean, or every finding is suppressed/baselined;
* ``1`` — at least one *new* finding;
* ``2`` — internal error (unreadable path, unparsable file, bad rule
  code, malformed baseline), so infrastructure breakage can never be
  mistaken for a clean run.

``--deep`` additionally runs the flow-aware interprocedural rules
(REP101..REP105, :mod:`repro.analysis.flow`), ``--protocol`` the
communication-protocol rules (REP201..REP206,
:mod:`repro.analysis.protocol`) and ``--cost`` the symbolic I/O-cost
certifier (REP301..REP306, :mod:`repro.analysis.cost`) on top of the
syntactic pass — same exit contract, same noqa/baseline machinery; all
findings fingerprint identically, so one baseline file covers every
pass.  ``--all`` enables every pass at once and produces one merged,
stably-sorted report with one combined exit code (the single-job CI
entry point).

``--emit-schema DIR`` writes the statically extracted per-step
communication schema of every known algorithm entry point as
``protocol-<name>.json`` (the input to ``repro audit --protocol``);
``--emit-costs DIR`` writes the derived symbolic per-step I/O bounds as
``costs-<name>.json`` (the input to ``repro audit --certify``);
``--write-cost-baseline`` pins the derived expressions into
``cost-baseline.json`` (the REP305 regression reference).

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

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline, fingerprint
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
from repro.analysis.cost import (
    COST_BASELINE_NAME,
    COST_ENGINE_VERSION,
    emit_costs,
    write_cost_baseline,
)
from repro.analysis.cost.rules import (
    COST_BASELINE_KEY,
    BoundRegressionRule,
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
        "--cost-baseline",
        default=None,
        metavar="FILE",
        help=f"cost-regression baseline REP305 compares against "
        f"(default: ./{COST_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--write-cost-baseline",
        action="store_true",
        help=f"pin the currently derived bounds into {COST_BASELINE_NAME} "
        "(then continue linting)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file of grandfathered findings "
        f"(default: ./{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
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


def _resolve_file(explicit: str | None, name: str) -> Path | None:
    """``explicit`` if given, else ``name`` in the cwd, else beside the
    source checkout, else None."""
    if explicit is not None:
        return Path(explicit)
    import repro

    for candidate in (Path(name), Path(repro.__file__).parent.parent.parent / name):
        if candidate.is_file():
            return candidate
    return None


# -- the pass table ------------------------------------------------------------


@dataclass(frozen=True)
class Pass:
    """One lint pass: a group of rules sharing an engine and a granularity.

    ``name`` is the cache namespace, the ``--list-rules`` tag and the
    argparse dest of ``flag`` (None = always on); ``version_key`` /
    ``version`` are the engine-version entry of the JSON report and of
    every cache key.  A ``per_file`` pass analyses and caches one module
    at a time; the others see the whole :class:`Project` and cache by its
    digest — plus, when ``baseline`` names a ``(file, project.cache
    slot)`` pair, the digest of that file, whose parsed content the rules
    read from the slot.
    """

    name: str
    flag: str | None
    label: str
    version_key: str
    version: str
    rules: tuple[Rule, ...]
    per_file: bool = False
    baseline: tuple[str, str] | None = None


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
            BoundRegressionRule(),
            DeadBoundRule(),
        ),
        baseline=(COST_BASELINE_NAME, COST_BASELINE_KEY),
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
    cost_baseline: str | None,
) -> AnalysisReport:
    """An interprocedural pass: one entry keyed by the project digest; the
    model itself is only asked for on a miss."""
    extra_key, inject = _baseline_input(p.baseline, cost_baseline)

    def compute() -> AnalysisReport:
        project().cache.update(inject)
        return run_project(project(), rules)

    return _cached(
        cache, p.name,
        cache_key(p.name, p.version, token, digest(), extra_key),
        compute, report_to_dict, report_from_dict,
    )


def _baseline_input(
    baseline: tuple[str, str] | None, explicit: str | None
) -> tuple[str, dict[str, object]]:
    """A pass's baseline file as (cache-key part, ``project.cache`` entry).

    The pass's findings depend on that file's content as much as on the
    sources, so its digest is part of the key; the rules get the parsed
    payload (None when it is not JSON: nothing to compare against).
    """
    if baseline is None:
        return "", {}
    name, cache_slot = baseline
    path = _resolve_file(explicit, name)
    if path is None:
        return "no-cost-baseline", {}
    if not path.is_file():
        raise AnalysisError(f"{path}: cost baseline file not found")
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    return source_digest(text), {cache_slot: payload}


# -- rendering ---------------------------------------------------------------


def _render_text(
    out: TextIO,
    new: list[Finding],
    baselined: list[Finding],
    report: AnalysisReport,
    show_suppressed: bool,
) -> None:
    for f in new:
        out.write(f.render() + "\n")
    if show_suppressed:
        for s in report.suppressed:
            reason = f" ({s.reason})" if s.reason else ""
            out.write(f"{s.finding.render()} [suppressed: noqa{reason}]\n")
    out.write(
        f"{len(new)} finding(s), {len(baselined)} baselined, "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.files)} file(s) analysed\n"
    )


def _finding_order(f: Finding) -> tuple[str, int, str, int]:
    """Stable JSON ordering contract: (path, line, rule), then column."""
    return (f.path, f.line, f.rule, f.col)


def _render_json(
    out: TextIO,
    new: list[Finding],
    baselined: list[Finding],
    report: AnalysisReport,
    enabled: Collection[str],
    cache: LintCache | None,
) -> None:
    payload = {
        "version": 1,
        **{p.version_key: p.version if p.name in enabled else None for p in PASSES},
        "findings": [
            {**f.to_dict(), "fingerprint": fingerprint(f)}
            for f in sorted(new, key=_finding_order)
        ],
        "baselined": [
            {**f.to_dict(), "fingerprint": fingerprint(f)}
            for f in sorted(baselined, key=_finding_order)
        ],
        "suppressed": [
            {**s.finding.to_dict(), "reason": s.reason}
            for s in sorted(report.suppressed, key=lambda s: _finding_order(s.finding))
        ],
        "summary": {
            "files": len(report.files),
            "findings": len(new),
            "baselined": len(baselined),
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

        if args.write_cost_baseline:
            # pin first so the same invocation lints against the fresh pin
            target = write_cost_baseline(
                project(), Path(args.cost_baseline or COST_BASELINE_NAME)
            )
            notice_out.write(f"wrote cost baseline {target.as_posix()}\n")

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
                part = _run_whole_project(
                    p, rules, token, cache, project, digest, args.cost_baseline
                )
            report = _merge_reports(report, part)

        for directory, what, emit in (
            (args.emit_schema, "schema", emit_schemas),
            (args.emit_costs, "costs", emit_costs),
        ):
            if directory is not None:
                for path in emit(project(), directory):
                    notice_out.write(f"wrote {what} {path.as_posix()}\n")
        findings = report.findings

        baseline_path = (
            None if args.no_baseline
            else _resolve_file(args.baseline, DEFAULT_BASELINE_NAME)
        )
        if args.write_baseline:
            target = baseline_path if baseline_path is not None else Path(
                DEFAULT_BASELINE_NAME
            )
            Baseline.write(target, findings)
            out.write(
                f"wrote {len(findings)} finding(s) to baseline {target}\n"
            )
            return EXIT_CLEAN

        if baseline_path is not None:
            if not baseline_path.is_file():
                raise AnalysisError(f"{baseline_path}: baseline file not found")
            new, baselined = Baseline.load(baseline_path).split(findings)
        else:
            new, baselined = findings, []

        if args.format == "json":
            _render_json(out, new, baselined, report, enabled, cache)
        else:
            _render_text(out, new, baselined, report, args.show_suppressed)
        return EXIT_FINDINGS if new else EXIT_CLEAN
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
