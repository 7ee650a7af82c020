"""AST-based static-analysis engine for simulation invariants.

The cost model is only trustworthy if every byte moved is charged to the
accounting surfaces (:class:`~repro.pdm.disk.SimDisk`,
:class:`~repro.pdm.memory.MemoryManager`,
:class:`~repro.cluster.network.Network`) and runs are deterministic.
This module is the mechanical half of that guarantee: it parses every
module under ``src/repro`` and hands the tree to a set of
:class:`Rule` objects (REP001..REP008, see :mod:`repro.analysis.rules`)
that codify the invariants as syntax patterns.

Design
------
* :class:`Finding` — one diagnostic: rule code, location, message and
  the stripped source line (the *snippet*, also used for baseline
  fingerprints that survive line-number drift).
* :class:`Rule` — the protocol every check implements: class-level
  metadata (``code``, ``name``, ``rationale``, ``fix_hint``, path
  ``scope`` / ``exempt``) plus ``check(ctx)`` yielding findings — or,
  for the interprocedural rules, ``check_project(project)``.
* :class:`ModuleContext` — parsed tree + source lines + the
  package-relative path, with helpers for building findings.
* ``# repro: noqa`` — the inline escape hatch.  A bare ``noqa``
  suppresses every rule on that line; ``# repro: noqa REP002(charged
  via compute), REP003(...)`` suppresses the named codes and records
  the parenthesised reasons (reported by ``--show-suppressed``).

Suppression is matched against the *first* physical line of the node a
finding is attached to (``node.lineno``), which is where a human
reading the code expects the annotation; :func:`file_finding` is the one
place that match is made, for every pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.analysis.flow.project import Project


#: Version of the analysis engine, reported in the stable JSON payload.
#: Bumped when rules, fingerprints, or output semantics change.
ENGINE_VERSION = "2.0"


class AnalysisError(RuntimeError):
    """Internal analysis failure (unreadable file, syntax error, bad
    configuration) — mapped to exit code 2 by the CLI, never 1."""


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class Suppression:
    """A finding silenced by an inline ``# repro: noqa`` comment."""

    finding: Finding
    reason: str


# --------------------------------------------------------------------------
# noqa parsing
# --------------------------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b(?P<rest>[^#\r\n]*)")
_CODE_RE = re.compile(r"(?P<code>REP\d{3})\s*(?:\((?P<reason>[^)]*)\))?")

#: Sentinel meaning "every rule" for a bare ``# repro: noqa``.
ALL_RULES = "*"


def parse_noqa(lines: Sequence[str]) -> dict[int, dict[str, str]]:
    """Map 1-based line numbers to ``{code: reason}`` suppressions.

    A bare ``# repro: noqa`` maps to ``{ALL_RULES: ""}``.
    """
    out: dict[int, dict[str, str]] = {}
    for i, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        m = _NOQA_RE.search(text)
        if m is None:
            continue
        codes = {
            c.group("code"): (c.group("reason") or "").strip()
            for c in _CODE_RE.finditer(m.group("rest"))
        }
        out[i] = codes if codes else {ALL_RULES: ""}
    return out


# --------------------------------------------------------------------------
# Module context
# --------------------------------------------------------------------------


def package_relpath(path: str) -> str:
    """Normalise ``path`` to a posix path relative to the ``repro`` package.

    ``src/repro/core/x.py`` and ``/abs/src/repro/core/x.py`` both become
    ``core/x.py``; paths that never mention ``repro`` are taken to be
    package-relative already (used by the test fixtures).
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        rel = parts[idx + 1 :]
        if rel:
            return str(PurePosixPath(*rel))
    return str(PurePosixPath(Path(path).as_posix()))


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str  # package-relative posix path ("core/sampling.py")
    tree: ast.Module
    lines: Sequence[str]
    display_path: str = ""  # path as given on the command line

    def __post_init__(self) -> None:
        if not self.display_path:
            self.display_path = self.path

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.display_path,
            line=line,
            col=col + 1,
            rule=rule.code,
            message=message,
            snippet=self.source_line(line),
        )


# --------------------------------------------------------------------------
# Rule protocol
# --------------------------------------------------------------------------


class Rule:
    """Base class / protocol for one codified invariant.

    Subclasses set the class-level metadata and implement :meth:`check`
    (one module at a time) or :meth:`check_project` (the whole package).
    ``scope`` restricts the rule to package-relative path prefixes
    (empty = the whole package); ``exempt`` lists sanctioned modules the
    rule never fires in — an entry ending in ``/`` exempts the whole
    directory (documented per rule in ``docs/ANALYSIS.md``).
    """

    code: ClassVar[str] = "REP000"
    name: ClassVar[str] = "base"
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    fix_hint: ClassVar[str] = ""
    scope: ClassVar[tuple[str, ...]] = ()
    exempt: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, relpath: str) -> bool:
        for entry in self.exempt:
            if entry.endswith("/"):
                if relpath.startswith(entry):  # directory exemption
                    return False
            elif relpath == entry:
                return False
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Check a whole project: by default, module by module.  Rules that
        need the call graph (:class:`~repro.analysis.flow.typestate.DeepRule`)
        override this instead of :meth:`check`."""
        for module in project.modules.values():
            if self.applies_to(module.relpath):
                yield from self.check(module.context())


# --------------------------------------------------------------------------
# Analysis driver
# --------------------------------------------------------------------------


@dataclass
class FileReport:
    """Per-module analysis result."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Suppression] = field(default_factory=list)


@dataclass
class AnalysisReport:
    """Aggregate result over a set of modules."""

    files: list[FileReport] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        out = [f for fr in self.files for f in fr.findings]
        out.sort()
        return out

    @property
    def suppressed(self) -> list[Suppression]:
        return [s for fr in self.files for s in fr.suppressed]


def file_finding(
    report: FileReport, noqa: dict[int, dict[str, str]], finding: Finding
) -> None:
    """Record ``finding`` in ``report``: suppressed when its line carries a
    matching ``# repro: noqa`` directive, reported otherwise."""
    directives = noqa.get(finding.line)
    if directives is not None and (
        ALL_RULES in directives or finding.rule in directives
    ):
        reason = directives.get(finding.rule, directives.get(ALL_RULES, ""))
        report.suppressed.append(Suppression(finding, reason))
    else:
        report.findings.append(finding)


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    display_path: str | None = None,
) -> FileReport:
    """Run per-module ``rules`` over one module's source text.

    ``path`` is used for scope matching (normalised with
    :func:`package_relpath`); ``display_path`` is what findings report
    (defaults to ``path`` as given).
    """
    relpath = package_relpath(path)
    shown = display_path if display_path is not None else path
    try:
        tree = ast.parse(source, filename=shown)
    except SyntaxError as exc:
        raise AnalysisError(f"{shown}: cannot parse: {exc}") from exc
    lines = source.splitlines()
    ctx = ModuleContext(path=relpath, tree=tree, lines=lines, display_path=shown)
    noqa = parse_noqa(lines)
    report = FileReport(path=shown)
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for finding in rule.check(ctx):
            file_finding(report, noqa, finding)
    report.findings.sort()
    return report


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories to a sorted stream of ``.py`` files."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.is_file():
            yield p
        else:
            raise AnalysisError(f"{p}: no such file or directory")


def read_sources(paths: Iterable[str | Path]) -> list[tuple[Path, str]]:
    """``(path, source text)`` of every ``.py`` file under ``paths``."""
    out = []
    for p in iter_python_files(paths):
        try:
            out.append((p, p.read_text(encoding="utf-8")))
        except OSError as exc:
            raise AnalysisError(f"{p}: cannot read: {exc}") from exc
    return out
