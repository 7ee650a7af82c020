"""Incremental lint cache: skip re-analysing unchanged modules.

Results are keyed by content, never by timestamp: a cache entry's key is
the sha256 of the analysed source (plus the engine version and the rule
selection), so a stale hit is impossible — editing a file changes its
key, upgrading an engine changes every key.

Two granularities, matching the ``per_file`` column of the pass table
(:data:`repro.analysis.cli.PASSES`):

* a **per-file** pass (shallow, REP001..REP008) is strictly per-module,
  so each file caches independently — editing one module re-analyses one
  module.  Key: pass name, engine version, rule selection, display path,
  source digest;
* a **whole-project** pass (deep REP101..REP105, protocol
  REP201..REP206, cost REP301..REP306) is interprocedural: a finding in
  module A can depend on module B's source, so its key carries the digest
  of the *whole* file set instead.  It hits only when nothing changed —
  which is still the common case in CI re-runs and pre-commit loops, and
  a run that hits on every pass never builds the call graph.

Entries live under ``.lint-cache/`` (git-ignored) as small JSON files,
written atomically.  ``repro lint --no-cache`` bypasses the cache, and
the JSON report carries a ``cache: {hits, misses, hit_rate}`` line so CI
can track the hit rate.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import (
    AnalysisReport,
    FileReport,
    Finding,
    Suppression,
)

#: default cache directory, relative to the invocation cwd
DEFAULT_CACHE_DIR = ".lint-cache"

#: bump to invalidate every entry on cache-format changes
CACHE_FORMAT = "1"


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cache_key(*parts: str) -> str:
    """Stable key from ordered string parts (NUL-joined, sha256)."""
    blob = "\x00".join((CACHE_FORMAT, *parts))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def project_digest(files: Sequence[tuple[str, str]]) -> str:
    """Digest of a whole file set: ``(display_path, source)`` pairs."""
    h = hashlib.sha256()
    for display, source in sorted(files):
        h.update(display.encode("utf-8"))
        h.update(b"\x00")
        h.update(source_digest(source).encode("ascii"))
        h.update(b"\x01")
    return h.hexdigest()


def rule_selection_token(codes: Sequence[str] | None) -> str:
    """Canonical token for a ``--rule`` selection (``*`` = all rules)."""
    if not codes:
        return "*"
    return ",".join(sorted(c.upper() for c in codes))


# -- FileReport (de)serialisation -------------------------------------------


def _finding_to_dict(f: Finding) -> dict[str, object]:
    return {
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "rule": f.rule,
        "message": f.message,
        "snippet": f.snippet,
    }


def _finding_from_dict(d: dict[str, object]) -> Finding:
    return Finding(
        path=str(d["path"]),
        line=int(d["line"]),  # type: ignore[arg-type]
        col=int(d["col"]),  # type: ignore[arg-type]
        rule=str(d["rule"]),
        message=str(d["message"]),
        snippet=str(d["snippet"]),
    )


def file_report_to_dict(fr: FileReport) -> dict[str, object]:
    return {
        "path": fr.path,
        "findings": [_finding_to_dict(f) for f in fr.findings],
        "suppressed": [
            {"finding": _finding_to_dict(s.finding), "reason": s.reason}
            for s in fr.suppressed
        ],
    }


def file_report_from_dict(d: dict[str, object]) -> FileReport:
    fr = FileReport(path=str(d["path"]))
    fr.findings = [_finding_from_dict(x) for x in d.get("findings", [])]  # type: ignore[union-attr]
    fr.suppressed = [
        Suppression(_finding_from_dict(x["finding"]), str(x["reason"]))
        for x in d.get("suppressed", [])  # type: ignore[union-attr]
    ]
    return fr


def report_to_dict(report: AnalysisReport) -> dict[str, object]:
    return {"files": [file_report_to_dict(fr) for fr in report.files]}


def report_from_dict(d: dict[str, object]) -> AnalysisReport:
    report = AnalysisReport()
    report.files = [file_report_from_dict(x) for x in d.get("files", [])]  # type: ignore[union-attr]
    return report


# -- the cache proper --------------------------------------------------------


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    #: per-pass breakdown (``shallow``/``deep``/``protocol``/``cost``),
    #: populated when callers pass ``pass_name`` to get/put
    passes: dict[str, "CacheStats"] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def record(self, hit: bool, pass_name: Optional[str] = None) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if pass_name is not None:
            sub = self.passes.setdefault(pass_name, CacheStats())
            if hit:
                sub.hits += 1
            else:
                sub.misses += 1

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.passes:
            out["passes"] = {
                name: sub.to_dict()
                for name, sub in sorted(self.passes.items())
            }
        return out


@dataclass
class LintCache:
    """Content-addressed JSON store under ``root`` with hit/miss stats.

    All I/O failures degrade to cache misses (a broken cache must never
    break the lint run); writes are atomic (tmp + rename).
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, key: str, pass_name: Optional[str] = None
    ) -> Optional[dict[str, object]]:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.record(False, pass_name)
            return None
        self.stats.record(True, pass_name)
        return payload  # type: ignore[no-any-return]

    def put(self, key: str, payload: dict[str, object]) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except OSError:
            pass  # a read-only cache directory is not an error
