"""Static analysis + runtime sanitizers guarding the simulation invariants.

Two complementary halves (see ``docs/ANALYSIS.md``):

* the **linter** (:mod:`repro.analysis.engine`, CLI ``python -m repro
  lint``) — AST passes codifying the REP rules over ``src/repro``; the
  pass table, every rule instance and the runner live in
  :mod:`repro.analysis.cli`, which this package does not import (the
  simulator reaches here for the sanitizers only);
* the **sanitizers** (:mod:`repro.analysis.sanitizers`) — opt-in
  dynamic cross-checks the accounting surfaces (SimDisk,
  MemoryManager, Network, BlockFile) consult when installed.
"""

from repro.analysis.baseline import Baseline, fingerprint
from repro.analysis.engine import (
    AnalysisError,
    AnalysisReport,
    FileReport,
    Finding,
    ModuleContext,
    Rule,
    Suppression,
    analyze_source,
    package_relpath,
    parse_noqa,
)
from repro.analysis.sanitizers import (
    RuntimeSanitizer,
    SanitizerConfig,
    SanitizerError,
    SanitizerStats,
    active_sanitizer,
    install_sanitizers,
    sanitized,
    uninstall_sanitizers,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Baseline",
    "FileReport",
    "Finding",
    "ModuleContext",
    "Rule",
    "RuntimeSanitizer",
    "SanitizerConfig",
    "SanitizerError",
    "SanitizerStats",
    "Suppression",
    "active_sanitizer",
    "analyze_source",
    "fingerprint",
    "install_sanitizers",
    "package_relpath",
    "parse_noqa",
    "sanitized",
    "uninstall_sanitizers",
]
