"""Symbolic I/O-cost certification: the rules REP301..REP304 and REP306.

Layered on the flow engine's project model
(:mod:`repro.analysis.flow.project`), this subpackage abstract-interprets
each registered algorithm entry point into symbolic per-(step, node)
I/O bounds (:mod:`.interp`, over the algebra of :mod:`repro.pdm.sym` and the
contract base of :mod:`.charges`) and derives five rules from it
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
REP305   (retired, code not reused)
REP306   dead-bound                        every formula backed by a real
                                           charge site
=======  ================================  ===============================

The rules run through the whole-project runner
(:func:`repro.analysis.flow.run_project`) as the ``cost`` row of the pass
table in :mod:`repro.analysis.cli`.  Entry points here:
:func:`emit_costs` (the ``--emit-costs`` per-algorithm JSON, pinned by
``tests/data/emitted_artifacts_golden.json``) and the dynamic closing of
the loop in :mod:`.certify` (``repro audit --certify``: measured <=
derived <= paper).
"""

from __future__ import annotations

import json
from pathlib import Path

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
from repro.analysis.cost.rules import CostRule

#: version of the cost engine, reported in the JSON payload and keyed
#: into the whole-project lint cache
COST_ENGINE_VERSION = "1.0"

__all__ = [
    "COST_ENGINE_VERSION",
    "AlgorithmCosts",
    "CertifyCaseResult",
    "CostInterpreter",
    "CostRule",
    "StepCost",
    "certify_bench",
    "certify_cells",
    "certify_corpus",
    "certify_events",
    "derive_costs",
    "emit_costs",
    "static_step_exprs",
]


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
