"""The paper's step formulas, in the certifier's symbolic algebra.

These are the *upper* side of the REP301 dominance check: each derived
expression from :mod:`repro.analysis.cost.interp` must be dominated by
(numerically never exceed, over :func:`repro.pdm.sym.sample_envs`)
the paper formula recorded here for its (algorithm, step).

The ``external_psrs`` formulas are
:func:`repro.core.theory.step_bounds` — the table the dynamic auditor
(:mod:`repro.obs.audit`) evaluates per node — so this module only wires
algorithms to tables.

The in-core algorithms (``in_core_psrs``, ``overpartition``,
``hyperquicksort``) sort entirely in memory, so the paper-side bound for
each of their steps is zero charged disk I/O.  DeWitt's sort is the
*contrast* algorithm from the paper's related-work discussion; the paper
states no per-step formula for it, so its entry maps to ``None`` and
REP301 skips it (its bounds are still derived, REP302/303/304-checked,
and certified dynamically).
"""

from __future__ import annotations

from typing import Optional

from repro.core.theory import step_bounds
from repro.pdm.sym import ZERO, Expr

#: Paper formulas per algorithm and step.  ``None`` for a whole
#: algorithm means the paper offers no formula (REP301 does not apply);
#: a step name missing from a present table means the same for that
#: step (e.g. the recovery steps, which are outside Algorithm 1).
PAPER_STEP_BOUNDS: dict[str, Optional[dict[str, Expr]]] = {
    "external_psrs": step_bounds(),
    "in_core_psrs": {
        "1:local-sort": ZERO,
        "2:pivots": ZERO,
        "3:partition": ZERO,
        "4:exchange": ZERO,
        "5:merge": ZERO,
    },
    "overpartition": {
        "1:sample-pivots": ZERO,
        "2:bucketize": ZERO,
        "3:assign": ZERO,
        "4:exchange": ZERO,
        "5:sort-buckets": ZERO,
    },
    "hyperquicksort": {
        "1:local-sort": ZERO,
        "level-*": ZERO,
    },
    "dewitt": None,
}


def paper_bound_for(algorithm: str, step: str) -> Optional[Expr]:
    """The paper's formula for (algorithm, step), if it states one."""
    table = PAPER_STEP_BOUNDS.get(algorithm)
    if table is None:
        return None
    return table.get(step)
