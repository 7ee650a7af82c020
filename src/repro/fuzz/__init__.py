"""Coverage-guided scenario fuzzer with the bounds auditor as oracle.

The repo's oracle stack — the paper-bounds auditor (:mod:`repro.obs.audit`),
the runtime sanitizers (:mod:`repro.analysis.sanitizers`), output
verification and the degraded-mode invariants — can judge *any* run, but
until now only hand-written scenarios exercised it.  This package closes
the loop, in the spirit of hypofuzz's corpus/novelty architecture:

* :mod:`~repro.fuzz.scenario` — a serializable :class:`Scenario` tuple
  (workload + n + dtype, perf vector, PDM config, pivot method, optional
  fault plan) with validation and a canonical fingerprint;
* :mod:`~repro.fuzz.mutators` — seeded one-axis-at-a-time mutations that
  always produce valid scenarios;
* :mod:`~repro.fuzz.coverage` — deterministic line coverage of
  ``src/repro`` (``sys.monitoring`` on 3.12+, ``sys.settrace`` before);
* :mod:`~repro.fuzz.executor` — run one scenario under sanitizers +
  telemetry, fold the run into coverage and event-signature signals and
  an oracle verdict;
* :mod:`~repro.fuzz.corpus` — size-capped priority corpus scored by
  novelty plus worst measured/bound audit ratio;
* :mod:`~repro.fuzz.shrink` — axis-by-axis minimisation of violating
  scenarios;
* :mod:`~repro.fuzz.engine` — the fuzz loop, replayable JSONL case
  files and the ``repro fuzz`` CLI entry points.

``import repro.fuzz`` loads the scenario and the executor only (a
``repro sort`` needs the spec, not the loop); import the loop, the
corpus, the mutators, the shrinker and the coverage collector from their
own modules.  See docs/FUZZING.md for the full design.
"""

from repro.fuzz.executor import RunOutcome, ScenarioExecutor, Violation
from repro.fuzz.scenario import Scenario, ScenarioError

__all__ = [
    "RunOutcome",
    "Scenario",
    "ScenarioError",
    "ScenarioExecutor",
    "Violation",
]
