"""Plans and loops give the same run on fuzz-shaped scenarios.

Algorithm 1's hot loops (the merges of steps 1 and 5, the sample
gather, the partition search and copy, each step-4 message) each have
two implementations: the plan (charges in one batch, memory applied at
once) wherever ``pdm.blockfile.plannable`` allows, and the loop
elsewhere.  A no-op fault hook on every disk makes ``BlockFile._batched``
refuse every plan, so the same scenario runs once through the plans and
once through the loops.  This test runs the checked-in corpus cases and
mutants of the fuzzer's default seeds both ways, each through the run
spec (``Scenario.input``/``cluster``/``sort``), at capture ``io`` and
``full`` (the fuzzer's level), and demands the same run: outcome,
clocks, per-step I/O, output bytes, partition sizes, fault counters,
memory counters, audit rows and the whole event log, whose memory rows
at ``full`` the plans publish from their batches.  It also demands that
the hooked side ran no plan and the other side at least one: a pin
whose two sides both plan proves nothing.  Level ``steps`` would not do:
it records no block rows, so there is no per-step I/O to compare.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.fuzz.engine import DEFAULT_SEEDS, load_case
from repro.fuzz.mutators import mutate
from repro.obs.audit import audit_run
from tests.plan_census import counting_plans

CORPUS = sorted((Path(__file__).parent / "data" / "fuzz_corpus").glob("*.jsonl"))

#: Mutants of the default seeds: a chain of single-axis mutations per
#: seed at a fixed rng, with ``n`` capped so the 15 pairs of runs take
#: about a second.
MUTANT_RNG_SEED = 3
N_MUTANTS = 10
MAX_MUTANT_N = 1 << 15


def _mutants(known):
    rng = np.random.default_rng(MUTANT_RNG_SEED)
    seen = {s.fingerprint() for s in known}
    out, current = [], list(DEFAULT_SEEDS)
    while len(out) < N_MUTANTS:
        j = len(out) % len(current)
        _, mutant = mutate(rng, current[j])
        current[j] = mutant.with_(n_items=min(mutant.n_items, MAX_MUTANT_N)).validate()
        if current[j].fingerprint() not in seen:
            seen.add(current[j].fingerprint())
            out.append(current[j])
    return out


CASES = [load_case(str(p)).scenario for p in CORPUS]
SCENARIOS = [pytest.param(s, id=p.stem) for p, s in zip(CORPUS, CASES)] + [
    pytest.param(s, id=f"mutant{i}") for i, s in enumerate(_mutants(CASES))
]


def _no_fault(disk, op, n_items, itemsize) -> None:
    """A fault hook that never fires: its disk charges block by block."""


def _run(spec, level, hooked):
    """Everything the run leaves that a plan could change, and the plans
    that ran."""
    data = spec.input()
    cluster = spec.cluster()
    cluster.bus.set_level(level)
    if hooked:
        for node in cluster.nodes:
            node.disk.fault_hook = _no_fault
    with counting_plans() as plans:
        try:
            res = spec.sort(cluster, data)
        except Exception as exc:  # noqa: BLE001 - the outcome is compared
            outcome: dict = {"raised": f"{type(exc).__name__}: {exc}"}
        else:
            out = np.ascontiguousarray(res.to_array())
            outcome = {
                "elapsed": res.elapsed,
                "step_io": {s: dataclasses.asdict(io) for s, io in res.step_io.items()},
                "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
                "received_sizes": res.received_sizes,
                "faults": dataclasses.asdict(res.faults),
            }
            if res.faults.fault_free:
                outcome["audit"] = audit_run(cluster.bus.events, spec.run_meta(data)).rows
    outcome["nodes"] = [
        (n.mem.high_water, n.mem.total_reservations, n.mem.in_use, n.clock.time)
        for n in cluster.nodes
    ]
    outcome["rows"] = cluster.bus.events.rows
    return outcome, sum(plans.values())


def test_runs_every_corpus_case_and_ten_mutants():
    assert len(CORPUS) == 5 and len(SCENARIOS) == 5 + N_MUTANTS


@pytest.mark.parametrize("spec", SCENARIOS)
def test_plans_and_loops_run_alike(spec):
    for level in ("io", "full"):
        planned, plans = _run(spec, level, hooked=False)
        looped, loops_planned = _run(spec, level, hooked=True)
        assert loops_planned == 0 and plans > 0, level
        assert planned == looped, level
