"""Both ways into a run build the same run.

``repro sort`` parses its flags into a :class:`~repro.fuzz.scenario.Scenario`
and the fuzzer's executor runs one; both turn the spec into its input,
cluster, config, retry budget and ``RunMeta`` through the spec's own
methods.  Each spec below runs both ways — through ``ScenarioExecutor``
(capture ``full``, sanitizers on) and through ``repro sort --format json``
with the flags that state it — and the two runs must report the same
simulated time, block I/O, item count and audit parameters.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults.plan import DiskFault, FaultPlan
from repro.fuzz.executor import ScenarioExecutor
from repro.fuzz.scenario import Scenario
from repro.obs.audit import RunMeta
from repro.obs.exporters import read_jsonl

SPECS = {
    "clean": Scenario(
        n_items=8000, perf=(1, 1, 4, 4), memory_items=2048, block_items=256,
        message_items=2048, seed=5,
    ),
    "quantile": Scenario(
        benchmark="zipf", n_items=6000, perf=(1, 2, 3), memory_items=1024,
        block_items=64, message_items=512, pivot_method="quantile", seed=2,
    ),
    "disk-fault": Scenario(
        n_items=16_390, perf=(1, 1, 4, 4), memory_items=2048, block_items=256,
        message_items=8192,
        fault_plan=FaultPlan(disk_faults=(DiskFault(node=1, after_ios=40, count=1),)),
        retries=3,
    ),
}


def sort_argv(spec: Scenario) -> list[str]:
    """The ``repro sort`` flags that state ``spec`` (whose dtype and
    oversample are the flagless defaults, ``uint32`` and 4)."""
    argv = [
        "sort", "--benchmark", spec.benchmark, "--n", str(spec.n_items),
        "--perf", ",".join(map(str, spec.perf)),
        "--memory", str(spec.memory_items), "--block", str(spec.block_items),
        "--message", str(spec.message_items), "--pivot-method", spec.pivot_method,
        "--seed", str(spec.seed),
    ]
    if spec.fault_plan is not None:
        argv += ["--fault-plan", spec.fault_plan.to_json()]
    if spec.retries is not None:
        argv += ["--retries", str(spec.retries)]
    return argv


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_and_executor_build_the_same_run(name, capsys, tmp_path):
    spec = SPECS[name].validate()
    outcome = ScenarioExecutor(collect_coverage=False).run(spec)
    assert outcome.status == ("ok" if spec.fault_plan is None else "recovered")

    events = tmp_path / "run.jsonl"
    assert main(sort_argv(spec) + ["--format", "json", "--events", str(events)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elapsed_seconds"] == outcome.sim_elapsed
    assert doc["io"]["blocks_read"] + doc["io"]["blocks_written"] == sum(
        cell[2] + cell[3] for cell in outcome.io_counters
    )
    assert doc["n_items"] == outcome.n_sorted
    assert (doc["faults"]["total"] > 0) == (spec.fault_plan is not None)

    head, _ = read_jsonl(str(events))
    assert head is not None
    meta = RunMeta.from_dict(head)
    # The executor audits only fault-free runs; the CLI records every one.
    assert meta == (outcome.meta or spec.run_meta(spec.input()))
