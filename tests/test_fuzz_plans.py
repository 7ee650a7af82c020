"""The fuzz executor runs the plans.

``ScenarioExecutor.run`` captures ``full``.  Each of Algorithm 1's
planned loops (the merge, each step-4 message, the sample gather, the
partition search and the partition copy) must run as its plan at least
once over the checked-in corpus cases and the fuzzer's default seeds,
so a fuzz run exercises the plans, not only the loops they replace.
"""

from __future__ import annotations

from pathlib import Path

from repro.fuzz.engine import DEFAULT_SEEDS, load_case
from repro.fuzz.executor import ScenarioExecutor
from tests.plan_census import PLANS, counting_plans

CORPUS = sorted((Path(__file__).parent / "data" / "fuzz_corpus").glob("*.jsonl"))


def test_every_plan_runs_under_the_fuzz_executor():
    scenarios = [load_case(str(p)).scenario for p in CORPUS] + list(DEFAULT_SEEDS)
    assert len(scenarios) == 10
    executor = ScenarioExecutor(collect_coverage=False)
    with counting_plans() as plans:
        outcomes = [executor.run(s) for s in scenarios]
    assert all(o.violation is None for o in outcomes)
    assert {name for name in PLANS if plans[name] == 0} == set()
