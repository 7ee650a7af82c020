"""Differential harness: the event kernel is equivalent to lockstep.

The two execution kernels (:mod:`repro.cluster.kernel`) may differ only
in *timing*.  Every timing-free observable must be bit-identical across
them:

* the sorted output (compared as a sha256 of the output bytes),
* the per-(step, node) block/item I/O counters,
* the oracle verdicts — sanitizers, sorted-permutation verification and
  the paper-bounds auditor (status, violation key, worst ratio).

The harness drives both kernels through
:class:`~repro.fuzz.executor.ScenarioExecutor` (the fuzzer's oracle
stack) over three scenario sources: the checked-in fuzz corpus, a
hand-picked grid of corner scenarios (perf vectors up to p=16, skewed /
near-sorted / duplicate-heavy workloads, node kills at every step 2-5),
and a hypothesis-generated sweep of the scenario envelope.

A golden-trace leg closes the loop with the observability stack: a
{1,1,4,4} external_psrs run recorded under the *event* kernel must still
conform to the statically extracted ``protocol-external_psrs`` schema —
barrier removal may not reorder or invent network traffic.
"""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.protocol import extract_schema
from repro.faults.plan import FaultPlan, NodeKill
from repro.fuzz.engine import load_case
from repro.fuzz.executor import RunOutcome, ScenarioExecutor
from repro.fuzz.scenario import Scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.jsonl")))

pytestmark = pytest.mark.no_sanitizers  # the executor installs its own


def run_both(scenario: Scenario) -> tuple[RunOutcome, RunOutcome]:
    ev = ScenarioExecutor(collect_coverage=False, kernel="event").run(scenario)
    ls = ScenarioExecutor(collect_coverage=False, kernel="lockstep").run(scenario)
    return ev, ls


def assert_equivalent(ev: RunOutcome, ls: RunOutcome) -> None:
    """Everything timing-free must match exactly."""
    assert ev.status == ls.status
    assert ev.n_sorted == ls.n_sorted
    assert ev.output_digest == ls.output_digest
    assert ev.io_counters == ls.io_counters
    ev_key = ev.violation.key() if ev.violation else None
    ls_key = ls.violation.key() if ls.violation else None
    assert ev_key == ls_key
    # The audit bounds are pure item counts, so the worst ratio is a
    # deterministic function of the (identical) counters.
    assert ev.worst_ratio == ls.worst_ratio
    # No silent skips: a finished fault-free run must carry a digest.
    if ev.status == "ok":
        assert ev.output_digest


class TestCorpusDifferential:
    """Every checked-in fuzz case runs identically under both kernels."""

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
    )
    def test_corpus_case(self, path):
        scenario = load_case(path).scenario
        ev, ls = run_both(scenario)
        assert_equivalent(ev, ls)

    def test_corpus_is_not_empty(self):
        assert len(CORPUS) >= 4


# Hand-picked corners: wide perf vectors (p up to 16), the skewed /
# near-sorted / duplicate-heavy workloads, and kills at every step the
# fault space covers (2-5), on fast and slow victims.
GRID = [
    Scenario(n_items=4096, perf=(1,) * 16, memory_items=512,
             block_items=64, message_items=128),
    Scenario(benchmark="zipf", n_items=8192, perf=(8, 4, 2, 1, 1, 1, 1, 1)),
    Scenario(benchmark="nearly_sorted", n_items=4096, perf=(1, 2, 3, 4, 5)),
    Scenario(benchmark="all_equal", n_items=4096, perf=(1, 1),
             memory_items=192, block_items=64, message_items=256),
    Scenario(benchmark="reverse", n_items=2048, perf=(2, 1), dtype="uint64"),
    Scenario(benchmark="staggered", n_items=4096, perf=(1, 1, 4, 4),
             dtype="int32"),
] + [
    Scenario(
        n_items=4096,
        perf=(1, 1, 4, 4),
        fault_plan=FaultPlan(node_kills=(NodeKill(node=victim, step=step),)),
        retries=3,
    )
    for step in (2, 3, 4, 5)
    for victim in (0, 3)
]


class TestGridDifferential:
    @pytest.mark.parametrize(
        "scenario", GRID,
        ids=[
            f"{s.benchmark}-p{s.p}-{s.dtype}"
            + (f"-kill{s.fault_plan.node_kills[0].node}"
               f"s{s.fault_plan.node_kills[0].step}" if s.fault_plan else "")
            for s in GRID
        ],
    )
    def test_grid_case(self, scenario):
        ev, ls = run_both(scenario.validate())
        assert_equivalent(ev, ls)


@st.composite
def scenarios(draw) -> Scenario:
    """Envelope-respecting scenarios, sized for a sub-second run each."""
    p = draw(st.integers(min_value=1, max_value=16))
    perf = tuple(
        draw(st.lists(st.integers(1, 8), min_size=p, max_size=p))
    )
    block = draw(st.sampled_from([16, 32, 64]))
    mem_blocks = draw(st.integers(min_value=3, max_value=8))
    fault = None
    retries = None
    if p >= 2 and draw(st.booleans()):
        fault = FaultPlan(
            node_kills=(
                NodeKill(
                    node=draw(st.integers(0, p - 1)),
                    step=draw(st.integers(2, 5)),
                ),
            )
        )
        retries = draw(st.integers(1, 4))
    return Scenario(
        benchmark=draw(
            st.sampled_from(
                ["uniform", "zipf", "nearly_sorted", "all_equal", "sorted",
                 "reverse", "staggered"]
            )
        ),
        n_items=draw(st.integers(min_value=64, max_value=2048)),
        dtype=draw(st.sampled_from(["uint16", "uint32", "int32", "uint64"])),
        perf=perf,
        memory_items=mem_blocks * block,
        block_items=block,
        message_items=draw(st.sampled_from([32, 128, 1024])),
        pivot_method=draw(st.sampled_from(["regular", "random", "quantile"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        fault_plan=fault,
        retries=retries,
    ).validate()


class TestHypothesisDifferential:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenario=scenarios())
    def test_random_scenarios(self, scenario):
        ev, ls = run_both(scenario)
        assert_equivalent(ev, ls)


class TestGoldenTraceConformance:
    """Event-kernel runs still satisfy the extracted protocol schema."""

    @pytest.fixture(scope="class")
    def psrs_schema(self, package_project):
        return extract_schema(package_project, "external_psrs")

    def test_event_kernel_run_conforms(self, psrs_schema, tmp_path):
        import numpy as np

        from repro.cluster.machine import Cluster, heterogeneous_cluster
        from repro.core.external_psrs import PSRSConfig, sort_array
        from repro.core.perf import PerfVector
        from repro.obs.conformance import check_conformance
        from repro.obs.exporters import read_jsonl, write_jsonl
        from repro.workloads.generators import make_benchmark

        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(2**14)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=1024),
            kernel="event",
        )
        cluster.bus.set_level("io")
        res = sort_array(cluster, perf, data, PSRSConfig(block_items=256,
                                                         message_items=2048))
        assert np.array_equal(res.to_array(), np.sort(data))
        # Round-trip through the JSONL recording format, as `repro audit`
        # consumes it, then validate against the extracted schema.
        run = tmp_path / "run.jsonl"
        write_jsonl(str(run), cluster.bus.events, {"kernel": "event"})
        _, events = read_jsonl(str(run))
        report = check_conformance(psrs_schema, events)
        assert report.ok, report.table().render()
        checked = {r.step for r in report.rows if r.enforced}
        assert {"2:pivots", "4:redistribute"} <= checked
