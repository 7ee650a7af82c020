"""Step-level recovery: the (step x fault kind x retry policy) matrix.

Covers the tentpole acceptance scenarios end to end:

* a transient disk fault mid-step-4 on one node completes via retry with
  the correct sorted output, the retry charged to the simulated clock
  and surfaced in the metrics report;
* a node killed at the step-3 barrier completes in degraded mode, with
  the 2x load-balance bound re-checked against the survivor-rescaled
  perf vector.

Fault positions are *computed*, not guessed: a fault-free probe run
records each node's I/O and message counters at every step barrier, and
the faults are armed to land inside the targeted step.
"""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.faults import (
    DiskFault,
    DiskFaultError,
    FaultInjector,
    FaultPlan,
    MessageFault,
    NetworkFaultError,
    NodeKill,
    NodeKilledError,
    RetryPolicy,
    StepRunner,
)
from repro.metrics.report import fault_table
from repro.obs.events import NetTransfer, StepBegin, step_intervals
from repro.pdm.blockfile import BlockWriter
from repro.workloads.generators import make_benchmark

PERF = PerfVector([1, 2, 1])
SPEEDS = [1.0, 2.0, 1.0]
CONFIG = PSRSConfig(block_items=32, message_items=128)
STEPS = ["1:local-sort", "2:pivots", "3:partition", "4:redistribute", "5:final-merge"]


def _cluster() -> Cluster:
    return Cluster(heterogeneous_cluster(SPEEDS, memory_items=512))


def _data(seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 2**32, size=PERF.nearest_exact(600), dtype=np.uint32
    )


@pytest.fixture(scope="module")
def probe():
    """Fault-free run annotated with per-step boundary counters.

    ``probe["io"][rank]`` maps step name -> that node's cumulative block
    I/Os at the step's start; ``probe["msgs"]`` likewise for network
    messages; ``end`` keys hold the totals after the sort.  The diff of
    consecutive boundaries locates any step in I/O- or message-count
    space, which is the coordinate system fault arms count in.
    """
    cluster = _cluster()
    marks_io: dict[int, dict[str, int]] = {r: {} for r in range(cluster.p)}
    marks_msgs: dict[str, int] = {}

    def observer(name: str) -> None:
        for r in range(cluster.p):
            marks_io[r][name] = cluster.nodes[r].disk.stats.block_ios
        marks_msgs[name] = cluster.network.messages_sent

    cluster.step_observers.append(observer)
    res = sort_array(cluster, PERF, _data(), CONFIG)
    for r in range(cluster.p):
        marks_io[r]["end"] = cluster.nodes[r].disk.stats.block_ios
    marks_msgs["end"] = cluster.network.messages_sent
    return {"io": marks_io, "msgs": marks_msgs, "elapsed": res.elapsed}


def _io_window(probe, rank: int, step: str) -> tuple[int, int]:
    """[start, stop) of ``rank``'s block-I/O counter inside ``step``."""
    marks = probe["io"][rank]
    keys = STEPS + ["end"]
    i = keys.index(step)
    return marks[step], marks[keys[i + 1]]


def _msg_window(probe, step: str) -> tuple[int, int]:
    keys = STEPS + ["end"]
    i = keys.index(step)
    return probe["msgs"][step], probe["msgs"][keys[i + 1]]


# -- transient faults x steps x retry policies -------------------------------


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize(
    "policy",
    [
        RetryPolicy(max_attempts=2, backoff=0.05),
        RetryPolicy(max_attempts=3, backoff=0.01),
    ],
    ids=["attempts2", "attempts3"],
)
class TestTransientDiskFaultMatrix:
    def test_retry_completes_and_charges_clock(self, probe, step, policy):
        rank = 1
        lo, hi = _io_window(probe, rank, step)
        if hi <= lo:
            pytest.skip(f"node {rank} performs no I/O in {step}")
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=1)]
        )
        res = sort_array(cluster, PERF, data, CONFIG, faults=plan, retry=policy)
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.disk_faults == 1
        assert res.faults.retries.get(step) == 1
        assert res.faults.backoff_time == pytest.approx(policy.delay(1))
        # The retry (backoff + re-done work) costs simulated wall time.
        assert res.elapsed >= probe["elapsed"] + res.faults.backoff_time
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_no_retry_policy_propagates(self, probe, step, policy):
        rank = 1
        lo, hi = _io_window(probe, rank, step)
        if hi <= lo:
            pytest.skip(f"node {rank} performs no I/O in {step}")
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=1)]
        )
        with pytest.raises(DiskFaultError):
            sort_array(cluster, PERF, _data(), CONFIG, faults=plan)  # no retry=
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0


@pytest.mark.parametrize("step", ["2:pivots", "4:redistribute"])
class TestTransientNetworkFaultMatrix:
    def test_hard_message_failure_retried(self, probe, step):
        lo, hi = _msg_window(probe, step)
        assert hi > lo, f"no messages in {step}"
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(
            message_faults=[MessageFault(fail_after=(lo + hi) // 2, count=1)]
        )
        res = sort_array(
            cluster, PERF, data, CONFIG,
            faults=plan, retry=RetryPolicy(max_attempts=2, backoff=0.02),
        )
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.network_faults == 1
        assert res.faults.retries.get(step) == 1
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_without_retry_propagates(self, probe, step):
        lo, hi = _msg_window(probe, step)
        cluster = _cluster()
        plan = FaultPlan(
            message_faults=[MessageFault(fail_after=(lo + hi) // 2, count=1)]
        )
        with pytest.raises(NetworkFaultError):
            sort_array(cluster, PERF, _data(), CONFIG, faults=plan)
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0


class TestRetryAccounting:
    def test_exponential_backoff_accumulates_exactly(self, probe):
        """count=2: both faulted I/Os fire (the second may land in the
        same attempt's cleanup flush), the sort still completes, and
        backoff_time is exactly the policy's schedule for the observed
        retries — all of it charged to the simulated clock."""
        rank = 1
        lo, hi = _io_window(probe, rank, "3:partition")
        policy = RetryPolicy(max_attempts=3, backoff=0.04)
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=2)]
        )
        res = sort_array(cluster, PERF, data, CONFIG, faults=plan, retry=policy)
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.disk_faults == 2
        n_retries = res.faults.retries["3:partition"]
        assert 1 <= n_retries <= 2
        expected = sum(policy.delay(i) for i in range(1, n_retries + 1))
        assert res.faults.backoff_time == pytest.approx(expected)
        assert res.elapsed >= probe["elapsed"] + expected

    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(backoff=0.04)
        assert [policy.delay(i) for i in (1, 2, 3)] == [0.04, 0.08, 0.16]
        with pytest.raises(TypeError):
            RetryPolicy(backoff_factor=3.0)

    def test_attempts_exhausted_raises(self, probe):
        """A fault outlasting the retry budget propagates after charging
        every backoff."""
        rank = 1
        lo, hi = _io_window(probe, rank, "3:partition")
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=None)]
        )
        with pytest.raises(DiskFaultError):
            sort_array(
                cluster, PERF, _data(), CONFIG,
                faults=plan, retry=RetryPolicy(max_attempts=3, backoff=0.01),
            )
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_counters_surface_in_report_table(self, probe):
        rank = 1
        lo, hi = _io_window(probe, rank, "3:partition")
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=1)]
        )
        res = sort_array(
            cluster, PERF, _data(), CONFIG,
            faults=plan, retry=RetryPolicy(max_attempts=2, backoff=0.05),
        )
        text = fault_table(res.faults).render()
        assert "retries[3:partition]" in text
        assert "disk faults" in text
        assert "backoff charged (s)" in text

    def test_fault_free_table_is_banner_only(self):
        from repro.faults import FaultCounters

        text = fault_table(FaultCounters()).render()
        assert "no faults injected" in text


# -- file reclamation: StepRunner.release / commit ---------------------------


class TestReclamation:
    @staticmethod
    def _file(cluster: Cluster):
        node = cluster.nodes[0]
        f = node.disk.new_file(32, np.uint32, name="consumed")
        with BlockWriter(f, node.mem) as w:
            w.write(np.arange(100, dtype=np.uint32))
        return f

    def test_release_clears_at_once_without_checkpointing(self):
        cluster = _cluster()
        f = self._file(cluster)
        StepRunner(cluster).release([f])
        assert f.n_items == 0

    def test_release_holds_until_commit_with_checkpointing(self):
        cluster = _cluster()
        f = self._file(cluster)
        runner = StepRunner(cluster, checkpoint=True)
        runner.release([f])
        assert np.array_equal(f.to_array(), np.arange(100, dtype=np.uint32))
        runner.commit()
        assert f.n_items == 0

    def test_retried_step5_finds_its_received_runs(self, probe):
        """The last node faults mid-merge after the others have merged and
        released their received runs; the retry merges them again."""
        rank = PERF.p - 1
        lo, hi = _io_window(probe, rank, "5:final-merge")
        data = _data()
        plan = FaultPlan(disk_faults=[DiskFault(node=rank, after_ios=(lo + hi) // 2, count=1)])
        res = sort_array(
            _cluster(), PERF, data, CONFIG,
            faults=plan, retry=RetryPolicy(max_attempts=2, backoff=0.01),
        )
        assert res.faults.retries == {"5:final-merge": 1}
        assert np.array_equal(res.to_array(), np.sort(data))
        assert [out.n_items for out in res.outputs] == res.received_sizes


# -- node kills x steps: degraded mode ---------------------------------------


@pytest.mark.parametrize("step", [2, 3, 4, 5])
@pytest.mark.parametrize("victim", [0, 1, 2])
class TestDegradedModeMatrix:
    def test_kill_completes_on_survivors(self, step, victim):
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(node_kills=[NodeKill(node=victim, step=step)])
        res = sort_array(cluster, PERF, data, CONFIG, faults=plan)
        assert np.array_equal(res.to_array(), np.sort(data))
        survivors = [r for r in range(PERF.p) if r != victim]
        assert res.active_ranks == survivors
        assert res.faults.degraded
        assert res.faults.dead_nodes == [victim]
        assert res.perf == PERF.subset(survivors)
        # The 2x bound holds against the survivor-rescaled shares.
        assert res.s_max <= 2.0 + 1e-9
        assert len(res.outputs) == len(survivors)
        # Outputs live on survivor disks only.
        for rank, out in zip(res.active_ranks, res.outputs):
            assert out.disk is cluster.nodes[rank].disk
        assert not cluster.nodes[victim].alive
        assert cluster.nodes[victim].failed_at.startswith(f"{step}:")
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_degraded_trace_includes_salvage(self, step, victim):
        cluster = _cluster()
        plan = FaultPlan(node_kills=[NodeKill(node=victim, step=step)])
        res = sort_array(cluster, PERF, _data(), CONFIG, faults=plan)
        assert "recover:salvage" in res.step_times
        assert "recover:remerge" in res.step_times


class TestDegradedStepTimes:
    """A degraded re-entry executes steps 2 and 3 twice; their reported
    seconds are the sum of the two executions, not the hull around both
    (which swallowed the salvage and everything else in between)."""

    def _killed_at_step4(self, kernel):
        perf = PerfVector([1, 1, 4, 4])
        data = np.random.default_rng(0).integers(
            0, 2**32, size=perf.nearest_exact(40_000), dtype=np.uint32
        )
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048), kernel=kernel
        )
        plan = FaultPlan(node_kills=[NodeKill(node=1, step=4)])
        res = sort_array(cluster, perf, data, PSRSConfig(block_items=256), faults=plan)
        assert res.faults.degraded
        return cluster, res

    def test_lockstep_steps_tile_the_run(self):
        """Barrier-delimited executions are disjoint, so the step seconds
        add up to the elapsed time — the salvage interval is counted once,
        under ``recover:*``, and not again inside ``2:pivots``."""
        _, res = self._killed_at_step4("lockstep")
        assert sum(res.step_times.values()) == pytest.approx(res.elapsed, rel=1e-12)
        salvage = res.step_times["recover:salvage"] + res.step_times["recover:remerge"]
        assert res.step_times["2:pivots"] < salvage

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_twice_executed_step_is_the_sum_of_its_executions(self, kernel):
        cluster, res = self._killed_at_step4(kernel)
        intervals = step_intervals(cluster.bus.events)
        for step in ("2:pivots", "3:partition"):
            first, second = intervals[step]
            spans = [
                max(t1 for _, t1 in ex.values()) - min(t0 for t0, _ in ex.values())
                for ex in (first, second)
            ]
            assert res.step_times[step] == pytest.approx(sum(spans), rel=1e-12)
            hull = max(t1 for _, t1 in second.values()) - min(t0 for t0, _ in first.values())
            assert res.step_times[step] < hull
        assert len(intervals["4:redistribute"]) == 1  # the killed attempt left no ends
        assert max(res.step_times.values()) <= res.elapsed


class TestKillEdgeCases:
    def test_step1_kill_is_unrecoverable(self):
        cluster = _cluster()
        plan = FaultPlan(node_kills=[NodeKill(node=1, step=1)])
        with pytest.raises(NodeKilledError) as exc_info:
            sort_array(cluster, PERF, _data(), CONFIG, faults=plan)
        assert exc_info.value.rank == 1 and exc_info.value.step == 1
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_kill_without_recovery_propagates(self):
        """An externally installed injector without recovery enabled on the
        sort: the kill propagates instead of degrading."""
        cluster = _cluster()
        injector = FaultInjector(
            FaultPlan(node_kills=[NodeKill(node=2, step=3)])
        ).install(cluster)
        try:
            with pytest.raises(NodeKilledError):
                sort_array(cluster, PERF, _data(), CONFIG)
        finally:
            injector.uninstall()
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_two_kills_two_degradations(self):
        """Two victims at different steps: two successive degradations,
        finishing on the single remaining node."""
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(
            node_kills=[NodeKill(node=0, step=2), NodeKill(node=2, step=4)]
        )
        res = sort_array(cluster, PERF, data, CONFIG, faults=plan)
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.active_ranks == [1]
        assert sorted(res.faults.dead_nodes) == [0, 2]
        assert res.faults.node_kills == 2
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_dead_pivot_root_falls_back_to_lowest_survivor(self):
        """The pivot root (rank 0) dies at step 4: the re-run pivot
        step gathers its samples at rank 1, the lowest survivor, not at
        the fastest one (ranks 2 and 3 run at speed 4)."""
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(2**14), seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048)
        )
        cluster.bus.set_level("io")
        plan = FaultPlan(node_kills=[NodeKill(node=0, step=4)])
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=256), faults=plan,
            retry=RetryPolicy(),
        )
        assert res.active_ranks == [1, 2, 3]
        executions: list[list[tuple[int, int]]] = []
        for ev in cluster.bus.events:
            if ev.step != "2:pivots":
                continue
            if isinstance(ev, StepBegin) and (not executions or executions[-1]):
                executions.append([])
            elif isinstance(ev, NetTransfer):
                executions[-1].append((ev.src, ev.dst))
        first, second = executions
        assert first[:3] == [(1, 0), (2, 0), (3, 0)]
        assert second[:2] == [(2, 1), (3, 1)]

    def test_degraded_combined_with_transient_retry(self):
        """A kill and a transient disk fault in one plan: retry handles
        the transient, degraded mode handles the kill."""
        data = _data()
        cluster = _cluster()
        plan = FaultPlan(
            disk_faults=[DiskFault(node=1, after_ios=40, count=1)],
            node_kills=[NodeKill(node=2, step=4)],
        )
        res = sort_array(
            cluster, PERF, data, CONFIG,
            faults=plan, retry=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.degraded and res.faults.disk_faults >= 1
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0


# -- the tentpole demo scenarios (paper cluster flavour) ----------------------


class TestAcceptanceScenarios:
    PERF4 = PerfVector([1, 1, 4, 4])
    SPEEDS4 = [1.0, 1.0, 4.0, 4.0]
    CFG4 = PSRSConfig(block_items=64, message_items=512)

    def _probe4(self, data):
        cluster = Cluster(heterogeneous_cluster(self.SPEEDS4, memory_items=1024))
        marks: dict[str, int] = {}

        def observer(name: str) -> None:
            marks[name] = cluster.nodes[1].disk.stats.block_ios

        cluster.step_observers.append(observer)
        sort_array(cluster, self.PERF4, data, self.CFG4)
        marks["end"] = cluster.nodes[1].disk.stats.block_ios
        return marks

    def test_disk_failure_mid_step4_completes_via_retry(self):
        data = np.random.default_rng(11).integers(
            0, 2**32, size=self.PERF4.nearest_exact(4000), dtype=np.uint32
        )
        marks = self._probe4(data)
        lo, hi = marks["4:redistribute"], marks["5:final-merge"]
        assert hi > lo, "node 1 must do I/O during redistribution"
        cluster = Cluster(heterogeneous_cluster(self.SPEEDS4, memory_items=1024))
        plan = FaultPlan(
            disk_faults=[DiskFault(node=1, after_ios=(lo + hi) // 2, count=1)]
        )
        res = sort_array(
            cluster, self.PERF4, data, self.CFG4,
            faults=plan, retry=RetryPolicy(max_attempts=3, backoff=0.05),
        )
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.disk_faults == 1
        assert res.faults.retries == {"4:redistribute": 1}
        assert res.faults.backoff_time == pytest.approx(0.05)
        assert not res.faults.degraded
        text = fault_table(res.faults).render()
        assert "retries[4:redistribute]" in text
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0

    def test_node_killed_step3_completes_degraded(self):
        data = np.random.default_rng(12).integers(
            0, 2**32, size=self.PERF4.nearest_exact(4000), dtype=np.uint32
        )
        cluster = Cluster(heterogeneous_cluster(self.SPEEDS4, memory_items=1024))
        plan = FaultPlan(node_kills=[NodeKill(node=2, step=3)])
        res = sort_array(cluster, self.PERF4, data, self.CFG4, faults=plan)
        assert np.array_equal(res.to_array(), np.sort(data))
        assert res.faults.degraded
        assert res.active_ranks == [0, 1, 3]
        assert res.perf == self.PERF4.subset([0, 1, 3])
        # Load balance bound over the survivors' rescaled shares.
        for received, optimal in zip(res.received_sizes, res.optimal_sizes):
            assert received <= 2.0 * optimal + 1e-9
        assert res.s_max <= 2.0
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0
