"""Tests for per-step I/O attribution and per-step time balance."""

import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster, paper_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.faults.plan import FaultPlan, NodeKill
from repro.obs.profiler import RunProfile
from repro.workloads.generators import make_benchmark


def _run(perf_vals, speeds, n=16_000, kernel="event", **cfg):
    perf = PerfVector(perf_vals)
    n = perf.nearest_exact(n)
    data = make_benchmark(0, n, seed=0)
    cluster = Cluster(heterogeneous_cluster(speeds, memory_items=2048), kernel=kernel)
    res = sort_array(
        cluster,
        perf,
        data,
        PSRSConfig(block_items=256, message_items=2048, **cfg),
    )
    return cluster, res


class TestStepIO:
    def test_partition_sums_to_total(self):
        _, res = _run([1, 2], [1.0, 2.0])
        assert sum(s.block_ios for s in res.step_io.values()) == res.io.block_ios
        assert sum(s.item_ios for s in res.step_io.values()) == res.io.item_ios

    def test_all_five_steps_attributed(self):
        _, res = _run([1, 2], [1.0, 2.0])
        assert set(res.step_io) == {
            "1:local-sort",
            "2:pivots",
            "3:partition",
            "4:redistribute",
            "5:final-merge",
        }

    def test_sampling_io_constant_while_sort_io_grows(self):
        """The paper: step 2's 'L IO operations' are 'very inferior, in
        practice, to the IO operations of step 1' — because L is a
        constant of the machine while step 1 scales with N.  Measured:
        doubling N doubles step-1 I/O and leaves step-2 I/O flat."""
        _, small = _run([1, 1, 4, 4], [1.0, 1.0, 4.0, 4.0], n=16_000)
        _, big = _run([1, 1, 4, 4], [1.0, 1.0, 4.0, 4.0], n=64_000)
        s1_ratio = big.step_io["1:local-sort"].block_ios / small.step_io[
            "1:local-sort"
        ].block_ios
        assert s1_ratio > 2.5  # 4x data, super-linear passes
        # Step 2 is bounded by the machine constant L = c(p-1)*sum(perf)
        # block reads (one per sample worst case), whatever N is.
        L_total = 4 * 3 * 10  # oversample * (p-1) * sum(perf)
        for res in (small, big):
            assert res.step_io["2:pivots"].block_ios <= L_total + 4 * 4
        # ...and at the larger size step 1 clearly dominates step 2.
        assert (
            big.step_io["1:local-sort"].block_ios
            > 10 * big.step_io["2:pivots"].block_ios
        )

    def test_zero_copy_partition_step_does_only_searches(self):
        _, mat = _run([1, 2], [1.0, 2.0], materialize_partitions=True)
        _, zero = _run([1, 2], [1.0, 2.0], materialize_partitions=False)
        assert zero.step_io["3:partition"].blocks_written == 0
        assert mat.step_io["3:partition"].blocks_written > 0

    def test_step4_io_within_paper_bound(self):
        """Step 4: <= 2*l_i/B block I/Os cluster-wide (read at senders +
        write at receivers == 2 passes over the data)."""
        _, res = _run([1, 1], [1.0, 1.0])
        n_blocks = -(-res.n_items // 256)
        assert res.step_io["4:redistribute"].block_ios <= 2 * (n_blocks + res.perf.p * 2)

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_degraded_run_attributes_every_step(self, kernel):
        """A kill at step 4: the salvage and the remerge each get their
        own entry, and every step's I/O is the I/O the disks labelled
        with its name while it ran."""
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(2**14), seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048), kernel=kernel
        )
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=256),
            faults=FaultPlan(node_kills=[NodeKill(node=1, step=4)]),
        )
        assert res.faults.degraded
        assert set(res.step_io) == set(res.step_times)
        for step, io in res.step_io.items():
            assert io.block_ios == res.io.labels[step], step
        assert sum(s.block_ios for s in res.step_io.values()) == res.io.block_ios
        assert sum(s.item_ios for s in res.step_io.values()) == res.io.item_ios
        assert res.step_io["recover:remerge"].block_ios > 0


class TestTraceBalance:
    def test_correct_perf_balances_every_step(self):
        # Lockstep: per-step busy balance is a BSP attribution property;
        # under the event kernel a step's interval also absorbs queueing
        # behind the node's own write-behind from earlier steps.
        cluster, _ = _run([4, 4, 1, 1], [4.0, 4.0, 1.0, 1.0], n=32_000,
                          kernel="lockstep")
        blame = RunProfile.from_cluster(cluster).blame
        for step in ("1:local-sort", "3:partition", "5:final-merge"):
            assert blame.step(step).time_skew < 1.35

    def test_naive_perf_imbalances_local_sort(self):
        """On the loaded cluster with the naive vector, the slow nodes'
        step-1 work dominates the step (imbalance >> 1)."""
        perf = PerfVector([1, 1, 1, 1])
        n = perf.nearest_exact(32_000)
        data = make_benchmark(0, n, seed=1)
        cluster = Cluster(paper_cluster(memory_items=2048))
        sort_array(cluster, perf, data, PSRSConfig(block_items=256, message_items=2048))
        assert RunProfile.from_cluster(cluster).blame.step("1:local-sort").time_skew > 1.5
