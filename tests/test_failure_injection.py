"""Failure injection: faults mid-algorithm must propagate cleanly and
leave the memory accounting balanced (no phantom reservations).

Faults are injected through the first-class hooks
(:attr:`SimDisk.fault_hook` via :func:`repro.faults.install_disk_faults`,
:class:`repro.faults.FaultInjector` for whole clusters) — the old
``FaultyDisk`` subclass is gone.  An injected disk fault raises
:class:`repro.faults.DiskFaultError`, a :class:`repro.faults.FaultError`
and not an ``OSError`` (which stays a host error).
"""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster, homogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.distribution import distribution_sort
from repro.extsort.polyphase import polyphase_sort
from repro.faults import (
    DiskFault,
    DiskFaultError,
    FaultError,
    FaultPlan,
    RetryPolicy,
    install_disk_faults,
)
from repro.obs.bus import TelemetryBus
from repro.obs.events import FaultInjected
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark

from tests.conftest import file_from_array


def _faulty_setup(fail_after: int, n: int = 800, capacity: int = 64):
    disk = SimDisk(DiskParams(1e-4, 1e8), name="faulty")
    disk.bus = TelemetryBus()  # fault rows are recorded at every level
    mem = MemoryManager(capacity=capacity)
    data = make_benchmark(0, n, seed=0)
    src = file_from_array(data, disk, B=8, mem=mem)
    # Arm after setup: install_disk_faults counts I/Os from this call.
    counters = install_disk_faults(
        disk, [DiskFault(after_ios=fail_after, count=None)]
    )
    return disk, mem, src, counters


@pytest.mark.parametrize("fail_after", [1, 5, 25, 120, 400])
class TestSequentialEnginesUnderFaults:
    def test_polyphase_propagates_and_balances(self, fail_after):
        disk, mem, src, counters = _faulty_setup(fail_after)
        with pytest.raises(DiskFaultError, match="injected disk fault"):
            polyphase_sort(src, disk, mem, n_tapes=4)
        assert mem.in_use == 0, "leaked memory reservations after fault"
        # A permanent fault may fire again during cleanup I/O.
        assert counters.disk_faults >= 1
        assert sum(isinstance(e, FaultInjected) for e in disk.bus.events) == counters.disk_faults

    def test_balanced_propagates_and_balances(self, fail_after):
        disk, mem, src, counters = _faulty_setup(fail_after)
        with pytest.raises(DiskFaultError, match="injected disk fault"):
            balanced_merge_sort(src, disk, mem)
        assert mem.in_use == 0
        assert counters.disk_faults >= 1

    def test_distribution_propagates_and_balances(self, fail_after):
        disk, mem, src, counters = _faulty_setup(fail_after)
        with pytest.raises(DiskFaultError, match="injected disk fault"):
            distribution_sort(src, disk, mem)
        assert mem.in_use == 0
        assert counters.disk_faults >= 1


class TestDiskFaultErrorShape:
    def test_is_a_faulterror_not_an_oserror(self):
        disk, mem, src, _ = _faulty_setup(0)
        with pytest.raises(DiskFaultError) as exc_info:
            polyphase_sort(src, disk, mem, n_tapes=4)
        err = exc_info.value
        assert not isinstance(err, OSError)
        assert isinstance(err, FaultError)
        assert err.disk_name == "faulty"
        assert err.op in ("read", "write")
        assert err.io_index >= 1

    def test_faulted_io_is_not_counted(self):
        """The fault fires before the I/O is charged: counters and file
        contents are exactly as if the failing I/O never started."""
        disk, mem, src, _ = _faulty_setup(0)
        before = disk.stats.snapshot()
        n_items = src.n_items
        with pytest.raises(DiskFaultError):
            polyphase_sort(src, disk, mem, n_tapes=4)
        after = disk.stats.snapshot()
        assert after.blocks_read == before.blocks_read
        assert after.blocks_written == before.blocks_written
        assert src.n_items == n_items


class TestClusterUnderFaults:
    @pytest.mark.parametrize("fail_after", [3, 20, 60, 120])
    def test_psrs_fault_on_one_node(self, fail_after):
        """A permanent fault on one node aborts the whole (bulk-synchronous)
        sort; every node's accounting must still balance."""
        perf = PerfVector([1, 1])
        n = perf.nearest_exact(2_000)
        data = make_benchmark(0, n, seed=1)
        cluster = Cluster(homogeneous_cluster(2, memory_items=512))
        from repro.core.external_psrs import distribute_array, sort_distributed

        inputs = distribute_array(cluster, perf, data, 64)
        # Armed inside sort_distributed, i.e. after the setup writes.
        plan = FaultPlan(
            disk_faults=[DiskFault(node=1, after_ios=fail_after, count=None)]
        )
        with pytest.raises(DiskFaultError, match="injected disk fault"):
            sort_distributed(
                cluster, perf, inputs,
                PSRSConfig(block_items=64, message_items=256),
                faults=plan,
            )
        for nd in cluster.nodes:
            assert nd.mem.in_use == 0
        # The injector uninstalled its hooks on the way out.
        assert all(nd.disk.fault_hook is None for nd in cluster.nodes)
        assert cluster.step_observers == []

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_retried_attempt_writes_nothing_after_the_raise(self, kernel):
        """Node 1's disk faults once in step 3 and the step is retried.
        The faulted attempt's partition writer is abandoned, not flushed:
        a flush on the way out would charge one more block write (221
        block I/Os in step 3) to a file the retry discards."""
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(16_390), seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048),
            kernel=kernel,
        )
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=256),
            faults=FaultPlan(disk_faults=[DiskFault(node=1, after_ios=40)]),
            retry=RetryPolicy(max_attempts=3),
        )
        assert res.faults.disk_faults == 1 and res.faults.retries == {"3:partition": 1}
        assert res.step_io["3:partition"].block_ios == 220
        assert sum(nd.disk.stats.blocks_written for nd in cluster.nodes) == 340

    def test_fault_beyond_total_io_means_clean_completion(self):
        """A fault armed past the sort's total I/O never fires — and the
        run completes correctly (sanity check on the injection harness)."""
        perf = PerfVector([1, 1])
        n = perf.nearest_exact(2_000)
        data = make_benchmark(0, n, seed=1)
        cluster = Cluster(homogeneous_cluster(2, memory_items=512))
        plan = FaultPlan(disk_faults=[DiskFault(node=1, after_ios=10**9)])
        res = sort_array(
            cluster, perf, data,
            PSRSConfig(block_items=64, message_items=256),
            faults=plan,
        )
        from repro.workloads.records import verify_sorted_permutation

        verify_sorted_permutation(data, res.to_array())
        assert res.faults.total_faults == 0

    def test_fault_free_run_after_failed_run(self):
        """The cluster object remains usable after an aborted sort."""
        perf = PerfVector([1, 1])
        n = perf.nearest_exact(2_000)
        data = make_benchmark(0, n, seed=2)
        cluster = Cluster(homogeneous_cluster(2, memory_items=512))
        plan = FaultPlan(
            disk_faults=[DiskFault(node=0, after_ios=50, count=None)]
        )
        with pytest.raises(DiskFaultError):
            sort_array(
                cluster, perf, data,
                PSRSConfig(block_items=64, message_items=256),
                faults=plan,
            )
        # The failed run's hooks are gone; reset and run again clean.
        cluster.reset()
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=64, message_items=256)
        )
        from repro.workloads.records import verify_sorted_permutation

        verify_sorted_permutation(data, res.to_array())
