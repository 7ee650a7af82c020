"""Runtime sanitizers: each SAN check fires precisely, clean runs stay clean."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizers import (
    SanitizerError,
    active_sanitizer,
    install_sanitizers,
    sanitized,
    uninstall_sanitizers,
)
from repro.cluster.machine import Cluster, homogeneous_cluster
from repro.cluster.network import FAST_ETHERNET, Network
from repro.cluster.node import SimNode
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark


def _raises_check(check: str):
    return pytest.raises(SanitizerError, match=rf"\[{check}\]")


class TestDiskChecks:
    def test_empty_io_charge_rejected(self):
        node = SimNode(0)
        with sanitized():
            with _raises_check("SAN-DISK-EMPTY"):
                node.disk.charge_read(0, 4)

    def test_degenerate_itemsize_rejected(self):
        node = SimNode(0)
        with sanitized():
            with _raises_check("SAN-DISK-EMPTY"):
                node.disk.charge_write(8, 0)

    def test_dead_node_disk_never_written(self):
        node = SimNode(0)
        node.mark_dead("3:partition")
        with sanitized():
            with _raises_check("SAN-DISK-DEAD-WRITE"):
                node.disk.charge_write(8, 4)

    def test_dead_node_disk_still_salvage_readable(self):
        node = SimNode(0)
        node.mark_dead("3:partition")
        with sanitized():
            node.disk.charge_read(8, 4)  # degraded-mode salvage is legal

    def test_unaccounted_block_io_detected(self):
        node = SimNode(0)
        with sanitized() as san:
            with _raises_check("SAN-DISK-UNACCOUNTED"):
                with san.expect_block_charge(node.disk, writes=1):
                    pass  # block moved, disk never charged

    def test_double_charged_block_io_detected(self):
        node = SimNode(0)
        with sanitized() as san:
            with _raises_check("SAN-DISK-UNACCOUNTED"):
                with san.expect_block_charge(node.disk, reads=1):
                    node.disk.charge_read(4, 4)
                    node.disk.charge_read(4, 4)

    def test_blockfile_io_is_exactly_once_charged(self):
        node = SimNode(0)
        with sanitized() as san:
            f = BlockFile(node.disk, 8, np.uint32)
            with BlockWriter(f, node.mem) as w:
                w.write(np.arange(32, dtype=np.uint32))
            for i in range(f.n_blocks):
                f.read_block(i)
            assert san.stats.block_ios == f.n_blocks * 2
            assert not san.trips


class TestNetworkChecks:
    def _net(self):
        src, dst = SimNode(0), SimNode(1)
        return Network(FAST_ETHERNET, 2), src, dst

    def test_message_to_dead_node_rejected(self):
        net, src, dst = self._net()
        dst.mark_dead("4:redistribute")
        with sanitized():
            with _raises_check("SAN-NET-DEAD-DST"):
                net.transfer(src, dst, 1024)

    def test_salvage_from_dead_node_is_legal(self):
        net, src, dst = self._net()
        src.mark_dead("4:redistribute")
        with sanitized():
            net.transfer(src, dst, 1024)  # reading the dead node's runs

    def test_torn_message_rejected(self):
        net, src, dst = self._net()
        with sanitized():
            with _raises_check("SAN-NET-TORN"):
                net.transfer(src, dst, 10, item_bytes=4)

    def test_whole_item_message_accepted(self):
        net, src, dst = self._net()
        with sanitized() as san:
            net.transfer(src, dst, 12, item_bytes=4)
            assert san.stats.transfers == 1
            assert not san.trips


class TestMemoryLeakCheck:
    def test_pinned_reservation_at_scope_end_is_a_leak(self):
        with _raises_check("SAN-MEM-LEAK"):
            with sanitized():
                mem = MemoryManager(128)
                mem.acquire(16)  # never released

    def test_balanced_usage_is_clean(self):
        with sanitized() as san:
            mem = MemoryManager(128)
            mem.acquire(16)
            mem.release(16)
            assert san.stats.managers_tracked == 1


class TestConfigAndStack:
    def test_leak_check_cannot_be_switched_off(self):
        with pytest.raises(TypeError):
            with sanitized(check_leaks=False):
                pass

    def test_stats_count_consulted_operations(self):
        node = SimNode(0)
        with sanitized() as san:
            node.disk.charge_read(8, 4)
            node.disk.charge_write(8, 4)
            assert san.stats.disk_charges == 2

    def test_innermost_sanitizer_wins(self):
        outer = install_sanitizers()
        try:
            with sanitized() as inner:
                assert active_sanitizer() is inner
            assert active_sanitizer() is outer
        finally:
            uninstall_sanitizers(outer)

    @pytest.mark.no_sanitizers
    def test_uninstall_without_install_is_an_error(self):
        assert active_sanitizer() is None
        with pytest.raises(RuntimeError):
            uninstall_sanitizers()

    def test_violation_stats_recorded(self):
        node = SimNode(0)
        with sanitized() as san:
            with pytest.raises(SanitizerError) as exc_info:
                node.disk.charge_read(0, 4)
            assert exc_info.value.check == "SAN-DISK-EMPTY"
            assert [t.check for t in san.trips] == ["SAN-DISK-EMPTY"]

    def test_sanitizer_error_is_assertion_error(self):
        # pytest.raises(AssertionError) therefore also catches SAN failures.
        assert issubclass(SanitizerError, AssertionError)

    def test_trips_survive_the_raise(self):
        # consumers that translate the error (the fuzzer classifying a
        # run) read the machine-readable record off .trips afterwards
        node = SimNode(0)
        with sanitized() as san:
            with pytest.raises(SanitizerError):
                node.disk.charge_read(0, 4)
            with pytest.raises(SanitizerError):
                node.disk.charge_read(0, 4)
        assert [t.check for t in san.trips] == ["SAN-DISK-EMPTY", "SAN-DISK-EMPTY"]
        assert "degenerate" in san.trips[0].message


class TestEndToEnd:
    def test_full_external_sort_runs_clean_under_sanitizers(self):
        perf = PerfVector([1, 2])
        n = perf.nearest_exact(4_096)
        data = make_benchmark(0, n, seed=3)
        cluster = Cluster(homogeneous_cluster(perf.p, memory_items=1024))
        with sanitized() as san:
            res = sort_array(
                cluster, perf, data, PSRSConfig(block_items=64, message_items=256)
            )
            assert not san.trips
            assert san.stats.block_ios > 0 and san.stats.transfers > 0
        np.testing.assert_array_equal(res.to_array(), np.sort(data))
