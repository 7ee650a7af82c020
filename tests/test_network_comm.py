"""Tests for link models, channel serialization and collectives."""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, homogeneous_cluster
from repro.cluster.network import FAST_ETHERNET, MYRINET, LinkModel, Network
from repro.cluster.node import SimNode
from repro.obs.events import step_seconds


def _nodes(p):
    return [SimNode(i) for i in range(p)]


class TestLinkModel:
    def test_message_time_formula(self):
        link = LinkModel(latency=1e-3, bandwidth=1e6)
        # 10_000 bytes in 4096-byte packets: 3 packets
        t = link.message_time(10_000, 4096)
        assert t == pytest.approx(3 * 1e-3 + 10_000 / 1e6)

    def test_empty_message_costs_latency(self):
        link = LinkModel(latency=1e-3, bandwidth=1e6)
        assert link.message_time(0, 1024) == pytest.approx(1e-3)

    def test_small_packets_latency_dominated(self):
        """The paper's in-text experiment: 8-int packets are catastrophic."""
        nbytes = 2**21 * 4  # 2M integers
        tiny = FAST_ETHERNET.message_time(nbytes, 8 * 4)
        big = FAST_ETHERNET.message_time(nbytes, 8192 * 4)
        assert tiny > 10 * big

    def test_myrinet_faster_than_ethernet(self):
        n = 10**6
        assert MYRINET.message_time(n, 32768) < FAST_ETHERNET.message_time(n, 32768)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            LinkModel(latency=0, bandwidth=0)
        link = LinkModel(latency=0, bandwidth=1)
        with pytest.raises(ValueError):
            link.message_time(-1, 10)
        with pytest.raises(ValueError):
            link.message_time(10, 0)


class TestNetwork:
    def test_transfer_advances_both_clocks(self):
        nodes = _nodes(2)
        net = Network(LinkModel(latency=0.01, bandwidth=1e6), 2, packet_bytes=1024)
        end = net.transfer(nodes[0], nodes[1], 1024)
        assert end == pytest.approx(0.01 + 1024 / 1e6)
        assert nodes[0].clock.time == pytest.approx(end)
        assert nodes[1].clock.time == pytest.approx(end)

    def test_self_transfer_free(self):
        nodes = _nodes(2)
        net = Network(FAST_ETHERNET, 2)
        net.transfer(nodes[0], nodes[0], 10**6)
        assert nodes[0].clock.time == 0.0
        assert net.messages_sent == 0

    def test_sender_channel_serializes(self):
        """Two sends from one node cannot overlap."""
        nodes = _nodes(3)
        net = Network(LinkModel(latency=0.0, bandwidth=1e6), 3, packet_bytes=1 << 20)
        net.transfer(nodes[0], nodes[1], 10**6)  # 1 s
        # Reset sender's clock to simulate it being "free" — channel must
        # still be busy until t=1.
        nodes[0].clock.reset()
        end = net.transfer(nodes[0], nodes[2], 10**6)
        assert end == pytest.approx(2.0)

    def test_receiver_channel_serializes(self):
        nodes = _nodes(3)
        net = Network(LinkModel(latency=0.0, bandwidth=1e6), 3, packet_bytes=1 << 20)
        net.transfer(nodes[1], nodes[0], 10**6)
        end = net.transfer(nodes[2], nodes[0], 10**6)
        assert end == pytest.approx(2.0)

    def test_counters(self):
        nodes = _nodes(2)
        net = Network(FAST_ETHERNET, 2)
        net.transfer(nodes[0], nodes[1], 500)
        assert net.messages_sent == 1
        assert net.bytes_sent == 500

    def test_reset(self):
        nodes = _nodes(2)
        net = Network(FAST_ETHERNET, 2)
        net.transfer(nodes[0], nodes[1], 500)
        net.reset()
        assert net.messages_sent == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Network(FAST_ETHERNET, 0)
        with pytest.raises(ValueError):
            Network(FAST_ETHERNET, 2, packet_bytes=0)


class TestSimComm:
    def _cluster(self, p=4) -> Cluster:
        return Cluster(homogeneous_cluster(p))

    def test_gather_delivers_payloads(self):
        c = self._cluster()
        payloads = [np.full(4, i, dtype=np.uint32) for i in range(4)]
        got = c.comm.gather(payloads, root=0)
        for i, arr in enumerate(got):
            np.testing.assert_array_equal(arr, payloads[i])
        assert c.network.messages_sent == 3  # root does not message itself

    def test_gather_charges_time(self):
        c = self._cluster()
        c.comm.gather([np.zeros(1000, dtype=np.uint32)] * 4, root=1)
        assert c.elapsed() > 0

    def test_bcast_binomial_message_count(self):
        c = self._cluster(8)
        c.comm.bcast(np.arange(10), root=0)
        assert c.network.messages_sent == 7  # p-1 messages in log p rounds

    def test_bcast_nonzero_root(self):
        c = self._cluster(4)
        out = c.comm.bcast(np.array([9, 9]), root=2)
        assert len(out) == 4
        for arr in out:
            np.testing.assert_array_equal(arr, [9, 9])

    def test_bcast_faster_than_linear_gather(self):
        """log2(p) rounds beat p-1 sequential sends for large p."""
        payload = np.zeros(10**5, dtype=np.uint32)
        c1 = self._cluster(16)
        c1.comm.bcast(payload, root=0)
        t_bcast = c1.elapsed()
        c2 = self._cluster(16)
        c2.comm.gather([payload] * 16, root=0)
        t_gather = c2.elapsed()
        assert t_bcast < t_gather

    def test_scatter(self):
        c = self._cluster()
        parts = [np.full(2, i) for i in range(4)]
        got = c.comm.scatter(parts, root=0)
        np.testing.assert_array_equal(got[3], [3, 3])

    def test_alltoallv_transposes(self):
        c = self._cluster(3)
        matrix = [
            [np.full(2, 10 * i + j, dtype=np.uint32) for j in range(3)]
            for i in range(3)
        ]
        recv = c.comm.alltoallv(matrix)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(recv[j][i], matrix[i][j])

    def test_alltoallv_none_entries(self):
        c = self._cluster(2)
        matrix = [[None, np.array([1])], [None, None]]
        recv = c.comm.alltoallv(matrix)
        assert recv[1][0] is not None
        assert recv[0][1] is None
        assert c.network.messages_sent == 1

    def test_alltoallv_shape_checked(self):
        c = self._cluster(3)
        with pytest.raises(ValueError, match="3x3"):
            c.comm.alltoallv([[None] * 2] * 3)

    def test_rank_checks(self):
        c = self._cluster(2)
        with pytest.raises(ValueError):
            c.comm.gather([np.array([1])] * 2, root=5)
        with pytest.raises(ValueError):
            c.comm.gather([np.array([1])], root=0)

    def test_payloads_are_copies(self):
        c = self._cluster(2)
        src = np.array([1, 2, 3])
        out = c.comm.bcast(src, root=0)
        out[1][0] = 99
        assert src[0] == 1


class TestSimCommEdgeCases:
    """The footprints the protocol schema/conformance model relies on."""

    def _cluster(self, p=4) -> Cluster:
        return Cluster(homogeneous_cluster(p))

    def test_self_send_is_free_and_publishes_nothing(self):
        """A rank-i -> rank-i send is a local move: data still arrives,
        but no message is charged and no NetTransfer event appears."""
        c = self._cluster(2)
        c.bus.set_level("io")
        got = c.comm.send(1, 1, np.array([7, 7]))
        np.testing.assert_array_equal(got, [7, 7])
        assert c.network.messages_sent == 0
        assert c.elapsed() == 0.0
        assert not [e for e in c.bus.events if e.kind == "net_transfer"]

    def test_cross_send_publishes_one_transfer(self):
        c = self._cluster(2)
        c.comm.send(0, 1, np.array([1, 2]))
        assert c.network.messages_sent == 1

    def test_alltoallv_empty_segments(self):
        """Zero-length segments are real (empty) messages, unlike None."""
        c = self._cluster(3)
        empty = np.array([], dtype=np.uint32)
        matrix = [
            [None if i == j else empty for j in range(3)] for i in range(3)
        ]
        recv = c.comm.alltoallv(matrix)
        # 6 off-diagonal zero-byte messages still pay per-message latency
        assert c.network.messages_sent == 6
        assert c.elapsed() > 0
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert recv[i][j] is None
                else:
                    assert recv[j][i] is not None and recv[j][i].size == 0

    def test_alltoallv_all_empty_diagonal_only(self):
        c = self._cluster(2)
        empty = np.array([], dtype=np.uint32)
        recv = c.comm.alltoallv([[empty, None], [None, empty]])
        assert c.network.messages_sent == 0  # diagonal moves are local
        assert recv[0][0] is not None and recv[0][0].size == 0

    def test_gather_on_noncontiguous_degraded_view(self):
        """Survivors {0, 2, 3}: view ranks are *positions*, so root=0 is
        global node 0 and the two messages come from nodes 2 and 3."""
        c = self._cluster(4)
        c.bus.set_level("io")
        view = c.view([0, 2, 3])
        payloads = [np.full(2, r, dtype=np.uint32) for r in view.ranks]
        got = view.comm.gather(payloads, root=0)
        assert len(got) == 3
        for pos, r in enumerate(view.ranks):
            np.testing.assert_array_equal(got[pos], [r, r])
        transfers = [e for e in c.bus.events if e.kind == "net_transfer"]
        assert {(e.src, e.dst) for e in transfers} == {(2, 0), (3, 0)}

    def test_scatter_on_noncontiguous_degraded_view(self):
        """Scatter by position: slice i goes to the i-th *survivor*."""
        c = self._cluster(5)
        c.bus.set_level("io")
        view = c.view([1, 3, 4])
        parts = [np.full(2, pos, dtype=np.uint32) for pos in range(3)]
        got = view.comm.scatter(parts, root=1)  # root position 1 = node 3
        np.testing.assert_array_equal(got[2], [2, 2])
        transfers = [e for e in c.bus.events if e.kind == "net_transfer"]
        assert {(e.src, e.dst) for e in transfers} == {(3, 1), (3, 4)}

    def test_bcast_on_noncontiguous_degraded_view(self):
        """Binomial tree in position space: sources are always holders,
        and only surviving nodes appear in the traffic."""
        c = self._cluster(6)
        c.bus.set_level("io")
        survivors = [0, 2, 3, 5]
        view = c.view(survivors)
        out = view.comm.bcast(np.array([4]), root=2)  # root = node 3
        assert len(out) == len(survivors)
        transfers = [e for e in c.bus.events if e.kind == "net_transfer"]
        assert len(transfers) == len(survivors) - 1
        holders = {3}
        for e in transfers:
            assert e.src in holders and e.dst not in holders
            assert e.src in survivors and e.dst in survivors
            holders.add(e.dst)
        assert holders == set(survivors)

    def test_degraded_view_rank_out_of_positions_rejected(self):
        """Passing a *global* rank where a position is expected fails
        loudly once the view is small enough (the REP206 bug class)."""
        c = self._cluster(4)
        view = c.view([0, 3])
        with pytest.raises(ValueError, match="out of range"):
            view.comm.gather([np.array([1])] * 2, root=3)  # 3 is a rank


class TestCluster:
    def test_step_records_trace(self):
        # Lockstep: this test asserts the barrier-per-step contract.
        c = Cluster(homogeneous_cluster(2), kernel="lockstep")
        with c.step("work"):
            c.nodes[0].compute(10**6)
        times = step_seconds(c.bus.events)
        assert list(times) == ["work"]
        assert times["work"] > 0
        # Barrier after the step: clocks equal.
        assert c.nodes[0].clock.time == c.nodes[1].clock.time

    def test_elapsed_is_max_clock(self):
        c = Cluster(homogeneous_cluster(3))
        c.nodes[2].compute(10**6)
        assert c.elapsed() == pytest.approx(c.nodes[2].clock.time)

    def test_reset(self):
        c = Cluster(homogeneous_cluster(2))
        with c.step("w"):
            c.nodes[0].compute(100)
        c.reset()
        assert c.elapsed() == 0.0
        assert c.bus.events == []

    def test_io_stats_aggregates(self):
        c = Cluster(homogeneous_cluster(2))
        c.nodes[0].disk.charge_write(4, 4)
        c.nodes[1].disk.charge_write(4, 4)
        assert c.io_stats().blocks_written == 2

    def test_spec_helpers(self):
        from repro.cluster.machine import heterogeneous_cluster, paper_cluster

        spec = paper_cluster()
        assert spec.p == 4
        assert [n.speed for n in spec.nodes] == [1.0, 1.0, 0.25, 0.25]
        het = heterogeneous_cluster([1, 2, 4])
        assert Cluster(het).speeds == [1, 2, 4]

    def test_spec_round_trips_through_a_dict(self):
        from repro.cluster.machine import ClusterSpec, paper_cluster

        spec = paper_cluster(memory_items=4096, link=MYRINET)
        assert ClusterSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="missing key 'link'"):
            ClusterSpec.from_dict({"nodes": spec.to_dict()["nodes"]})
        with pytest.raises(ValueError, match="not a machine record"):
            ClusterSpec.from_dict({**spec.to_dict(), "nodes": [{"speed": 1.0}]})

    def test_empty_cluster_rejected(self):
        from repro.cluster.machine import ClusterSpec

        with pytest.raises(ValueError):
            ClusterSpec(nodes=())
