"""Additional property-based tests on structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import LinkModel
from repro.core.perf import PerfVector
from repro.core.quantiles import boundary_targets
from repro.core.theory import IDEAL_SHARE, load_balance, load_balance_bound
from repro.extsort.polyphase import fibonacci_distribution, theoretical_phase_count
from repro.metrics.expansion import partition_stats
from repro.obs.audit import RunMeta, node_envs
from repro.pdm.model import PDMConfig
from repro.pdm.sym import Sym, sort_cost


class TestFibonacciProperties:
    @given(st.integers(1, 5000), st.integers(3, 10))
    def test_distribution_covers_and_is_minimal(self, n_runs, n_tapes):
        counts, level = fibonacci_distribution(n_runs, n_tapes)
        assert len(counts) == n_tapes - 1
        assert sum(counts) >= n_runs
        assert all(c >= 0 for c in counts)
        assert counts == sorted(counts, reverse=True)
        if level > 0:
            # Minimality: the previous level did not cover n_runs.
            prev, _ = fibonacci_distribution(sum(counts), n_tapes)
            a = [1] + [0] * (n_tapes - 2)
            for _ in range(level - 1):
                a = [a[0] + a[i + 1] for i in range(n_tapes - 2)] + [a[0]]
            assert sum(a) < n_runs

    @given(st.integers(2, 5000), st.integers(3, 10))
    def test_phase_count_monotone_in_tapes(self, n_runs, n_tapes):
        more_tapes = theoretical_phase_count(n_runs, n_tapes + 1)
        fewer_tapes = theoretical_phase_count(n_runs, n_tapes)
        assert more_tapes <= fewer_tapes

    @given(st.integers(1, 2000), st.integers(3, 8))
    def test_phase_count_monotone_in_runs(self, n_runs, n_tapes):
        assert theoretical_phase_count(n_runs, n_tapes) <= theoretical_phase_count(
            n_runs + 1, n_tapes
        )


class TestLinkModelProperties:
    @given(
        nbytes=st.integers(0, 10**8),
        packet=st.integers(1, 10**6),
        latency=st.floats(0, 1e-2),
        bw=st.floats(1e3, 1e10),
    )
    def test_message_time_nonnegative_and_monotone(self, nbytes, packet, latency, bw):
        link = LinkModel(latency=latency, bandwidth=bw)
        t = link.message_time(nbytes, packet)
        assert t >= 0
        assert link.message_time(nbytes + packet, packet) >= t

    @given(nbytes=st.integers(1, 10**6), p1=st.integers(1, 10**4), p2=st.integers(1, 10**4))
    def test_bigger_packets_never_slower(self, nbytes, p1, p2):
        link = LinkModel(latency=1e-4, bandwidth=1e7)
        small, big = min(p1, p2), max(p1, p2)
        assert link.message_time(nbytes, big) <= link.message_time(nbytes, small)


class TestBoundaryTargetProperties:
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=8), st.integers(0, 10**6))
    def test_targets_monotone_within_n(self, vals, n):
        perf = PerfVector(vals)
        t = boundary_targets(perf, n)
        assert len(t) == perf.p - 1
        assert t == sorted(t)
        assert all(0 <= x <= n for x in t)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(0, 10**6))
    def test_load_balance_bound_scales(self, vals, n):
        perf = PerfVector(vals)
        total = sum(
            load_balance_bound(n, perf, i) for i in range(perf.p)
        )
        assert total == pytest.approx(2.0 * n)


class TestNumericFacesOfTheBounds:
    """``step1_io_bound`` / ``load_balance_bound`` are the symbolic
    builders evaluated, on any environment the auditor can build."""

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(0, 10**7),
        st.integers(1, 512),
        st.integers(3, 200),
        st.integers(0, 10**4),
    )
    def test_faces_equal_builder_eval(self, vals, n, block, m_blocks, d):
        perf = PerfVector(vals)
        meta = RunMeta(n_items=n, perf=tuple(vals), memory_items=m_blocks * block,
                       block_items=block, oversample=4, d_duplicates=d)
        cfg = PDMConfig(N=max(n, 1), M=meta.memory_items, B=block)
        for i, env in enumerate(node_envs(meta)):
            assert cfg.step1_io_bound(int(env["l"])) == sort_cost(Sym("l")).eval(env)
            assert load_balance_bound(n, perf, i, d) == (
                load_balance(IDEAL_SHARE).eval(env)
            )
            # and the closed forms they replaced, to the last bit
            assert cfg.step1_io_bound(int(env["l"])) == (
                2.0 * env["l"] * (1 + cfg.merge_passes(int(env["l"])))
            )
            assert load_balance_bound(n, perf, i, d) == (
                2.0 * perf.optimal_share(n, i) + d
            )


class TestPartitionStatsProperties:
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=6).flatmap(
            lambda vals: st.tuples(
                st.just(vals),
                st.lists(
                    st.integers(0, 10**5), min_size=len(vals), max_size=len(vals)
                ),
            )
        )
    )
    def test_smax_at_least_one_when_sizes_cover_n(self, vals_sizes):
        vals, sizes = vals_sizes
        perf = PerfVector(vals)
        n = sum(sizes)
        stats = partition_stats(sizes, perf, n)
        if n > 0:
            # Some node is at or above its optimal share.
            assert stats.s_max >= 1.0 - 1e-9
        assert stats.max == max(sizes)
        assert stats.mean == pytest.approx(np.mean(sizes))
