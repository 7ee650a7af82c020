"""Tests for regular sampling and pivot selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.perf import PerfVector
from repro.core.sampling import (
    pivot_ranks,
    random_sample,
    read_samples,
    regular_positions,
    regular_sample,
    sample_count,
    select_pivots,
)
from repro.pdm.memory import MemoryManager

from tests.conftest import file_from_array, make_disk


class TestSampleCount:
    def test_paper_literal(self):
        assert sample_count(4, 4, oversample=1) == 12  # (p-1)*perf

    def test_default_oversample(self):
        assert sample_count(1, 4) == 12
        assert sample_count(4, 4) == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_count(0, 4)
        with pytest.raises(ValueError):
            sample_count(1, 4, oversample=0)


class TestSampleInterval:
    def test_identical_across_nodes_under_eq2(self):
        """Eq. 2 makes the offset node-independent (the paper's remark)."""
        perf = PerfVector([1, 1, 4, 4])
        n = perf.admissible_size(100)
        portions = perf.exact_portions(n)
        offs = set()
        for i, l in enumerate(portions):
            pos = regular_positions(l, perf[i], perf.p, oversample=1)
            offs |= set(np.diff(pos, prepend=-1).tolist())
        assert len(offs) == 1

    def test_floor_one(self):
        # l_i = 2 < L_i = 48: the offset floors to 1 and every item is sampled
        np.testing.assert_array_equal(regular_positions(2, 4, 4), [0, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            regular_positions(-1, 1, 4)


class TestPositions:
    def test_basic(self):
        # L_i = (p-1) * perf_i = 3 samples at offset 12 // 3 = 4
        np.testing.assert_array_equal(
            regular_positions(12, 1, 4, oversample=1), [3, 7, 11]
        )

    def test_caps_at_max_samples(self):
        assert regular_positions(100, 1, 4, oversample=1).size == 3

    def test_all_below_l(self):
        pos = regular_positions(10, 4, 4)  # L_i = 48 > l_i
        assert pos.size == 10
        assert pos.max() < 10

    def test_empty_cases(self):
        assert regular_positions(0, 1, 4).size == 0
        assert regular_positions(10, 1, 1).size == 0  # one node: no samples

    def test_validation(self):
        with pytest.raises(ValueError):
            regular_positions(10, 0, 4)
        with pytest.raises(ValueError):
            regular_positions(10, 1, 4, oversample=0)

    @given(st.integers(0, 500), st.integers(1, 8), st.integers(1, 16), st.integers(1, 8))
    def test_property_positions_valid(self, l_i, perf_i, p, oversample):
        pos = regular_positions(l_i, perf_i, p, oversample)
        L = sample_count(perf_i, p, oversample)
        assert pos.size == min(L, l_i)
        if pos.size:
            off = max(1, l_i // L)
            assert pos.min() >= 0 and pos.max() < l_i
            assert np.all(np.diff(pos, prepend=-1) == off)


class TestReadSamples:
    def test_reads_correct_items(self, disk):
        f = file_from_array(np.arange(100, dtype=np.uint32) * 2, disk, B=8)
        got = read_samples(f, [0, 7, 8, 99], MemoryManager(None))
        np.testing.assert_array_equal(got, [0, 14, 16, 198])

    def test_charges_one_read_per_distinct_block(self, disk):
        f = file_from_array(np.arange(64, dtype=np.uint32), disk, B=8)
        before = disk.stats.blocks_read
        read_samples(f, [0, 1, 2, 9, 10], MemoryManager(None))
        assert disk.stats.blocks_read == before + 2  # blocks 0 and 1

    def test_out_of_range(self, disk):
        f = file_from_array(np.arange(10, dtype=np.uint32), disk, B=8)
        with pytest.raises(IndexError):
            read_samples(f, [10], MemoryManager(None))

    def test_empty(self, disk):
        f = file_from_array(np.arange(10, dtype=np.uint32), disk, B=8)
        assert read_samples(f, [], MemoryManager(None)).size == 0

    def test_duplicate_positions_read_their_block_once(self, disk):
        f = file_from_array(np.arange(64, dtype=np.uint32) * 3, disk, B=8)
        before = disk.stats.blocks_read
        got = read_samples(f, [3, 3, 9, 9, 9, 63], MemoryManager(None))
        np.testing.assert_array_equal(got, [9, 9, 27, 27, 27, 189])
        assert disk.stats.blocks_read == before + 3  # blocks 0, 1 and 7

    def test_unsorted_positions_rejected(self, disk):
        f = file_from_array(np.arange(64, dtype=np.uint32), disk, B=8)
        with pytest.raises(ValueError, match="non-decreasing"):
            read_samples(f, [9, 1], MemoryManager(None))


class TestRegularSample:
    def test_sample_is_sorted_subset(self, disk):
        data = np.sort(np.random.default_rng(0).integers(0, 10**6, 4000)).astype(np.uint32)
        f = file_from_array(data, disk, B=64)
        perf = PerfVector([1, 1, 4, 4])
        s = regular_sample(f, perf, 2, MemoryManager(None))
        assert s.size == sample_count(4, 4)
        assert np.all(np.diff(s.astype(np.int64)) >= 0)
        assert np.all(np.isin(s, data))

    def test_single_node_no_samples(self, disk):
        f = file_from_array(np.arange(10, dtype=np.uint32), disk, B=8)
        assert regular_sample(f, PerfVector([1]), 0, MemoryManager(None)).size == 0

    def test_node_out_of_range(self, disk):
        f = file_from_array(np.arange(10, dtype=np.uint32), disk, B=8)
        with pytest.raises(IndexError):
            regular_sample(f, PerfVector([1, 1]), 2, MemoryManager(None))


class TestRandomSample:
    def test_size_and_membership(self, disk, rng):
        data = np.sort(rng.integers(0, 10**6, 500)).astype(np.uint32)
        f = file_from_array(data, disk, B=32)
        s = random_sample(f, 20, MemoryManager(None), rng)
        assert s.size == 20
        assert np.all(np.isin(s, data))

    def test_empty_cases(self, disk, rng):
        f = file_from_array(np.arange(5, dtype=np.uint32), disk, B=8)
        assert random_sample(f, 0, MemoryManager(None), rng).size == 0
        with pytest.raises(ValueError):
            random_sample(f, -1, MemoryManager(None), rng)


class TestPivotRanks:
    def test_homogeneous_regular(self):
        perf = PerfVector([1, 1, 1, 1])
        # c=1: ranks (p-1)*j - 1 = [2, 5, 8] of 12 candidates
        np.testing.assert_array_equal(pivot_ranks(perf, oversample=1), [2, 5, 8])

    def test_hetero(self):
        perf = PerfVector([1, 1, 4, 4])
        # c=1: 3*cumsum([1,2,6]) - 1 = [2, 5, 17] of 30
        np.testing.assert_array_equal(pivot_ranks(perf, oversample=1), [2, 5, 17])

    def test_single_node(self):
        assert pivot_ranks(PerfVector([3])).size == 0

    def test_ranks_within_candidate_range(self):
        for vals in ([1, 1], [5, 3, 2], [1, 1, 4, 4], [8, 5, 3, 1]):
            perf = PerfVector(vals)
            for c in (1, 2, 4):
                ranks = pivot_ranks(perf, oversample=c)
                assert ranks.size == perf.p - 1
                assert ranks.min() >= 0
                assert ranks.max() < c * (perf.p - 1) * perf.total


class TestSelectPivots:
    def test_count_and_order(self, rng):
        perf = PerfVector([1, 1, 4, 4])
        cand = rng.integers(0, 10**6, sample_count(1, 4) * 10).astype(np.uint32)
        piv = select_pivots(cand, perf)
        assert piv.size == 3
        assert np.all(np.diff(piv.astype(np.int64)) >= 0)

    def test_single_node_empty(self):
        assert select_pivots(np.array([1, 2]), PerfVector([1])).size == 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            select_pivots(np.array([]), PerfVector([1, 1]))

    def test_compute_hook(self, rng):
        ops = []
        select_pivots(rng.integers(0, 99, 64), PerfVector([1, 1]), compute=ops.append)
        assert sum(ops) > 0


class TestEndToEndBalance:
    """The statistical property the whole scheme exists for."""

    @pytest.mark.parametrize(
        "perf_vals,bound",
        [([1, 1, 1, 1], 1.10), ([1, 1, 4, 4], 1.15), ([8, 5, 3, 1], 1.15)],
    )
    def test_partition_balance_on_uniform(self, perf_vals, bound):
        perf = PerfVector(perf_vals)
        n = perf.nearest_admissible(60_000)
        rng = np.random.default_rng(7)
        data = rng.integers(0, 2**32, n, dtype=np.uint32)
        portions, start = [], 0
        for l in perf.portions(n):
            portions.append(np.sort(data[start : start + l]))
            start += l
        cands = []
        for i, s in enumerate(portions):
            cands.append(s[regular_positions(s.size, perf[i], perf.p)])
        pivots = select_pivots(np.concatenate(cands), perf)
        received = np.zeros(perf.p)
        for s in portions:
            cuts = np.concatenate(
                ([0], np.searchsorted(s, pivots, side="right"), [s.size])
            )
            received += np.diff(cuts)
        expansions = [
            received[i] / perf.optimal_share(n, i) for i in range(perf.p)
        ]
        assert max(expansions) < bound


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.integers(1, 6), min_size=2, max_size=5),
    seed=st.integers(0, 1000),
)
def test_property_pivots_respect_two_x_bound(vals, seed):
    """PSRS theorem: no partition exceeds twice its optimal share (+d)."""
    perf = PerfVector(vals)
    n = perf.nearest_admissible(5_000)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2**31, n, dtype=np.uint32)
    portions, start = [], 0
    for l in perf.portions(n):
        portions.append(np.sort(data[start : start + l]))
        start += l
    cands = []
    for i, s in enumerate(portions):
        cands.append(s[regular_positions(s.size, perf[i], perf.p)])
    pivots = select_pivots(np.concatenate(cands), perf)
    received = np.zeros(perf.p)
    for s in portions:
        cuts = np.concatenate(([0], np.searchsorted(s, pivots, side="right"), [s.size]))
        received += np.diff(cuts)
    from repro.core.theory import max_duplicate_count

    d = max_duplicate_count(data)
    for i in range(perf.p):
        assert received[i] <= 2 * perf.optimal_share(n, i) + d + perf.p
