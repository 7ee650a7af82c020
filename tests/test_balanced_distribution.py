"""Tests for the balanced merge sort and distribution sort baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extsort.balanced import balanced_merge_sort
from repro.extsort.distribution import distribution_sort
from repro.extsort.polyphase import polyphase_sort
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import is_sorted, verify_permutation

from tests.conftest import file_from_array, make_disk


def _setup(arr, B=8, capacity=48):
    disk = make_disk()
    mem = MemoryManager(capacity=capacity)
    src = file_from_array(np.asarray(arr, dtype=np.uint32), disk, B=B, mem=mem)
    return disk, mem, src


class TestBalancedMergeSort:
    def test_sorts_random(self, rng):
        data = rng.integers(0, 2**31, 800)
        disk, mem, src = _setup(data)
        res = balanced_merge_sort(src, disk, mem)
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())
        assert mem.in_use == 0

    def test_empty(self):
        disk, mem, src = _setup([])
        res = balanced_merge_sort(src, disk, mem)
        assert res.n_items == 0

    def test_pass_count(self, rng):
        data = rng.integers(0, 2**31, 1000)
        disk, mem, src = _setup(data, capacity=40)  # load 32 -> 32 runs, k=4
        res = balanced_merge_sort(src, disk, mem, merge_order=4)
        assert res.n_initial_runs == 32
        assert res.n_passes == 3  # ceil(log4(32)) = 3

    def test_explicit_order_too_big_rejected(self, rng):
        disk, mem, src = _setup(rng.integers(0, 9, 100), capacity=40)
        with pytest.raises(ValueError, match="needs"):
            balanced_merge_sort(src, disk, mem, merge_order=10)

    def test_order_below_two_rejected(self, rng):
        disk, mem, src = _setup(rng.integers(0, 9, 100))
        with pytest.raises(ValueError, match="merge order"):
            balanced_merge_sort(src, disk, mem, merge_order=1)

    def test_binary_merge(self, rng):
        data = rng.integers(0, 2**31, 300)
        disk, mem, src = _setup(data)
        res = balanced_merge_sort(src, disk, mem, merge_order=2)
        assert verify_permutation(data, res.output.to_array())

    def test_more_io_than_polyphase_same_arity(self, rng):
        """Polyphase's point: fewer item I/Os than a balanced sort of the
        same arity because phases don't move every run."""
        data = rng.integers(0, 2**31, 4000).astype(np.uint32)

        disk_b, mem_b, src_b = _setup(data, B=8, capacity=40)
        base_b = disk_b.stats.item_ios
        balanced_merge_sort(src_b, disk_b, mem_b, merge_order=3)
        io_balanced = disk_b.stats.item_ios - base_b

        disk_p, mem_p, src_p = _setup(data, B=8, capacity=40)
        base_p = disk_p.stats.item_ios
        polyphase_sort(src_p, disk_p, mem_p, n_tapes=4)
        io_polyphase = disk_p.stats.item_ios - base_p

        assert io_polyphase < io_balanced


class TestDistributionSort:
    def test_sorts_random(self, rng):
        data = rng.integers(0, 2**31, 800)
        disk, mem, src = _setup(data)
        res = distribution_sort(src, disk, mem)
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())
        assert mem.in_use == 0

    def test_empty(self):
        disk, mem, src = _setup([])
        res = distribution_sort(src, disk, mem)
        assert res.n_items == 0

    def test_in_core_base_case(self, rng):
        data = rng.integers(0, 99, 30)
        disk, mem, src = _setup(data, capacity=64)
        res = distribution_sort(src, disk, mem)
        assert res.max_depth == 0
        assert is_sorted(res.output.to_array())

    def test_all_equal_keys_terminate(self):
        # A single duplicated key defeats splitters; the constant-bucket
        # path must terminate without infinite recursion.
        data = np.full(600, 42)
        disk, mem, src = _setup(data)
        res = distribution_sort(src, disk, mem)
        np.testing.assert_array_equal(res.output.to_array(), data)

    def test_two_values_terminate(self, rng):
        data = rng.choice([3, 9], size=700).astype(np.uint32)
        disk, mem, src = _setup(data)
        res = distribution_sort(src, disk, mem)
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())

    def test_budget_too_small_rejected(self, rng):
        disk, mem, src = _setup(rng.integers(0, 9, 100), capacity=24)
        with pytest.raises(ValueError, match="too small"):
            distribution_sort(src, disk, mem)

    def test_source_left_intact(self, rng):
        data = rng.integers(0, 2**31, 500).astype(np.uint32)
        disk, mem, src = _setup(data)
        distribution_sort(src, disk, mem)
        np.testing.assert_array_equal(src.to_array(), data)

    @pytest.mark.parametrize("bench", [0, 2, 3, 5, 7])
    def test_adversarial_benchmarks(self, bench):
        data = make_benchmark(bench, 600, seed=bench)
        disk, mem, src = _setup(data)
        res = distribution_sort(src, disk, mem)
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())


@settings(max_examples=20, deadline=None)
@given(data=st.lists(st.integers(0, 2**32 - 1), max_size=400))
def test_property_three_engines_agree(data):
    expected = np.sort(np.asarray(data, dtype=np.uint32))

    disk, mem, src = _setup(data, B=4, capacity=32)
    np.testing.assert_array_equal(
        balanced_merge_sort(src, disk, mem).output.to_array(), expected
    )
    disk, mem, src = _setup(data, B=4, capacity=32)
    np.testing.assert_array_equal(
        distribution_sort(src, disk, mem).output.to_array(), expected
    )
    disk, mem, src = _setup(data, B=4, capacity=32)
    np.testing.assert_array_equal(
        polyphase_sort(src, disk, mem, n_tapes=4).output.to_array(), expected
    )
