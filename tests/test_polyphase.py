"""Tests for polyphase merge sort (the paper's sequential engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extsort.polyphase import (
    fibonacci_distribution,
    polyphase_item_io_bound,
    polyphase_sort,
    theoretical_phase_count,
)
from repro.pdm.memory import MemoryManager
from repro.workloads.generators import make_benchmark
from repro.workloads.records import is_sorted, verify_permutation

from tests.conftest import file_from_array, make_disk


def _sort(arr, B=8, capacity=40, n_tapes=4, **kw):
    disk = make_disk()
    mem = MemoryManager(capacity=capacity)
    src = file_from_array(np.asarray(arr, dtype=np.uint32), disk, B=B, mem=mem)
    res = polyphase_sort(src, disk, mem, n_tapes=n_tapes, **kw)
    assert mem.in_use == 0, "polyphase leaked memory reservations"
    return res, disk, src


class TestFibonacciDistribution:
    def test_three_tapes_is_fibonacci(self):
        # With T=3 the perfect totals are the Fibonacci numbers.
        totals = []
        for runs in [1, 2, 3, 5, 8, 13, 21]:
            counts, _ = fibonacci_distribution(runs, 3)
            totals.append(sum(counts))
        assert totals == [1, 2, 3, 5, 8, 13, 21]

    def test_exact_when_perfect(self):
        counts, level = fibonacci_distribution(8, 3)
        assert sum(counts) == 8
        assert counts == sorted(counts, reverse=True)

    def test_dummies_needed_when_imperfect(self):
        counts, _ = fibonacci_distribution(6, 3)
        assert sum(counts) == 8  # next Fibonacci up

    def test_level_counts_phases(self):
        assert theoretical_phase_count(1, 3) == 0
        assert theoretical_phase_count(2, 3) == 1
        assert theoretical_phase_count(13, 3) == 5

    def test_more_tapes_fewer_phases(self):
        assert theoretical_phase_count(100, 8) < theoretical_phase_count(100, 3)

    def test_rejects_two_tapes(self):
        with pytest.raises(ValueError, match="at least 3"):
            fibonacci_distribution(5, 2)


class TestPolyphaseSort:
    def test_sorts_random_input(self, rng):
        data = rng.integers(0, 2**31, 500)
        res, _, _ = _sort(data)
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())
        assert res.n_items == 500

    def test_empty_input(self):
        res, _, _ = _sort([])
        assert res.n_items == 0
        assert res.n_initial_runs == 0
        assert res.output.to_array().size == 0

    def test_in_core_input_single_run_no_phase(self, rng):
        data = rng.integers(0, 99, 20)
        res, _, _ = _sort(data, capacity=64)
        assert res.n_initial_runs == 1
        assert res.n_phases == 0
        assert is_sorted(res.output.to_array())

    def test_already_sorted_input(self):
        res, _, _ = _sort(np.arange(300))
        np.testing.assert_array_equal(res.output.to_array(), np.arange(300))

    def test_reverse_input(self):
        res, _, _ = _sort(np.arange(300)[::-1].copy())
        np.testing.assert_array_equal(res.output.to_array(), np.arange(300))

    def test_all_duplicates(self):
        res, _, _ = _sort(np.full(250, 7))
        np.testing.assert_array_equal(res.output.to_array(), np.full(250, 7))

    def test_phase_count_matches_theory(self, rng):
        data = rng.integers(0, 2**31, 1000)
        res, _, _ = _sort(data, capacity=40, n_tapes=4)
        # capacity 40, B 8 -> load 32 -> ceil(1000/32) = 32 runs
        assert res.n_initial_runs == 32
        assert res.n_phases == theoretical_phase_count(32, 4)

    def test_io_within_bound(self, rng):
        data = rng.integers(0, 2**31, 1000)
        res, disk, src = _sort(data, capacity=40, n_tapes=4)
        bound = polyphase_item_io_bound(1000, res.n_initial_runs, 4)
        measured = disk.stats.item_ios - src.n_items  # exclude input creation
        assert measured <= bound

    def test_replacement_selection_policy(self, rng):
        data = rng.integers(0, 2**31, 600)
        res, _, _ = _sort(data, run_policy="replacement")
        assert is_sorted(res.output.to_array())
        assert verify_permutation(data, res.output.to_array())

    def test_itemwise_engine(self, rng, reference_merge):
        data = rng.integers(0, 2**31, 300)
        res, _, _ = _sort(data)
        assert res.n_phases >= 1
        assert verify_permutation(data, res.output.to_array())

    def test_more_tapes_fewer_phases_measured(self, rng):
        data = rng.integers(0, 2**31, 2000)
        res3, _, _ = _sort(data, capacity=80, n_tapes=3)
        res8, _, _ = _sort(data, capacity=80, n_tapes=8)
        assert res8.n_phases < res3.n_phases
        assert verify_permutation(data, res8.output.to_array())

    def test_tapes_exceeding_memory_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds the memory budget"):
            _sort(rng.integers(0, 9, 100), capacity=24, n_tapes=5)  # m=3 < 5

    def test_budget_too_small_rejected(self, rng):
        with pytest.raises(ValueError, match="too small"):
            _sort(rng.integers(0, 9, 100), capacity=16, n_tapes=3)  # m=2

    def test_default_tape_count(self, rng):
        disk = make_disk()
        mem = MemoryManager(capacity=48)  # m=6
        src = file_from_array(rng.integers(0, 9, 100).astype(np.uint32), disk, 8, mem)
        res = polyphase_sort(src, disk, mem)
        assert res.n_tapes == 6

    def test_compute_hook(self, rng):
        ops = []
        disk = make_disk()
        mem = MemoryManager(capacity=40)
        src = file_from_array(rng.integers(0, 2**31, 400).astype(np.uint32), disk, 8, mem)
        polyphase_sort(src, disk, mem, n_tapes=4, compute=ops.append)
        assert sum(ops) > 400  # at least run-formation sort work

    def test_source_left_intact(self, rng):
        data = rng.integers(0, 2**31, 300)
        res, _, src = _sort(data)
        np.testing.assert_array_equal(src.to_array(), data.astype(np.uint32))


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(st.integers(0, 2**32 - 1), max_size=400),
    n_tapes=st.integers(3, 5),
    policy=st.sampled_from(["load", "replacement"]),
)
def test_property_polyphase_sorts(data, n_tapes, policy):
    res, _, _ = _sort(data, B=4, capacity=24, n_tapes=n_tapes, run_policy=policy)
    expected = np.sort(np.asarray(data, dtype=np.uint32))
    np.testing.assert_array_equal(res.output.to_array(), expected)


@pytest.mark.parametrize("bench", [0, 1, 2, 3, 4, 5, 6, 7])
def test_all_benchmarks_sort(bench):
    data = make_benchmark(bench, 700, seed=bench)
    res, _, _ = _sort(data, capacity=48, n_tapes=5)
    assert is_sorted(res.output.to_array())
    assert verify_permutation(data, res.output.to_array())
