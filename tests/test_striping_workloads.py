"""Tests for D-disk striping and the workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.striping import StripedFile
from repro.workloads.generators import BENCHMARKS, make_benchmark
from repro.workloads.records import (
    checksum,
    is_sorted,
    key_dtype,
    verify_permutation,
    verify_sorted_permutation,
)

from tests.conftest import make_disk


class TestStripedFile:
    def _make(self, D=4, B=8):
        disks = [make_disk(name=f"d{i}") for i in range(D)]
        return StripedFile(disks, B=B), disks

    def test_round_robin_placement(self):
        sf, disks = self._make(D=4)
        sf.append_stripe([np.full(8, i) for i in range(4)])
        sf.append_stripe([np.full(8, 4 + i) for i in range(4)])
        for d in disks:
            assert d.stats.blocks_written == 2
        np.testing.assert_array_equal(
            sf.to_array(), np.repeat(np.arange(8), 8)
        )

    def test_stripe_time_is_max_not_sum(self):
        sf, disks = self._make(D=4)
        t = sf.append_stripe([np.arange(8) for _ in range(4)])
        # One parallel write of 4 blocks costs ~1 block time, not 4.
        single = disks[0].params.access_cost(8 * 4)
        assert t == pytest.approx(single)

    def test_read_stripe_roundtrip(self):
        sf, _ = self._make(D=3)
        data = np.arange(50, dtype=np.uint32)
        blocks = [data[i : i + 8] for i in range(0, 50, 8)]
        for i in range(0, len(blocks), 3):
            sf.append_stripe(blocks[i : i + 3])
        got = []
        for stripe, t in sf.iter_stripes():
            assert t > 0
            got.extend(np.concatenate(stripe).tolist())
        np.testing.assert_array_equal(got, data)

    def test_out_of_range_stripe(self):
        sf, _ = self._make()
        with pytest.raises(IndexError):
            sf.read_stripe(0)

    def test_oversized_stripe_rejected(self):
        sf, _ = self._make(D=2)
        with pytest.raises(ValueError):
            sf.append_stripe([np.arange(8)] * 3)

    def test_needs_a_disk(self):
        with pytest.raises(ValueError):
            StripedFile([], B=8)

    def test_aggregate_stats(self):
        sf, _ = self._make(D=2)
        sf.append_stripe([np.arange(8), np.arange(8)])
        assert sf.stats().blocks_written == 2
        assert sf.stats().items_written == 16

    def test_parallelism_speedup_vs_single_disk(self):
        """PDM Fig. 1(a): the same data on D disks takes ~1/D the time."""
        data = [np.arange(8, dtype=np.uint32) for _ in range(16)]
        sf1, _ = self._make(D=1)
        t1 = sum(sf1.append_stripe([b]) for b in data)
        sf4, _ = self._make(D=4)
        t4 = sum(sf4.append_stripe(data[i : i + 4]) for i in range(0, 16, 4))
        assert t4 == pytest.approx(t1 / 4)


class TestWorkloads:
    def test_eight_benchmarks_registered(self):
        assert sorted(BENCHMARKS) == list(range(8))

    @pytest.mark.parametrize("bench", list(range(8)))
    def test_size_and_dtype(self, bench):
        out = make_benchmark(bench, 257, seed=1)
        assert out.size == 257
        assert out.dtype == np.uint32

    def test_deterministic_in_seed(self):
        a = make_benchmark(0, 100, seed=7)
        b = make_benchmark(0, 100, seed=7)
        c = make_benchmark(0, 100, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_by_name(self):
        np.testing.assert_array_equal(
            make_benchmark("uniform", 50, seed=3), make_benchmark(0, 50, seed=3)
        )

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            make_benchmark(42, 10)
        with pytest.raises(KeyError):
            make_benchmark("nope", 10)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            make_benchmark(0, -1)

    def test_sorted_is_sorted(self):
        assert is_sorted(make_benchmark("sorted", 500))

    def test_reverse_is_reverse_sorted(self):
        arr = make_benchmark("reverse", 500)
        assert is_sorted(arr[::-1])

    def test_all_equal_has_one_value(self):
        assert np.unique(make_benchmark("all_equal", 300)).size == 1

    def test_zipf_has_heavy_duplicates(self):
        arr = make_benchmark("zipf", 10_000, seed=2)
        assert np.unique(arr).size < arr.size // 10

    def test_int64_dtype(self):
        arr = make_benchmark(0, 100, dtype=np.int64)
        assert arr.dtype == np.int64


class TestRecords:
    def test_key_dtype_accepts_supported(self):
        assert key_dtype(np.uint32) == np.dtype(np.uint32)
        assert key_dtype("int64") == np.dtype(np.int64)

    def test_key_dtype_rejects_float(self):
        with pytest.raises(TypeError, match="unsupported"):
            key_dtype(np.float64)

    def test_is_sorted(self):
        assert is_sorted([1, 2, 2, 3])
        assert not is_sorted([2, 1])
        assert is_sorted([])

    def test_verify_permutation(self):
        assert verify_permutation([3, 1, 2], [1, 2, 3])
        assert not verify_permutation([1, 2, 2], [1, 2, 3])
        assert not verify_permutation([1, 2], [1, 2, 3])

    def test_verify_sorted_permutation_errors(self):
        with pytest.raises(AssertionError, match="not sorted"):
            verify_sorted_permutation([1, 2], [2, 1])
        with pytest.raises(AssertionError, match="size mismatch"):
            verify_sorted_permutation([1, 2], [1])
        with pytest.raises(AssertionError, match="not a permutation"):
            verify_sorted_permutation([1, 2], [1, 3])
        verify_sorted_permutation([2, 1], [1, 2])  # happy path

    def test_verify_sorted_permutation_rejects_a_changed_dtype(self):
        keys = np.array([3, -1, 2], dtype=np.int32)
        with pytest.raises(AssertionError, match="dtype mismatch: input int32, output int64"):
            verify_sorted_permutation(keys, np.sort(keys).astype(np.int64))

    def test_checksum_order_independent(self, rng):
        arr = rng.integers(0, 2**32, 500).astype(np.uint32)
        shuffled = arr.copy()
        rng.shuffle(shuffled)
        assert checksum(arr) == checksum(shuffled)

    def test_checksum_multiplicity_sensitive(self):
        assert checksum(np.array([5, 5, 7])) != checksum(np.array([5, 7, 7]))

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=100))
    def test_checksum_verify_agrees_with_exact(self, items):
        arr = np.asarray(items, dtype=np.uint32)
        out = np.sort(arr)
        verify_sorted_permutation(arr, out, exact=False)
