"""Tests for run formation (memory-load and replacement selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extsort.runs import CollectingSink, form_runs
from repro.pdm.memory import MemoryManager
from repro.workloads.records import is_sorted, verify_permutation

from tests.conftest import file_from_array, make_disk


def _form(arr, B=8, capacity=32, policy="load", dtype=np.uint32):
    disk = make_disk()
    mem = MemoryManager(capacity=capacity)
    src = file_from_array(np.asarray(arr, dtype=dtype), disk, B=B, mem=mem, dtype=dtype)
    sink = CollectingSink(disk, B, np.dtype(dtype), mem)
    n = form_runs(src, sink, mem, policy=policy)
    assert mem.in_use == 0, "run formation leaked memory reservations"
    return n, sink.runs, src


class TestMemoryLoadRuns:
    def test_each_run_sorted(self, rng):
        data = rng.integers(0, 1000, 100)
        n, runs, _ = _form(data)
        assert n == len(runs)
        for r in runs:
            assert is_sorted(r.to_array())

    def test_union_is_permutation(self, rng):
        data = rng.integers(0, 1000, 100)
        _, runs, _ = _form(data)
        union = np.concatenate([r.to_array() for r in runs])
        assert verify_permutation(data, union)

    def test_run_count_matches_load_size(self, rng):
        # capacity 32, B 8 -> load of 24 items -> ceil(100/24) = 5 runs
        n, _, _ = _form(rng.integers(0, 1000, 100))
        assert n == 5

    def test_empty_input(self):
        n, runs, _ = _form([])
        assert n == 0 and runs == []

    def test_in_core_single_run(self, rng):
        n, _, _ = _form(rng.integers(0, 1000, 20), capacity=64)
        assert n == 1

    def test_too_small_budget_rejected(self, rng):
        with pytest.raises(ValueError, match="too small"):
            _form(rng.integers(0, 1000, 100), B=8, capacity=15)

    def test_ops_charged(self, rng):
        ops = []
        disk = make_disk()
        mem = MemoryManager(capacity=32)
        src = file_from_array(rng.integers(0, 1000, 100).astype(np.uint32), disk, 8)
        sink = CollectingSink(disk, 8, np.dtype(np.uint32), mem)
        form_runs(src, sink, mem, compute=ops.append)
        assert sum(ops) > 0


class TestReplacementSelection:
    def test_each_run_sorted_and_union_complete(self, rng):
        data = rng.integers(0, 10000, 200)
        n, runs, _ = _form(data, policy="replacement")
        for r in runs:
            assert is_sorted(r.to_array())
        union = np.concatenate([r.to_array() for r in runs])
        assert verify_permutation(data, union)

    def test_sorted_input_gives_one_run(self):
        data = np.arange(500, dtype=np.uint32)
        n, runs, _ = _form(data, policy="replacement")
        assert n == 1

    def test_reverse_input_gives_many_short_runs(self):
        data = np.arange(200, dtype=np.uint32)[::-1].copy()
        n, _, _ = _form(data, policy="replacement")
        # Reverse-sorted is the worst case: run length == heap size H=16.
        assert n >= 200 // 16

    def test_fewer_runs_than_memory_load_on_random(self, rng):
        data = rng.integers(0, 2**31, 2000)
        n_load, _, _ = _form(data, policy="load", capacity=64)
        n_rs, _, _ = _form(data, policy="replacement", capacity=64)
        # Expected ~2x longer runs -> about half the count.
        assert n_rs < n_load

    def test_empty_input(self):
        n, runs, _ = _form([], policy="replacement")
        assert n == 0

    def test_uint64_keys_above_2_63_survive(self):
        # np.asarray over Python ints mixing keys above and below 2**63
        # infers float64: the item writer rounded such chunks to 53 bits.
        data = np.random.default_rng(0).integers(
            0, 2**64 - 1, size=400, dtype=np.uint64, endpoint=True
        )
        assert (data > 2**63).any() and (data < 2**63).any()
        _, runs, _ = _form(data, B=128, capacity=1024, policy="replacement", dtype=np.uint64)
        union = np.concatenate([r.to_array() for r in runs])
        assert union.dtype == np.uint64
        assert verify_permutation(data, union)

    def test_too_small_budget_rejected(self, rng):
        with pytest.raises(ValueError, match="too small"):
            _form(rng.integers(0, 1000, 64), B=8, capacity=16, policy="replacement")

    def test_unknown_policy_rejected(self, rng):
        disk = make_disk()
        mem = MemoryManager(capacity=64)
        src = file_from_array(rng.integers(0, 9, 10).astype(np.uint32), disk, 8)
        sink = CollectingSink(disk, 8, np.dtype(np.uint32), mem)
        with pytest.raises(ValueError, match="unknown run policy"):
            form_runs(src, sink, mem, policy="bogus")  # type: ignore[arg-type]


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.integers(0, 2**32 - 1), max_size=300),
    policy=st.sampled_from(["load", "replacement"]),
)
def test_property_runs_partition_input(data, policy):
    n, runs, _ = _form(data, B=4, capacity=20, policy=policy)
    union = (
        np.concatenate([r.to_array() for r in runs])
        if runs
        else np.empty(0, dtype=np.uint32)
    )
    assert verify_permutation(np.asarray(data, dtype=np.uint32), union)
    for r in runs:
        assert is_sorted(r.to_array())
        assert r.n_items > 0
