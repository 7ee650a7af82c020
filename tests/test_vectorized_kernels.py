"""Property tests for the vectorized hot-path kernels.

Three kernels got numpy block-at-a-time implementations in the event-
kernel PR; each is checked here against its scalar reference:

* :func:`~repro.extsort.losertree.kway_merge_sorted` — equivalent to a
  stable sort of the concatenation (ties keep part order), across
  dtypes including the signed/unsigned twin pairs, for two parts
  (``TestMergeTwoSorted``) and for k;
* :func:`~repro.core.partition.partition_offsets` — the joint
  multi-pivot descent returns exactly what per-pivot
  :func:`~repro.core.partition.lower_bound_offset` binary searches
  return, with no more block reads than the per-pivot bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import lower_bound_offset, partition_offsets
from repro.extsort.losertree import kway_merge_sorted
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager

DTYPES = [np.uint16, np.uint32, np.int32, np.uint64, np.int64]

# Small value ranges force heavy duplication; int dtypes get negatives.
def _values(dtype):
    info = np.iinfo(dtype)
    lo = max(info.min, -50)
    hi = min(info.max, 100)
    return st.integers(min_value=int(lo), max_value=int(hi))


@st.composite
def sorted_arrays(draw, dtype, max_size=64):
    vals = draw(st.lists(_values(dtype), min_size=0, max_size=max_size))
    return np.sort(np.array(vals, dtype=dtype))


class TestMergeTwoSorted:
    """The two-part case of the kernel (what ``merge_two_sorted`` was)."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_stable_concat_sort(self, dtype, data):
        a = data.draw(sorted_arrays(dtype))
        b = data.draw(sorted_arrays(dtype))
        out = kway_merge_sorted([a, b])
        ref = np.sort(np.concatenate([a, b]), kind="stable")
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, ref)

    def test_tie_order_is_a_before_b(self):
        # -0.0 == 0.0 as keys, but the sign bit tells the parts apart.
        a = np.array([-0.0, -0.0, 7.0])
        b = np.array([0.0, 7.0, 7.0])
        out = kway_merge_sorted([a, b])
        np.testing.assert_array_equal(out, [0, 0, 0, 7, 7, 7])
        # a's ties land before b's ties; swapping the parts swaps them.
        assert np.signbit(out[:3]).tolist() == [True, True, False]
        assert np.signbit(kway_merge_sorted([b, a])[:3]).tolist() == [False, True, True]

    def test_empty_edges(self):
        e = np.empty(0, dtype=np.uint32)
        x = np.array([1, 2], dtype=np.uint32)
        np.testing.assert_array_equal(kway_merge_sorted([e, x]), x)
        np.testing.assert_array_equal(kway_merge_sorted([x, e]), x)
        assert kway_merge_sorted([e, e]).size == 0
        # Returned arrays are fresh, never aliases of the inputs.
        out = kway_merge_sorted([x, e])
        out[0] = 99
        assert x[0] == 1


class TestKwayMergeSorted:
    @pytest.mark.parametrize("dtype", DTYPES)
    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_stable_concat_sort(self, dtype, data):
        k = data.draw(st.integers(min_value=0, max_value=9))
        parts = [data.draw(sorted_arrays(dtype, max_size=32)) for _ in range(k)]
        out = kway_merge_sorted(parts)
        if not parts:
            assert out.size == 0
            return
        ref = np.sort(np.concatenate(parts), kind="stable")
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, ref)

    def test_single_part_is_a_copy(self):
        a = np.array([1, 2, 3], dtype=np.uint32)
        out = kway_merge_sorted([a])
        np.testing.assert_array_equal(out, a)
        out[0] = 42
        assert a[0] == 1

    def test_all_empty_parts(self):
        parts = [np.empty(0, dtype=np.uint64)] * 3
        out = kway_merge_sorted(parts)
        assert out.size == 0 and out.dtype == np.uint64

    def test_unsigned_twin_values_near_limits(self):
        # int64 near-min vs uint64 near-max: same bit patterns must not
        # be confused across the two dtypes' merges.
        i = np.array([-(2**62), -1, 0, 1], dtype=np.int64)
        u = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            kway_merge_sorted([i, i]),
            np.sort(np.concatenate([i, i]), kind="stable"),
        )
        np.testing.assert_array_equal(
            kway_merge_sorted([u, u]),
            np.sort(np.concatenate([u, u]), kind="stable"),
        )


def _file_from(arr, B=8):
    disk = SimDisk(DiskParams(), name="d0")
    f = BlockFile(disk, B, arr.dtype)
    with BlockWriter(f, MemoryManager.unlimited()) as w:
        w.write(arr)
    return f, disk


class TestPartitionOffsets:
    @settings(deadline=None)
    @given(data=st.data())
    def test_joint_search_matches_per_pivot_search(self, data):
        dtype = data.draw(st.sampled_from([np.uint32, np.int32, np.uint64]))
        arr = data.draw(sorted_arrays(dtype, max_size=200))
        n_piv = data.draw(st.integers(min_value=0, max_value=15))
        pivots = np.sort(
            np.array(
                data.draw(
                    st.lists(_values(dtype), min_size=n_piv, max_size=n_piv)
                ),
                dtype=dtype,
            )
        )
        B = data.draw(st.sampled_from([1, 4, 8]))
        mem = MemoryManager.unlimited()
        f, disk = _file_from(arr, B=B)
        base_reads = disk.stats.blocks_read
        cuts = partition_offsets(f, list(pivots), mem)
        joint_reads = disk.stats.blocks_read - base_reads
        # Exact agreement with the scalar reference search, pivot by pivot.
        expect = [0]
        for d in pivots:
            expect.append(lower_bound_offset(f, d, mem))
        expect.append(f.n_items)
        assert cuts == expect
        # Monotone, bracketed by [0, n].
        assert cuts[0] == 0 and cuts[-1] == f.n_items
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))
        # Never more reads than p-1 independent binary searches need.
        if f.n_blocks:
            per_pivot_bound = len(pivots) * (
                int(np.floor(np.log2(f.n_blocks))) + 2
            )
            assert joint_reads <= max(per_pivot_bound, 0)

    def test_duplicate_pivots_share_probes(self):
        arr = np.arange(512, dtype=np.uint32)
        f, disk = _file_from(arr, B=8)
        mem = MemoryManager.unlimited()
        base = disk.stats.blocks_read
        cuts = partition_offsets(f, [100] * 7, mem)
        dup_reads = disk.stats.blocks_read - base
        assert cuts == [0] + [101] * 7 + [512]
        # One binary-search path, not seven.
        assert dup_reads <= int(np.floor(np.log2(f.n_blocks))) + 2

    def test_empty_file_and_no_pivots(self):
        mem = MemoryManager.unlimited()
        f, _ = _file_from(np.empty(0, dtype=np.uint32))
        assert partition_offsets(f, [], mem) == [0, 0]
        assert partition_offsets(f, [5], mem) == [0, 0, 0]
        g, _ = _file_from(np.array([1, 2, 3], dtype=np.uint32), B=2)
        assert partition_offsets(g, [], mem) == [0, 3]
