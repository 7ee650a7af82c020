"""Equivalence tests for the in-core sort kernels.

The engines sort flat integer keys, so a sorted key array is unique:
numpy's default sort kind, its ``stable`` kind (timsort / radix sort)
and a k-way merge of presorted parts must all return the same bytes.
Everything here compares against ``np.sort(..., kind="stable")`` — the
kernel the verification oracle (``workloads/records.py``) keeps — so
the engine side can use whichever kind is fastest.

The dtype guard at the bottom is what that argument rests on: a float
key dtype (``-0.0 == 0.0``, NaN payloads) would make equal keys
distinguishable and stability observable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import SimNode
from repro.core.incore import sort_in_memory
from repro.extsort.losertree import kway_merge_sorted
from repro.extsort.runs import CollectingSink, form_runs
from repro.fuzz.scenario import DTYPES as FUZZ_DTYPES
from repro.pdm.memory import MemoryManager
from repro.workloads.records import SUPPORTED_KEY_DTYPES

from tests.conftest import file_from_array, make_disk

#: numpy switches sort kernels by size (insertion sort below ~16, SIMD
#: network sorts up to a few hundred, partitioning above), so the sizes
#: straddle those edges; 1 792 and 61 440 are the memory loads of the
#: ``deep4`` and ``shallow4`` benchmark workloads.
SIZES = (0, 1, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1792, 4097, 61440)

SORT_SITES = (
    "extsort/runs.py::_form_runs_load, extsort/losertree.py::kway_merge_sorted, "
    "extsort/distribution.py::_sample_splitters and ::_sort_into, "
    "core/sampling.py::select_pivots, core/incore.py::sort_in_memory"
)


def _full_range(n: int, rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)


def _presorted_runs(k: int):
    def make(n: int, rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
        return np.concatenate(_run_parts(n, k, rng, dtype))

    return make


def _run_parts(n: int, k: int, rng: np.random.Generator, dtype: np.dtype) -> list[np.ndarray]:
    """k sorted parts of (nearly) equal length, n items in all."""
    bounds = np.linspace(0, n, k + 1).astype(int)
    data = _full_range(n, rng, dtype)
    return [np.sort(data[lo:hi], kind="stable") for lo, hi in zip(bounds[:-1], bounds[1:])]


def _bimodal(n: int, rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    near_min = rng.integers(info.min, info.min + 100, size=n, dtype=dtype)
    near_max = rng.integers(info.max - 100, info.max, size=n, dtype=dtype, endpoint=True)
    return np.where(rng.random(n) < 0.5, near_min, near_max)


def _min_max_halves(n: int, rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    out = np.full(n, info.max, dtype=dtype)
    out[n // 2 :] = info.min
    return out


SHAPES = {
    "random": _full_range,
    # astype wraps: the 16-bit dtypes see a sawtooth above 2**16 / 2**15 items
    "arange": lambda n, rng, dtype: np.arange(n).astype(dtype),
    "reversed": lambda n, rng, dtype: np.sort(_full_range(n, rng, dtype))[::-1].copy(),
    "bimodal": _bimodal,
    "few_distinct": lambda n, rng, dtype: rng.choice(_full_range(5, rng, dtype), size=n),
    "all_equal": lambda n, rng, dtype: np.full(n, _full_range(1, rng, dtype)[0], dtype=dtype),
    "min_max_halves": _min_max_halves,
    "runs2": _presorted_runs(2),
    "runs6": _presorted_runs(6),
    "runs16": _presorted_runs(16),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
def test_default_kind_equals_stable_kind(dtype, shape):
    rng = np.random.default_rng(23)
    for n in SIZES:
        a = SHAPES[shape](n, rng, dtype)
        assert a.dtype == dtype and a.size == n
        want = np.sort(a, kind="stable")
        got = a.copy()
        got.sort()
        assert got.dtype == want.dtype == dtype, (n, got.dtype)
        assert np.array_equal(got, want), f"default kind != stable kind at n={n}"


@pytest.mark.parametrize("k", [1, 2, 6, 16])
@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
def test_kway_merge_equals_stable_sort_of_concatenation(dtype, k):
    rng = np.random.default_rng(29)
    for n in SIZES:
        parts = _run_parts(n, k, rng, dtype)
        want = np.sort(np.concatenate(parts), kind="stable")
        got = kway_merge_sorted(parts)
        assert got.dtype == dtype
        assert np.array_equal(got, want), f"merge != stable sort at n={n}, k={k}"
        assert not any(np.shares_memory(got, p) for p in parts), "merge returned a view"


def test_kway_merge_of_duplicate_heavy_parts():
    rng = np.random.default_rng(31)
    parts = [np.sort(rng.integers(0, 7, size=s).astype(np.int16)) for s in (0, 300, 1, 4000, 17)]
    got = kway_merge_sorted(parts)
    assert np.array_equal(got, np.sort(np.concatenate(parts), kind="stable"))
    assert not any(np.shares_memory(got, p) for p in parts)


def _duplicate_heavy(n: int, dtype: np.dtype) -> np.ndarray:
    rng = np.random.default_rng(37)
    return rng.choice(_full_range(40, rng, dtype), size=n)


@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
def test_form_runs_load_equals_stable_reference(dtype):
    B, M = 64, 1024
    data = _duplicate_heavy(5000, dtype)
    disk = make_disk()
    mem = MemoryManager(capacity=M)
    src = file_from_array(data, disk, B=B, mem=mem, dtype=dtype)
    sink = CollectingSink(disk, B, dtype, mem)
    form_runs(src, sink, mem, policy="load")
    load = M - B  # one output block stays free
    assert len(sink.runs) == -(-data.size // load)
    for i, run in enumerate(sink.runs):
        got = run.to_array()
        want = np.sort(data[i * load : (i + 1) * load], kind="stable")
        assert got.dtype == dtype
        assert np.array_equal(got, want), f"run {i} differs from the stable reference"


@pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
def test_sort_in_memory_equals_stable_reference(dtype):
    data = _duplicate_heavy(5000, dtype)
    before = data.copy()
    got = sort_in_memory(data, SimNode(0, memory_items=8192))
    assert got.dtype == dtype
    assert np.array_equal(got, np.sort(before, kind="stable"))
    assert np.array_equal(data, before), "sort_in_memory must not sort its input in place"
    assert not np.shares_memory(got, data)


def test_every_key_dtype_is_an_integer_dtype():
    """Any correct kernel returns the same bytes only for integer keys."""
    admitted = [*SUPPORTED_KEY_DTYPES, *(np.dtype(name) for name in FUZZ_DTYPES)]
    offenders = [str(dt) for dt in admitted if dt.kind not in "iu"]
    assert not offenders, (
        f"non-integer key dtype(s) {offenders} admitted: equal keys are no longer "
        f"bit-identical (-0.0 vs 0.0, NaN payloads), so the in-core sorts can no "
        f"longer use numpy's default (unstable) kind — revisit {SORT_SITES}"
    )
    assert set(np.dtype(name) for name in FUZZ_DTYPES) <= set(SUPPORTED_KEY_DTYPES)
