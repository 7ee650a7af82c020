"""Record/key helpers and output validation.

Every sort run in tests, examples and benches validates its output with
:func:`verify_sorted_permutation`: the result must be non-decreasing and
a true multiset permutation of the input.  For large inputs a
collision-resistant multiset checksum avoids holding two full copies.
"""

from __future__ import annotations

import numpy as np

#: Key widths the engines support (the paper sorts 4-byte MPI_INTs).
#: Integer dtypes only, and the in-core sorts rely on it: equal integer
#: keys are bit-identical, so a sorted key array is unique and any correct
#: kernel returns the same bytes.  The engines therefore sort with numpy's
#: default kind, not ``kind="stable"`` (timsort for 32/64-bit integers, many
#: times slower): the comparisons charged are the model's, the kernel is the
#: host's.  ``tests/test_sort_kernels.py`` guards the dtype list.
SUPPORTED_KEY_DTYPES = (
    np.dtype(np.uint32),
    np.dtype(np.int32),
    np.dtype(np.uint64),
    np.dtype(np.int64),
    np.dtype(np.uint16),
    np.dtype(np.int16),
)


def key_dtype(dtype: np.dtype | type) -> np.dtype:
    """Validate and normalise a key dtype."""
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_KEY_DTYPES:
        raise TypeError(
            f"unsupported key dtype {dt}; supported: "
            f"{[str(d) for d in SUPPORTED_KEY_DTYPES]}"
        )
    return dt


def is_sorted(arr: np.ndarray) -> bool:
    """True if ``arr`` is non-decreasing."""
    a = np.asarray(arr)
    if a.size <= 1:
        return True
    return bool(np.all(a[:-1] <= a[1:]))


_P = (1 << 61) - 1  # Mersenne prime for the multiset hash


def checksum(arr: np.ndarray, salt: int = 0x9E3779B97F4A7C15) -> int:
    """Order-independent multiset checksum.

    Sums ``h(x)`` over items, where ``h`` is a degree-3 polynomial of the
    key in GF(p) — order-insensitive but sensitive to multiplicity, so a
    permutation check reduces to checksum equality plus length equality
    (collisions need adversarial inputs w.r.t. the salt).
    """
    a = np.asarray(arr).astype(np.uint64, copy=False)
    total = 0
    for chunk in np.array_split(a, max(1, a.size // (1 << 20))):
        xs = [int(x) for x in chunk.tolist()]
        for x in xs:
            v = (x + salt) % _P
            total = (total + v + (v * v) % _P + (v * v * v) % _P) % _P
    return total


def pack_records(keys: np.ndarray, payload_ids: np.ndarray) -> np.ndarray:
    """Pack (uint32 key, uint32 payload id) pairs into sortable uint64s.

    The engines sort flat integer keys (as the paper does); real record
    sorting rides along by packing the key into the high 32 bits and a
    payload locator into the low 32: uint64 order == (key, id) order, so
    any engine in this library sorts *records* stably by key.  Unpack at
    the consumer with :func:`unpack_records`.
    """
    k = np.asarray(keys)
    p = np.asarray(payload_ids)
    if k.shape != p.shape:
        raise ValueError(f"keys {k.shape} and payload_ids {p.shape} must match")
    if k.dtype != np.uint32 or p.dtype != np.uint32:
        raise TypeError("pack_records expects uint32 keys and payload ids")
    return (k.astype(np.uint64) << np.uint64(32)) | p.astype(np.uint64)


def unpack_records(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_records`: returns ``(keys, payload_ids)``."""
    arr = np.asarray(packed)
    if arr.dtype != np.uint64:
        raise TypeError(f"expected uint64 packed records, got {arr.dtype}")
    keys = (arr >> np.uint64(32)).astype(np.uint32)
    ids = (arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    return keys, ids


def verify_permutation(inp: np.ndarray, out: np.ndarray) -> bool:
    """Exact multiset-equality check (sorts both; use on test-sized data).

    Keeps ``kind="stable"`` on purpose while the engines use numpy's
    default kind: every verified run is then also a differential check
    of two numpy sort kernels.  (Cost: ~0.1 s per 2**20 keys, outside
    every timed region.)
    """
    a = np.sort(np.asarray(inp), kind="stable")
    b = np.sort(np.asarray(out), kind="stable")
    return a.shape == b.shape and bool(np.array_equal(a, b))


def verify_sorted_permutation(inp: np.ndarray, out: np.ndarray, exact: bool = True) -> None:
    """Assert ``out`` is a sorted permutation of ``inp``; raises AssertionError.

    ``exact=False`` switches to the checksum comparison for large inputs.
    """
    inp = np.asarray(inp)
    out = np.asarray(out)
    if inp.size != out.size:
        raise AssertionError(f"size mismatch: input {inp.size}, output {out.size}")
    if inp.dtype != out.dtype:
        raise AssertionError(f"dtype mismatch: input {inp.dtype}, output {out.dtype}")
    if not is_sorted(out):
        bad = int(np.argmax(out[:-1] > out[1:]))
        raise AssertionError(
            f"output not sorted: out[{bad}]={out[bad]} > out[{bad + 1}]={out[bad + 1]}"
        )
    if exact:
        if not verify_permutation(inp, out):
            raise AssertionError("output is not a permutation of the input")
    else:
        if checksum(inp) != checksum(out):
            raise AssertionError("output multiset checksum differs from input")
