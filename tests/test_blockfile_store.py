"""The block store against a list-of-blocks reference model.

Random sequences of appends, writer writes, planned stores and clears run
on the in-memory store (extents) and on the spill store (one host file).
After every step the file must read back exactly what a plain list of
blocks holds, size its blocks the same way and have charged the disk for
exactly the blocks moved.  The aliasing rules are checked on the way: a
stored span is a private copy, a read is the caller's own array, and a
view taken before ``clear()`` keeps the items it showed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.filestore import FileStore
from repro.pdm.memory import MemoryManager

from tests.conftest import make_disk

STORES = ("memory", "spill")


class Model:
    """What the file should hold, as a list of blocks, and what its disk
    should have counted."""

    def __init__(self, B: int) -> None:
        self.B = B
        self.blocks: list[np.ndarray] = []
        self.counts = {"blocks_read": 0, "blocks_written": 0, "items_read": 0, "items_written": 0}

    @property
    def items(self) -> np.ndarray:
        return np.concatenate(self.blocks) if self.blocks else np.empty(0)

    @property
    def whole(self) -> bool:
        """Whether the file ends on a whole block (another block may follow)."""
        return not self.blocks or self.blocks[-1].size == self.B

    def append(self, items: np.ndarray) -> None:
        for i in range(0, items.size, self.B):
            self.blocks.append(items[i : i + self.B].copy())
            self.counts["blocks_written"] += 1
            self.counts["items_written"] += self.blocks[-1].size

    def read(self, start: int, stop: int) -> np.ndarray:
        got = np.concatenate(self.blocks[start:stop])
        self.counts["blocks_read"] += stop - start
        self.counts["items_read"] += got.size
        return got


def _check(f: BlockFile, model: Model, disk, draw) -> None:
    want = model.items
    assert f.n_items == want.size
    assert f.n_blocks == len(model.blocks)
    assert [f.block_items(i) for i in range(f.n_blocks)] == [b.size for b in model.blocks]
    for i, blk in enumerate(model.blocks):
        np.testing.assert_array_equal(f.inspect_block(i), blk)
    np.testing.assert_array_equal(f.to_array(), want)
    lo = draw(st.integers(0, want.size))
    hi = draw(st.integers(lo, want.size))
    np.testing.assert_array_equal(f.load_items(lo, hi), want[lo:hi])
    s = disk.stats
    got = {k: getattr(s, k) for k in model.counts}
    assert got == model.counts


def _parts(draw, B: int, fresh) -> list[np.ndarray]:
    """Parts of a span: whole blocks each, but the last of any size."""
    whole = draw(st.lists(st.integers(0, 3), max_size=3))
    tail = draw(st.integers(0 if whole and sum(whole) else 1, 2 * B + 1))
    return [fresh(k * B) for k in whole] + [fresh(tail)]


@pytest.mark.parametrize("store", STORES)
@settings(max_examples=80, deadline=None)
@given(
    B=st.integers(1, 6),
    dtype=st.sampled_from([np.uint32, np.int64]),
    data=st.data(),
)
def test_store_matches_list_of_blocks(store, B, dtype, data):
    draw = data.draw
    disk = make_disk()
    counter = [0]

    def fresh(n: int) -> np.ndarray:
        counter[0] += n
        return np.arange(counter[0] - n, counter[0], dtype=dtype)

    with FileStore() as spill:
        f = spill.create(disk, B, dtype) if store == "spill" else BlockFile(disk, B, dtype)
        model = Model(B)
        writer = None
        staged = np.empty(0, dtype=dtype)  # the writer's partial block
        kept: list[tuple[np.ndarray, np.ndarray]] = []  # views taken before a clear
        for _ in range(draw(st.integers(1, 14))):
            ops = ["append_block", "append_blocks", "store_charged", "clear", "read_blocks"]
            if model.whole:  # the writer appends behind the file's last block
                ops += ["write", "write_charged", "close"]
            op = draw(st.sampled_from(ops))
            if op == "append_block":
                items = fresh(draw(st.integers(0, B)))
                if items.size and not model.whole:
                    with pytest.raises(ValueError, match="partial block"):
                        f.append_block(items)
                else:
                    f.append_block(items)
                    model.append(items)
            elif op in ("append_blocks", "store_charged"):
                parts = _parts(draw, B, fresh)
                items = np.concatenate(parts)
                if not model.whole:
                    with pytest.raises(ValueError, match="partial block"):
                        getattr(f, op)(parts)
                elif op == "store_charged":
                    sizes = [min(B, items.size - i) for i in range(0, items.size, B)]
                    f.charge_blocks((("write", f.itemsize, f.name, f.n_blocks, sizes),))
                    f.store_charged(parts)
                else:
                    f.append_blocks(parts)
                for p in parts:
                    p[:] = 0  # the file stored its own copy
                if model.whole:
                    model.append(items)
            elif op in ("write", "write_charged"):
                if writer is None:
                    writer = BlockWriter(f, MemoryManager(None))
                items = fresh(draw(st.integers(0, 3 * B)))
                staged = np.concatenate((staged, items))
                done = staged.size // B * B
                if op == "write_charged":
                    if done:
                        sizes = [B] * (done // B)
                        f.charge_blocks((("write", f.itemsize, f.name, f.n_blocks, sizes),))
                    writer.write_charged(items)
                else:
                    writer.write(items)
                items[:] = 0  # the caller reuses its array
                model.append(staged[:done])
                staged = staged[done:]
                assert writer.staged == staged.size
            elif op == "close":
                if writer is not None:
                    writer.close()
                    writer = None
                model.append(staged)
                staged = staged[:0]
            elif op == "clear":
                if model.blocks:
                    n = model.items.size
                    lo = draw(st.integers(0, n - 1))
                    kept.append((f.load_items(lo, n), model.items[lo:]))
                f.clear()
                model.blocks.clear()
            elif op == "read_blocks" and model.blocks:
                start = draw(st.integers(0, len(model.blocks) - 1))
                stop = draw(st.integers(start + 1, len(model.blocks)))
                got = f.read_blocks(start, stop)
                np.testing.assert_array_equal(got, model.read(start, stop))
                got[:] = 0  # the caller owns what it read
            _check(f, model, disk, draw)
            for view, was in kept:
                np.testing.assert_array_equal(view, was)


@pytest.mark.parametrize("store", STORES)
def test_indexes_outside_the_file_raise_before_any_charge(store):
    """A 2-block file with B = 4: no accessor wraps a negative index or
    clips a range past the end, and none of them charges the disk."""
    disk = make_disk()
    with FileStore() as spill:
        f = spill.create(disk, 4) if store == "spill" else BlockFile(disk, 4)
        f.append_blocks((np.arange(8, dtype=np.uint32),))
        before = disk.stats.snapshot()
        calls = [
            lambda: f.read_block(-1), lambda: f.read_block(2),
            lambda: f.read_blocks(-1, 2), lambda: f.read_blocks(1, 3), lambda: f.read_blocks(1, 1),
            lambda: f.load_items(-2, 3), lambda: f.load_items(3, 9), lambda: f.load_items(5, 4),
            lambda: f.block_items(-1), lambda: f.block_items(2),
            lambda: f.inspect_block(-1), lambda: f.inspect_block(2),
            lambda: f.reads(-1, 1), lambda: f.reads(0, 3),
            lambda: f.read_planned([("read", 4, f.name, 1, [4, 4])], (0, 4)),
            lambda: f.read_planned([f.reads(0, 1)], (4, 9)),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call()
        assert disk.stats == before
        assert f.items_in(range(0, 2)) == 8 and f.items_in([]) == 0
