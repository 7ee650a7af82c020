"""Real-file-backed block files.

:class:`DiskBackedBlockFile` keeps block payloads in an actual operating
system file instead of process memory (it implements the same storage
hooks as the in-memory extents: a span stored with one write, an item
range loaded with one read), so the library can sort datasets
larger than host RAM *for real* (the simulation's cost model is
unchanged — the SimDisk still charges model time; the OS file is the
storage plane).  Used by the out-of-core example and the persistence
tests; the in-memory store remains the default because the test suite's
thousands of tiny files are faster that way.

A :class:`FileStore` owns a spill directory of its own and hands out
backed files; it is also a context manager that removes the directory on
exit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional, Sequence

import numpy as np

from repro.pdm.blockfile import BlockFile
from repro.pdm.disk import SimDisk


class DiskBackedBlockFile(BlockFile):
    """A BlockFile whose payload lives in one binary file on the host FS.

    Blocks are appended sequentially; the block-size invariant (all full
    except possibly the last) makes item offsets computable, so a load of
    any item range is one ``open + seek + read`` and a store one
    ``open + write`` of the whole span.
    """

    def __init__(
        self,
        disk: SimDisk,
        B: int,
        dtype: np.dtype | type = np.uint32,
        name: Optional[str] = None,
        path: Optional[str] = None,
        directory: Optional[str] = None,
    ) -> None:
        if path is None:
            fd, path = tempfile.mkstemp(suffix=".blk", dir=directory)
            os.close(fd)
            self._owns_path = True
        else:
            self._owns_path = False
        self.path = path
        super().__init__(disk, B, dtype, name)

    # -- storage hooks -----------------------------------------------------

    def _init_store(self) -> None:
        with open(self.path, "wb"):
            pass  # truncate

    def _store_span(self, parts: Sequence[np.ndarray], size: int) -> None:
        """Append the span's bytes.  A write that fails partway (a full
        disk, a file-size limit) is cut back to the last whole block and
        re-raised, so later blocks land at their offsets; the failed
        attempt stays charged (``append_block`` charges before it stores)."""
        try:
            with open(self.path, "ab") as fh:
                for part in parts:
                    fh.write(np.ascontiguousarray(part, dtype=self.dtype).data)
        except OSError:
            os.truncate(self.path, self._n_items * self.itemsize)
            raise

    def _store_range(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=self.dtype)
        offset = lo * self.itemsize
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            got = fh.readinto(out.data)
        if got != out.nbytes:
            raise OSError(
                f"spill file {self.path!r} is truncated: reading from block {lo // self.B} "
                f"needs {out.nbytes} bytes at offset {offset}, read {got}"
            )
        return out

    # -- lifecycle ----------------------------------------------------------

    def delete(self) -> None:
        """Remove the backing file from the host filesystem."""
        if self._owns_path and os.path.exists(self.path):
            os.unlink(self.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskBackedBlockFile({self.name!r} -> {self.path!r}, "
            f"{self.n_items} items)"
        )


class FileStore:
    """A spill directory that manufactures disk-backed block files.

    Plug it into a node with ``node.disk`` and pass ``store.create`` where
    a fresh file is needed; or use :func:`use_file_backed_files` to make a
    whole cluster spill to real storage.

    Files go to a fresh private subdirectory of ``directory`` (of the
    system's temp directory by default), which :meth:`cleanup` removes
    while ``directory`` itself stays: two stores on one directory never
    share a file, and no store reuses what an earlier run left there.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=directory)
        self._count = 0

    def create(
        self,
        disk: SimDisk,
        B: int,
        dtype: np.dtype | type = np.uint32,
        name: Optional[str] = None,
    ) -> DiskBackedBlockFile:
        self._count += 1
        path = os.path.join(self.directory, f"f{self._count:06d}.blk")
        return DiskBackedBlockFile(disk, B, dtype, name=name, path=path)

    @property
    def files_created(self) -> int:
        return self._count

    def bytes_on_disk(self) -> int:
        """Total size of the spill directory's current contents."""
        total = 0
        for entry in os.scandir(self.directory):
            if entry.is_file():
                total += entry.stat().st_size
        return total

    def cleanup(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "FileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()
