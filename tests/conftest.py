"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.analysis.sanitizers import install_sanitizers, uninstall_sanitizers
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.disk import DiskParams, SimDisk
from repro.pdm.memory import MemoryManager

# Hypothesis budgets: "default" keeps the tier-1 run fast; "nightly" is
# the large-budget sweep CI runs on a schedule (HYPOTHESIS_PROFILE=nightly).
settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile(
    "nightly", max_examples=300, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    setattr(item, f"rep_{rep.when}", rep)


@pytest.fixture(autouse=True)
def _repro_sanitizers(request):
    """Run every test under the runtime sanitizers (suite-wide).

    Opt out per test with ``@pytest.mark.no_sanitizers`` (for tests that
    deliberately violate an invariant) or suite-wide with
    ``REPRO_SANITIZERS=0``.  The end-of-test leak check only fires when
    the test body passed — a failing test legitimately leaves
    reservations behind.
    """
    if os.environ.get("REPRO_SANITIZERS", "1") == "0" or request.node.get_closest_marker(
        "no_sanitizers"
    ):
        yield
        return
    san = install_sanitizers()
    try:
        yield
        rep = getattr(request.node, "rep_call", None)
        if rep is not None and rep.passed:
            san.assert_no_leaks()
    finally:
        uninstall_sanitizers(san)


def make_disk(name: str = "d0", seek: float = 1e-3, bw: float = 50e6) -> SimDisk:
    return SimDisk(DiskParams(seek_time=seek, bandwidth=bw), name=name)


def file_from_array(
    arr: np.ndarray,
    disk: SimDisk,
    B: int,
    mem: MemoryManager | None = None,
    dtype=np.uint32,
) -> BlockFile:
    """Write ``arr`` to a fresh BlockFile (charging the disk)."""
    f = BlockFile(disk, B, dtype, name=disk.next_file_name("in"))
    m = mem if mem is not None else MemoryManager.unlimited()
    with BlockWriter(f, m) as w:
        w.write(np.asarray(arr, dtype=dtype))
    return f


@pytest.fixture
def disk() -> SimDisk:
    return make_disk()


@pytest.fixture
def mem_unlimited() -> MemoryManager:
    return MemoryManager.unlimited()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def reference_merge(monkeypatch) -> None:
    """Run every k-way merge of the test through the textbook loser-tree
    reference (``merge_cursors_itemwise``) in place of the production
    engine: the through-the-stack half of the two-engine differential,
    now that no sort or config can select the reference."""
    from repro.extsort import multiway, polyphase

    monkeypatch.setattr(multiway, "merge_cursors", multiway.merge_cursors_itemwise)
    monkeypatch.setattr(polyphase, "merge_cursors", multiway.merge_cursors_itemwise)
