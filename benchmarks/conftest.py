"""Benchmark-suite plumbing: importable helpers + results directory."""

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS_DIR, exist_ok=True)

#: The tracked benchmark artifact at the repository root.
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sort.json")


@pytest.fixture
def bench_json(tmp_path) -> str:
    """The ``BENCH_sort.json`` a bench folds its runs into: the tracked
    file under the nightly's ``REPRO_BENCH_SCALE=full``, otherwise a
    temporary copy of it, so a plain test run leaves the file as it is."""
    if os.environ.get("REPRO_BENCH_SCALE", "") == "full":
        return BENCH_JSON
    copy = str(tmp_path / "BENCH_sort.json")
    shutil.copyfile(BENCH_JSON, copy)
    return copy
