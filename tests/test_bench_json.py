"""The BENCH_sort.json keyed-run-list format (repro.metrics.bench)."""

from __future__ import annotations

import json
import os

import pytest

from repro.metrics.bench import (
    SCHEMA,
    BenchFormatError,
    append_run,
    get_run,
    load_bench,
    run_key,
    validate_bench,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _summary(n=1024, perf=(1, 1), elapsed=1.0):
    return {
        "command": "sort",
        "n_items": n,
        "perf": list(perf),
        "verified": True,
        "elapsed_seconds": elapsed,
    }


def test_run_key_is_n_times_perf():
    assert run_key(_summary(131080, (1, 1, 4, 4))) == "131080x1-1-4-4"
    with pytest.raises(BenchFormatError):
        run_key({"perf": [1]})


def test_append_creates_then_appends_then_updates(tmp_path):
    path = str(tmp_path / "BENCH_sort.json")
    append_run(path, _summary(1024, (1, 1)))
    append_run(path, _summary(2048, (1, 1, 4, 4)))
    doc = append_run(path, _summary(1024, (1, 1), elapsed=9.9))
    assert doc["schema"] == SCHEMA
    # two configurations, not three: the re-run updated in place
    assert [e["key"] for e in doc["runs"]] == ["1024x1-1", "2048x1-1-4-4"]
    assert get_run(doc, "1024x1-1")["elapsed_seconds"] == 9.9
    # the on-disk file round-trips
    assert load_bench(path) == doc


def test_validate_rejects_broken_documents(tmp_path):
    with pytest.raises(BenchFormatError):
        validate_bench({"schema": "other", "runs": []})
    with pytest.raises(BenchFormatError):
        validate_bench({"schema": SCHEMA, "runs": [{"key": ""}]})
    with pytest.raises(BenchFormatError):
        # key must agree with the entry's own n_items/perf
        validate_bench(
            {"schema": SCHEMA, "runs": [{"key": "1x9", **_summary(1024, (1,))}]}
        )
    dup = {"key": "1024x1", **_summary(1024, (1,))}
    with pytest.raises(BenchFormatError):
        validate_bench({"schema": SCHEMA, "runs": [dup, dict(dup)]})
    path = str(tmp_path / "junk.json")
    for text in ("[]", json.dumps(_summary())):  # a bare summary is no document
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(BenchFormatError):
            load_bench(path)


def test_checked_in_artifact_is_valid_v2():
    """The committed BENCH_sort.json must already be migrated and valid."""
    path = os.path.join(REPO_ROOT, "BENCH_sort.json")
    if not os.path.exists(path):
        pytest.skip("no benchmark artifact in this checkout")
    doc = load_bench(path)
    validate_bench(doc, path=path)
    assert doc["schema"] == SCHEMA
    for entry in doc["runs"]:
        assert entry["verified"] is True
