"""Tier-1 replay of every checked-in fuzz corpus case.

``tests/data/fuzz_corpus/`` holds hand-shrunk scenarios the fuzzer (or a
human) promoted into the permanent regression suite: each JSONL case
records a scenario plus the verdict it must keep producing.  Replaying
them here means every past finding — and the seeded corner cases — is
re-checked on every test run, the same way a fuzzing trophy case works
in OSS-Fuzz-style setups.

To promote a new finding: copy the shrunk case file from
``<corpus-dir>/violations/`` into ``tests/data/fuzz_corpus/`` (see
docs/FUZZING.md).
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.fuzz.engine import load_case, replay_case
from repro.fuzz.executor import ScenarioExecutor

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")

CASE_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.jsonl")))


def _case_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def test_corpus_is_not_empty():
    # the three seeded scenarios (plus any promoted findings) must exist
    assert len(CASE_FILES) >= 3


@pytest.mark.parametrize("path", CASE_FILES, ids=_case_id)
def test_case_parses(path):
    case = load_case(path)
    # the scenario embedded in a case file must round-trip canonically
    assert case.scenario.validate() is case.scenario
    assert case.expect_status in ("ok", "recovered", "degraded", "violation")


@pytest.mark.parametrize("path", CASE_FILES, ids=_case_id)
def test_case_replays(path):
    # coverage collection off: replay only needs the oracle verdict
    result = replay_case(path, executor=ScenarioExecutor(collect_coverage=False))
    assert result.matched, (
        f"{os.path.basename(path)} no longer reproduces: {result.reason}"
    )


def test_expected_statuses_cover_the_interesting_outcomes():
    statuses = {load_case(p).expect_status for p in CASE_FILES}
    # the checked-in corpus must keep exercising the ok and degraded arms
    # of the oracle (not collapse into all-ok); a correct tree violates no
    # bound, so the violation arm is covered by the planted-bug test in
    # tests/test_fuzz_engine.py
    assert {"ok", "degraded"} <= statuses
