"""The profile of a recorded run, pinned value for value.

``tests/test_export_bytes.py`` pins the critical path only as the Chrome
trace draws it; nothing else pinned what the profiler reconstructs.
``tests/data/profile_pins_golden.json`` holds, for the three runs of
``tests/test_export_goldens.py`` and the ``observed4``-shaped run of
``tests/test_export_bytes.py``:

* ``profile`` — ``RunProfile.to_dict()`` with every float as its
  ``repr`` (elapsed, critical path, blame, drive busy seconds);
* ``segments`` — sha256 of every timeline segment as ``(node, t0, t1,
  kind, step, link)``, node by node in time order;
* ``critical`` — the same of the critical path's segments;
* ``drive_busy`` — sha256 of the merged busy intervals per drive.

Regenerate (only when a profile is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_profile_pins
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache

import pytest

from tests.test_export_bytes import _observed_run
from tests.test_export_goldens import RUNS, _run

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "profile_pins_golden.json")

CASES = (*sorted(RUNS), "observed4")


def _reprs(value):
    """``value`` with every float replaced by its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reprs(v) for v in value]
    return value


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(map(repr, lines)).encode("utf-8")).hexdigest()


def _fields(segments) -> list:
    return [(s.node, s.t0, s.t1, s.kind, s.step, s.link) for s in segments]


@lru_cache(maxsize=None)
def run_case(name: str) -> dict:
    _, prof, _ = _observed_run() if name == "observed4" else _run(name)
    tl = prof.timeline
    return {
        "profile": _reprs(prof.to_dict()),
        "segments": _sha(
            f for node in sorted(tl.segments) for f in _fields(tl.segments[node])
        ),
        "critical": _sha(_fields(prof.critical.segments)),
        "drive_busy": _sha(sorted(tl.drive_busy.items())),
    }


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("part", ["profile", "segments", "critical", "drive_busy"])
def test_profile_matches_golden(name, part):
    assert run_case(name)[part] == _golden()[name][part], f"{name}: {part} moved"


def test_golden_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    doc = {name: run_case(name) for name in CASES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(doc)} cases)")
