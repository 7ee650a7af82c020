"""Count the plans a run executes, by wrapping them.

Every step 2–4 plan reads its payload through ``BlockFile.read_planned``
from its own frame, and only once it has committed to run, so the
caller's name says which plan ran; a planned merge ran when
``multiway._merge_planned`` returned a total.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.extsort import multiway
from repro.pdm.blockfile import BlockFile

#: The plans, by the function that runs each.
PLANS = ("_merge_planned", "take_planned", "read_samples", "partition_offsets", "_copy_planned")


@contextmanager
def counting_plans() -> Iterator[dict[str, int]]:
    """Within the body, count each plan that runs (a fresh dict per use)."""
    counts = dict.fromkeys(PLANS, 0)
    read_planned, merge_planned = BlockFile.read_planned, multiway._merge_planned

    def read_spy(self, batch, *spans):
        counts[sys._getframe(1).f_code.co_name] += 1
        return read_planned(self, batch, *spans)

    def merge_spy(*args):
        total = merge_planned(*args)
        if total is not None:
            counts["_merge_planned"] += 1
        return total

    with mock.patch.object(BlockFile, "read_planned", read_spy), mock.patch.object(
        multiway, "_merge_planned", merge_spy
    ):
        yield counts
