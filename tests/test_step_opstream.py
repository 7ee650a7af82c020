"""Steps 2–4's operation stream at the capture levels sorts run at.

``tests/test_merge_opstream.py`` pins whole sorts at capture ``full``,
where every memory reservation is a row.  A sort nobody watches op by op
runs at ``io`` or ``steps``, and there the engines may replace a loop of
per-block charges by a plan that charges the same list at once (a large
merge, the sample gather, the partition search and copy, the step-4
messages).  This file pins what such a sort does at those two levels:
the sha256 of the JSONL export, ``repr(elapsed)``, each node's
``IOStats`` (``busy_time`` by ``repr``), its memory high-water mark and
reservation count, the per-step block and item I/O and each node's
step-3 cuts, under both execution kernels.
``tests/data/step_opstream_golden.json`` holds them for the merge
op-stream's sort cases plus cases that reach every shape of steps 2–4:
a partition that starts and ends mid-block, an empty one, messages below
and at a multiple of B, zero-copy partitions, and each pivot method.

Regenerate the golden (only when a charge is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_step_opstream
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core import external_psrs
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.obs.exporters import events_to_jsonl
from repro.workloads.generators import make_benchmark
from tests.test_merge_opstream import CASES as MERGE_CASES
from tests.test_merge_opstream import SortCase

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "step_opstream_golden.json")
LEVELS = ("io", "steps")


@dataclass(frozen=True)
class StepCase(SortCase):
    """A :class:`SortCase` with a pivot method."""

    pivot_method: str = "regular"


CASES: list[SortCase] = [
    *(c for c in MERGE_CASES if isinstance(c, SortCase)),
    # Heavy duplicates: equal pivots leave empty partitions; the others
    # start and end mid-block.
    StepCase("dup-empty-midblock", (1, 1, 1, 1), 4000, 512, 64, kind="zipf"),
    # Messages of a quarter block, and of four blocks.
    StepCase("msg-below-B", (1, 2, 1), 3000, 512, 64, message_items=16),
    StepCase("msg-4B", (1, 1, 4, 4), 6000, 1024, 64, message_items=256),
    StepCase("msg-4B-ranges", (1, 1, 4, 4), 6000, 1024, 64, message_items=256, materialize=False),
    StepCase("random-pivots", (1, 1, 4, 4), 6000, 512, 64, pivot_method="random"),
    StepCase("random-ranges", (2, 1, 3), 5000, 512, 32, materialize=False, pivot_method="random"),
    StepCase("quantile-pivots", (1, 1, 4, 4), 6000, 512, 64, pivot_method="quantile"),
    StepCase("quantile-zipf", (1, 3), 4000, 512, 64, kind="zipf", pivot_method="quantile"),
    # Wide: 64 sublists of a few blocks each.
    StepCase("p8-wide", (1, 1, 2, 2, 4, 4, 8, 8), 12000, 1024, 32, message_items=64),
]


def run_case(case: SortCase, kernel: str, level: str) -> dict:
    """One ``sort_array`` at capture ``level``; everything it observably did."""
    perf = PerfVector(list(case.perf))
    n = perf.nearest_exact(case.n_items)
    data = make_benchmark(case.kind, n, seed=7)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in case.perf], memory_items=case.memory_items),
        kernel=kernel,
    )
    cluster.bus.set_level(level)
    config = PSRSConfig(
        block_items=case.block_items,
        message_items=case.message_items,
        n_tapes=case.n_tapes,
        materialize_partitions=case.materialize,
        pivot_method=getattr(case, "pivot_method", "regular"),
    )
    cuts: list[list[int]] = []

    def offsets(sf, pivots, mem):
        cuts.append(real(sf, pivots, mem))
        return cuts[-1]

    real = external_psrs.partition_offsets
    with mock.patch.object(external_psrs, "partition_offsets", offsets):
        res = sort_array(cluster, perf, data, config)
    np.testing.assert_array_equal(res.to_array(), np.sort(data, kind="stable"))
    stream = events_to_jsonl(cluster.bus.events)
    return {
        "jsonl_sha256": hashlib.sha256(stream.encode("utf-8")).hexdigest(),
        "events": len(cluster.bus.events),
        "elapsed": repr(res.elapsed),
        "step_io": {
            step: [io.blocks_read, io.blocks_written, io.items_read, io.items_written]
            for step, io in sorted(res.step_io.items())
        },
        "node_io": [
            [
                s.blocks_read,
                s.blocks_written,
                s.items_read,
                s.items_written,
                repr(s.busy_time),
            ]
            for s in (node.disk.stats for node in cluster.nodes)
        ],
        "mem": [
            [node.mem.high_water, node.mem.total_reservations, node.mem.in_use]
            for node in cluster.nodes
        ],
        "cuts": cuts,
    }


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _key(case: SortCase, kernel: str, level: str) -> str:
    return f"{case.name}/{kernel}/{level}"


class TestStepOperationStream:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
    def test_stream_matches_golden(self, case, kernel, level):
        expected = _golden()[_key(case, kernel, level)]
        got = json.loads(json.dumps(run_case(case, kernel, level)))  # JSON-normalised
        # Counters first: a moved charge reads better than a moved hash.
        for key in ("cuts", "step_io", "node_io", "mem", "events", "elapsed", "jsonl_sha256"):
            assert got[key] == expected[key], f"{_key(case, kernel, level)}: {key} moved"

    def test_golden_covers_exactly_the_cases(self):
        assert sorted(_golden()) == sorted(
            _key(c, k, lv) for c in CASES for k in KERNELS for lv in LEVELS
        )

    def test_cases_reach_every_shape(self):
        """The pinned cuts include an empty partition and one that starts
        and ends mid-block; the cases message below B and at a multiple
        of B, with and without materialized partitions, by every pivot
        method."""
        golden = _golden()
        empty = midblock = False
        for case in CASES:
            B = case.block_items
            for cuts in golden[_key(case, "event", "io")]["cuts"]:
                for lo, hi in zip(cuts, cuts[1:]):
                    empty |= lo == hi
                    midblock |= lo % B != 0 and hi % B != 0 and lo < hi
        assert empty and midblock
        assert any(c.message_items < c.block_items for c in CASES)
        assert any(c.message_items > c.block_items and c.message_items % c.block_items == 0
                   for c in CASES)
        assert {c.materialize for c in CASES} == {True, False}
        methods = {getattr(c, "pivot_method", "regular") for c in CASES}
        assert methods == set(external_psrs.PIVOT_METHODS)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    doc = {_key(c, k, lv): run_case(c, k, lv) for c in CASES for k in KERNELS for lv in LEVELS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_fh:
        json.dump(doc, out_fh, indent=1, sort_keys=True)
        out_fh.write("\n")
    print(f"wrote {len(doc)} cases to {GOLDEN_PATH}")
