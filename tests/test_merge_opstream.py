"""The merge hot path's operation stream, pinned byte for byte.

A merged block passes through ``kway_merge_sorted`` →
``merge_cursors`` → ``BlockWriter.write`` → ``append_block`` →
``SimDisk.charge_*`` → ``kernel.on_io`` → the telemetry bus.  A host-time
optimisation of any of those layers may not change *what* is charged, in
*which order*, or *when* on the simulated clock.  At capture level
``full`` the bus records every block I/O, every memory reservation and
release, and every compute charge with its simulated timestamp, so the
sha256 of the JSONL export is a fingerprint of the whole operation
stream; ``tests/data/merge_opstream_golden.json`` holds it — together
with ``repr(elapsed)``, the per-step and per-node I/O counters and each
node's memory high-water mark and reservation count — for eight small
geometries under both execution kernels.

The second half proves the event kernel's write-behind bookkeeping
against a ten-line model written here, independent of how the kernel
stores its pending completions.

Regenerate the golden (only when a charge is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_merge_opstream
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.kernel import KERNELS, EventKernel
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.node import SimNode
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.extsort.multiway import RunRef, merge_runs
from repro.obs.audit import collect_step_io
from repro.obs.exporters import events_to_jsonl
from repro.pdm.blockfile import BlockWriter
from repro.workloads.generators import make_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "merge_opstream_golden.json")


@dataclass(frozen=True)
class SortCase:
    """One whole ``sort_array`` run; ``n_tapes - 1`` is the merge fan-in."""

    name: str
    perf: tuple[int, ...]
    n_items: int
    memory_items: int
    block_items: int
    kind: str = "uniform"
    n_tapes: Optional[int] = None
    materialize: bool = True
    message_items: int = 256


@dataclass(frozen=True)
class MergeCase:
    """One direct ``merge_runs`` over item ranges of a single file, the
    way polyphase tapes hold their runs: every range after the first
    starts mid-block and most end in a partial block."""

    name: str
    run_lengths: tuple[int, ...]
    block_items: int
    kind: str = "uniform"


CASES = [
    # M = 3 blocks: the smallest budget that merges at all (k = 2).
    SortCase("k2-M3B", (1, 1), 2000, 192, 64),
    SortCase("k4", (1, 1, 4, 4), 6000, 512, 64, n_tapes=5),
    # Equal-key stretches drain whole buffers at once.
    SortCase("k7-zipf", (1, 2, 3), 6000, 512, 64, kind="zipf"),
    # Every key equal: each round's horizon takes every buffered item.
    SortCase("k16-all-equal", (1, 1), 21760, 544, 32, kind="all_equal", n_tapes=17),
    # 16 received sublists per node in step 5, 256 partitions in steps 3-4.
    SortCase("k16-p16", (1,) * 16, 8192, 544, 32, n_tapes=17),
    # Portions of 625/2500 items: every file ends in a partial block.
    SortCase("k7-partial-block", (1, 1, 4, 4), 6250, 512, 64, message_items=128),
    # Zero-copy partitions: step 4 streams RunRefs that start mid-block.
    SortCase("ranges-midblock", (1, 1, 4, 4), 6000, 512, 64, kind="zipf", materialize=False),
    MergeCase("runref-midblock-k7", (130, 77, 64, 201, 1, 95, 160), 32),
]


def _digest(cluster: Cluster, elapsed: float, step_io: dict) -> dict:
    stream = events_to_jsonl(cluster.bus.events)
    fold = collect_step_io(cluster.bus.events)
    return {
        "jsonl_sha256": hashlib.sha256(stream.encode("utf-8")).hexdigest(),
        "events": len(cluster.bus.events),
        "elapsed": repr(elapsed),
        "step_io": step_io,
        # Per (node): the drive's counters and its per-step attribution.
        "node_io": [
            [
                n.disk.stats.blocks_read,
                n.disk.stats.blocks_written,
                n.disk.stats.items_read,
                n.disk.stats.items_written,
                {s: io.block_ios for (s, r), io in sorted(fold.items()) if s and r == n.rank},
            ]
            for n in cluster.nodes
        ],
        "mem": [[n.mem.high_water, n.mem.total_reservations] for n in cluster.nodes],
    }


def _run_sort(case: SortCase, kernel: str) -> dict:
    perf = PerfVector(list(case.perf))
    n = perf.nearest_exact(case.n_items)
    data = make_benchmark(case.kind, n, seed=7)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in case.perf], memory_items=case.memory_items),
        kernel=kernel,
    )
    cluster.bus.set_level("full")
    config = PSRSConfig(
        block_items=case.block_items,
        message_items=case.message_items,
        n_tapes=case.n_tapes,
        materialize_partitions=case.materialize,
    )
    res = sort_array(cluster, perf, data, config)
    np.testing.assert_array_equal(res.to_array(), np.sort(data, kind="stable"))
    step_io = {
        step: [io.blocks_read, io.blocks_written, io.items_read, io.items_written]
        for step, io in sorted(res.step_io.items())
    }
    return _digest(cluster, res.elapsed, step_io)


def _run_merge(case: MergeCase, kernel: str) -> dict:
    k, B = len(case.run_lengths), case.block_items
    cluster = Cluster(heterogeneous_cluster([2.0], memory_items=(k + 1) * B), kernel=kernel)
    cluster.bus.set_level("full")
    node = cluster.nodes[0]
    data = make_benchmark(case.kind, sum(case.run_lengths), seed=7)
    bounds = np.concatenate([[0], np.cumsum(case.run_lengths)])
    tape = node.disk.new_file(B, data.dtype)
    with cluster.step("load"):
        with BlockWriter(tape, node.mem) as w:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                w.write(np.sort(data[lo:hi]))
    runs = [RunRef(tape, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = node.disk.new_file(B, data.dtype)
    with cluster.step("merge"):
        merged = merge_runs(runs, out, node.mem, compute=node.compute)
    assert merged == data.size
    np.testing.assert_array_equal(out.to_array(), np.sort(data))
    return _digest(cluster, cluster.barrier(), {})


def run_case(case, kernel: str) -> dict:
    return (_run_sort if isinstance(case, SortCase) else _run_merge)(case, kernel)


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class TestOperationStream:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
    def test_stream_matches_golden(self, case, kernel):
        expected = _golden()[f"{case.name}/{kernel}"]
        got = json.loads(json.dumps(run_case(case, kernel)))  # JSON-normalised
        # Counters first: a moved charge reads better than a moved hash.
        for key in ("step_io", "node_io", "mem", "events", "elapsed", "jsonl_sha256"):
            assert got[key] == expected[key], f"{case.name}/{kernel}: {key} moved"

    def test_golden_covers_exactly_the_cases(self):
        assert sorted(_golden()) == sorted(
            f"{c.name}/{k}" for c in CASES for k in KERNELS
        )

    def test_kernels_agree_on_everything_but_time(self):
        golden = _golden()
        for case in CASES:
            ev, ls = (golden[f"{case.name}/{k}"] for k in ("event", "lockstep"))
            for key in ("step_io", "node_io", "mem"):
                assert ev[key] == ls[key], f"{case.name}: {key} differs across kernels"


# ---------------------------------------------------------------------------
# EventKernel write-behind against an independent model
# ---------------------------------------------------------------------------


class _ModelNode:
    """A synced node's clock = max of its clock and the completions of
    its writes since its last settle; reads wait for the drive."""

    def __init__(self) -> None:
        self.clock = 0.0
        self.drive_free = 0.0
        self.unsettled: list[float] = []

    def io(self, op: str, cost: float) -> None:
        end = max(self.clock, self.drive_free) + cost
        self.drive_free = end
        if op == "read":
            self.clock = end
        else:
            self.unsettled.append(end)

    def settle(self) -> None:
        self.clock = max([self.clock, *self.unsettled])
        self.unsettled = []

    def time(self) -> float:
        return max([self.clock, *self.unsettled])


_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 3),  # node (taken modulo p)
        st.integers(1, 64),  # items
        st.sampled_from([None, "a", "b"]),  # stream
        st.integers(0, 3),  # offset
    ),
    st.tuples(st.just("sync"), st.lists(st.integers(0, 3), min_size=1, max_size=4)),
    st.tuples(st.just("compute"), st.integers(0, 3), st.integers(1, 5000)),
)


class TestEventKernelModel:
    @given(p=st.integers(1, 4), ops=st.lists(_OPS, max_size=60))
    def test_clocks_follow_the_model(self, p, ops):
        kernel = EventKernel()
        nodes = [SimNode(rank=r, speed=float(r + 1), memory_items=1024) for r in range(p)]
        kernel.attach(nodes)
        model = [_ModelNode() for _ in range(p)]
        for op in ops:
            if op[0] == "sync":
                ranks = sorted({r % p for r in op[1]})
                t = kernel.sync([nodes[r] for r in ranks])
                for r in ranks:
                    model[r].settle()
                top = max(model[r].clock for r in ranks)
                for r in ranks:
                    model[r].clock = top
                assert t == top
            elif op[0] == "compute":
                r = op[1] % p
                nodes[r].compute(float(op[2]))
                model[r].clock = nodes[r].clock.time  # CPU time is not the kernel's
            else:
                kind, r, n_items, stream, offset = op
                r %= p
                cost = kernel.on_io(nodes[r].disk, kind, n_items, 4, stream, offset)
                model[r].io(kind, cost)
            for r in range(p):
                assert nodes[r].clock.time == model[r].clock
                assert kernel.node_time(nodes[r]) == model[r].time()

    def test_reset_forgets_unsettled_writes(self):
        kernel = EventKernel()
        node = SimNode(rank=0, memory_items=1024)
        kernel.attach([node])
        kernel.on_io(node.disk, "write", 64, 4)
        kernel.reset()
        assert kernel.sync([node]) == 0.0
        assert kernel.node_time(node) == 0.0


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    doc = {f"{c.name}/{k}": run_case(c, k) for c in CASES for k in KERNELS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_fh:
        json.dump(doc, out_fh, indent=1, sort_keys=True)
        out_fh.write("\n")
    print(f"wrote {len(doc)} cases to {GOLDEN_PATH}")
