"""The exact-quantile pivot search against a selection oracle, and pinned.

``exact_quantile_pivots`` promises, for every boundary target ``t``, the
smallest key ``v`` with ``count_leq(v) >= t`` — which is simply
``sorted(all keys)[t - 1]``.  The property below checks that on small
files of every integer key dtype, block sizes down to one item, empty
nodes, and the inputs a key-space search finds hardest (the whole dtype
range, a handful of distinct keys, the dtype's two extremes).

``tests/data/quantile_pivots_golden.json`` pins what twelve whole sorts
with ``pivot_method="quantile"`` hand to steps 3-5 — the pivots, the
final partition sizes, ``s_max`` and the step 3-5 I/O counters — and
*records* what the search itself cost at the commit that generated it
(step-2 block reads, probe rounds per search), so a cheaper search is
measured against that record while everything downstream stays put.

Regenerate (the ``parent`` cost record is kept from the existing file)::

    PYTHONPATH=src python -m tests.test_quantile_search
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.quantiles as quantiles
from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.quantiles import boundary_targets, exact_quantile_pivots
from repro.faults.plan import FaultPlan, NodeKill
from repro.workloads.generators import BENCHMARKS, make_benchmark
from repro.workloads.records import SUPPORTED_KEY_DTYPES, verify_sorted_permutation
from tests.conftest import file_from_array

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "quantile_pivots_golden.json"
)

# ---------------------------------------------------------------------------
# (a) every pivot equals the selection oracle
# ---------------------------------------------------------------------------

INT_DTYPES = tuple(d.type for d in SUPPORTED_KEY_DTYPES)
INPUTS = ("full-range", "four-distinct", "all-equal", "within-50", "min-max")


def _keys(kind: str, n: int, dtype: type, rng: np.random.Generator) -> np.ndarray:
    info = np.iinfo(dtype)
    if kind == "full-range":
        return rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
    if kind == "four-distinct":
        four = rng.integers(info.min, info.max, size=4, dtype=dtype, endpoint=True)
        return rng.choice(four, size=n)
    if kind == "all-equal":
        return np.full(n, rng.integers(info.min, info.max, dtype=dtype, endpoint=True))
    if kind == "within-50":
        centre = 0 if info.min < 0 else 50
        return rng.integers(centre - 50, centre + 50, size=n, endpoint=True).astype(dtype)
    half = n // 2
    return np.concatenate(
        [np.full(half, info.min, dtype=dtype), np.full(n - half, info.max, dtype=dtype)]
    )


def _sorted_files(cluster: Cluster, keys: np.ndarray, sizes: list[int], B: int):
    """Each node's share of ``keys``, sorted, as a file on its own disk."""
    files, start = [], 0
    for node, size in zip(cluster.nodes, sizes):
        part = np.sort(keys[start : start + size])
        files.append(file_from_array(part, node.disk, B, node.mem, dtype=keys.dtype))
        start += size
    return files


@st.composite
def searches(draw):
    perf = draw(st.lists(st.integers(1, 8), min_size=2, max_size=6))
    sizes = draw(
        st.lists(st.integers(0, 60), min_size=len(perf), max_size=len(perf)).filter(any)
    )
    return (
        perf,
        sizes,
        draw(st.sampled_from((1, 2, 4, 8, 16))),
        draw(st.sampled_from(INT_DTYPES)),
        draw(st.sampled_from(INPUTS)),
        draw(st.sampled_from(KERNELS)),
        draw(st.integers(0, 2**32 - 1)),
    )


@given(searches())
def test_every_pivot_is_the_selection_oracle(search):
    perf_vals, sizes, B, dtype, kind, kernel, seed = search
    perf = PerfVector(perf_vals)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in perf_vals], memory_items=64),
        kernel=kernel,
    )
    keys = _keys(kind, sum(sizes), dtype, np.random.default_rng(seed))
    files = _sorted_files(cluster, keys, sizes, B)

    pivots, report = exact_quantile_pivots(cluster, perf, files)

    ordered = sorted(keys.tolist())
    oracle = [
        ordered[t - 1] if t > 0 else ordered[0]
        for t in boundary_targets(perf, keys.size)
    ]
    assert pivots.dtype == np.dtype(dtype)
    assert pivots.tolist() == oracle
    assert all(node.mem.in_use == 0 for node in cluster.nodes)
    if len(set(ordered)) == 1:
        assert report.rounds == 0  # lo + 1 == hi from the start
    # every round at least halves a key interval that starts no wider
    # than the dtype
    assert report.rounds <= np.dtype(dtype).itemsize * 8 + 1


def test_a_probe_the_neighbours_settle_reads_nothing():
    """Between two answered probes with the same cut there is no item to
    find; left of every item above the lower one, or right of every item
    below the upper one, the neighbour's answer stands."""
    cluster = Cluster(heterogeneous_cluster([1.0], memory_items=64))
    node = cluster.nodes[0]
    keys = np.array([10, 20, 30, 40, 1000, 1010, 1020, 1030], dtype=np.uint32)
    f = file_from_array(keys, node.disk, 2, node.mem)
    memo = quantiles._ProbeMemo(f, node.mem)  # reads the two end blocks

    def reads_of(v):
        before = node.disk.stats.blocks_read
        return memo.answer(v), node.disk.stats.blocks_read - before

    assert reads_of(500) == ((4, 40, 1000), 2)  # blocks 0..3: reads 1, then 2
    assert reads_of(25) == ((2, 20, 30), 2)  # blocks 0..1, pred from block 0
    assert reads_of(200) == ((4, 40, 1000), 0)  # the upper pred is below it
    assert reads_of(700) == ((4, 40, 1000), 0)  # the lower succ is above it
    assert reads_of(300) == ((4, 40, 1000), 0)  # equal cuts on both sides
    assert reads_of(500) == ((4, 40, 1000), 0)  # asked before
    assert reads_of(12) == ((1, 10, 20), 1)  # block 0 only
    assert node.mem.in_use == 0


# ---------------------------------------------------------------------------
# (b) twelve whole sorts, pinned downstream of the search
# ---------------------------------------------------------------------------

_PERFS = ((1, 1, 4, 4), (1, 2, 3), (2, 2, 2, 2), (1, 1, 1, 1, 2, 2, 4, 4), (1, 8), (3, 5, 7, 1, 1, 2))
_MEMORY_BLOCK = ((2048, 256), (4096, 128), (8192, 512), (16384, 1024))
_KINDS = tuple(spec.name for spec in BENCHMARKS.values())
STEPS_AFTER = ("3:partition", "4:redistribute", "5:final-merge")


@dataclass(frozen=True)
class Geometry:
    name: str
    kind: str
    perf: tuple[int, ...]
    n_items: int
    memory_items: int
    block_items: int
    kernel: str = "event"
    kill: Optional[NodeKill] = None


def _geometries() -> list[Geometry]:
    """The eight input kinds over the perf and (M, B) tables; three of
    them again under the lockstep kernel; one with a node killed at step
    3, so the search runs a second time over the survivors."""
    out = []
    for i, kind in enumerate(_KINDS):
        memory, block = _MEMORY_BLOCK[i % len(_MEMORY_BLOCK)]
        out.append(
            Geometry(kind, kind, _PERFS[i % len(_PERFS)], 3000 + 2500 * i, memory, block)
        )
    for g in (out[0], out[3], out[6]):
        out.append(Geometry(g.name + "/lockstep", g.kind, g.perf, g.n_items,
                            g.memory_items, g.block_items, kernel="lockstep"))
    out.append(Geometry("uniform/kill-step3", "uniform", (1, 1, 4, 4), 12000, 2048, 256,
                        kill=NodeKill(node=2, step=3)))
    return out


GEOMETRIES = _geometries()


def run_geometry(g: Geometry) -> dict:
    """Sort once; the fields pinned downstream of the search, and its cost."""
    reports = []
    search = quantiles.exact_quantile_pivots

    def recording(*args, **kwargs):
        pivots, report = search(*args, **kwargs)
        reports.append(report)
        return pivots, report

    perf = PerfVector(list(g.perf))
    data = make_benchmark(g.kind, perf.nearest_exact(g.n_items), seed=17)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in g.perf], memory_items=g.memory_items),
        kernel=g.kernel,
    )
    # ``_pivot_step`` imports the function from its module at call time.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantiles, "exact_quantile_pivots", recording)
        res = sort_array(
            cluster,
            perf,
            data,
            PSRSConfig(block_items=g.block_items, pivot_method="quantile"),
            faults=FaultPlan(node_kills=(g.kill,)) if g.kill is not None else None,
        )
    verify_sorted_permutation(data, res.to_array())
    return {
        "distinct_keys": int(np.unique(data).size),
        "pivots": res.pivots.tolist(),
        "received_sizes": list(res.received_sizes),
        "s_max": res.s_max,
        "step_io": {
            step: [io.blocks_read, io.blocks_written, io.items_read, io.items_written]
            for step, io in ((s, res.step_io[s]) for s in STEPS_AFTER)
        },
        "search": {
            "step2_blocks_read": res.step_io["2:pivots"].blocks_read,
            "rounds": [r.rounds for r in reports],
        },
    }


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("g", GEOMETRIES, ids=[g.name for g in GEOMETRIES])
def test_downstream_of_the_search_is_pinned(g):
    got = run_geometry(g)
    want = _golden()[g.name]
    for key in ("distinct_keys", "pivots", "received_sizes", "s_max", "step_io"):
        assert got[key] == want[key], key
    # one search per attempt at step 2: two when a node died after it
    assert len(got["search"]["rounds"]) == len(want["parent"]["rounds"])
    # The search's own budget, against what it cost before it kept a memo.
    if want["distinct_keys"] > 1:
        assert 4 * got["search"]["step2_blocks_read"] <= want["parent"]["step2_blocks_read"]
        most = math.ceil(math.log2(want["distinct_keys"])) + 3
        assert all(r <= most for r in got["search"]["rounds"])
    else:
        assert got["search"] == want["parent"]  # the end-block reads, no round


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    old = _golden() if os.path.exists(GOLDEN_PATH) else {}
    doc = {}
    for geometry in GEOMETRIES:
        row = run_geometry(geometry)
        # What the search cost where the file was first generated.
        search = row.pop("search")
        row["parent"] = old.get(geometry.name, {}).get("parent", search)
        doc[geometry.name] = row
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out_fh:
        json.dump(doc, out_fh, indent=1, sort_keys=True)
        out_fh.write("\n")
    print(f"wrote {len(doc)} geometries to {GOLDEN_PATH}")
