"""What a sort *reports*, pinned value for value.

Every ``sort_array_*`` entry point returns a result carrying the paper's
Table-3 figures (``received_sizes``, ``s_max``), the simulated
``elapsed`` and the per-step seconds.  A refactor of the result classes,
of the node-set surface the steps run on, or of how step seconds are
derived from the telemetry stream may not move any of them:
``tests/data/result_pins_golden.json`` holds, for the five algorithms on
two perf vectors under both execution kernels, ``step_times`` (keys in
order, floats by ``repr``), ``received_sizes``, ``repr(s_max)`` and
``repr(elapsed)`` of a fault-free run.

Step seconds are also recomputed here, independently of ``src/``, from
the bus's ``StepBegin``/``StepEnd`` events; a result that carries
``step_times`` must agree with that reading, key order included.

Regenerate (only when a reported figure is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_result_pins
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster.kernel import KERNELS
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.dewitt import DeWittConfig, sort_array_dewitt
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.hyperquicksort import sort_array_hyperquicksort
from repro.core.in_core_psrs import sort_array_in_core
from repro.core.overpartition import sort_array_overpartitioned
from repro.core.perf import PerfVector
from repro.obs.events import StepBegin, StepEnd
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "result_pins_golden.json")

PERFS = {"p4-1144": (1, 1, 4, 4), "p3-123": (1, 2, 3)}

#: name -> (memory_items of the cluster, runner).  The external sorts run
#: out of core (M = 8 blocks); the in-core comparators hold whole portions.
ALGORITHMS = {
    "psrs": (512, lambda c, perf, data: sort_array(
        c, perf, data, PSRSConfig(block_items=64, message_items=256))),
    "dewitt": (512, lambda c, perf, data: sort_array_dewitt(
        c, perf, data, DeWittConfig(block_items=64, message_items=256))),
    "in_core": (None, sort_array_in_core),
    "hyperquicksort": (None, sort_array_hyperquicksort),
    "overpartition": (None, sort_array_overpartitioned),
}


def reference_step_times(events) -> dict[str, float]:
    """Step -> (last end - first start) of its completed node intervals,
    steps ordered by when they start; each ``StepEnd`` is paired with the
    latest ``StepBegin`` of its (step, node)."""
    begun: dict[tuple[str, int], float] = {}
    spans: dict[str, tuple[float, float]] = {}
    for e in events:
        if isinstance(e, StepBegin):
            begun[(e.step, e.node)] = e.t
        elif isinstance(e, StepEnd):
            start = begun[(e.step, e.node)]
            lo, hi = spans.get(e.step, (start, e.t))
            spans[e.step] = (min(lo, start), max(hi, e.t))
    return {s: spans[s][1] - spans[s][0] for s in sorted(spans, key=spans.__getitem__)}


def run_case(algorithm: str, perf_name: str, kernel: str) -> dict:
    memory_items, run = ALGORITHMS[algorithm]
    perf = PerfVector(list(PERFS[perf_name]))
    data = make_benchmark("uniform", perf.nearest_exact(6000), seed=11)
    cluster = Cluster(
        heterogeneous_cluster([float(v) for v in perf], memory_items=memory_items),
        kernel=kernel,
    )
    res = run(cluster, perf, data)
    verify_sorted_permutation(data, res.to_array())
    times = reference_step_times(cluster.bus.events)
    if hasattr(res, "step_times"):
        assert list(res.step_times.items()) == list(times.items())
    return {
        "step_times": [[step, repr(t)] for step, t in times.items()],
        "received_sizes": [int(r) for r in res.received_sizes],
        "s_max": repr(float(res.s_max)),
        "elapsed": repr(float(res.elapsed)),
    }


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _case_ids() -> list[str]:
    return [f"{a}/{p}/{k}" for a in ALGORITHMS for p in PERFS for k in KERNELS]


@pytest.mark.parametrize("case", _case_ids())
def test_reported_figures_match_golden(case):
    expected = _golden()[case]
    got = run_case(*case.split("/"))
    for key in ("received_sizes", "s_max", "elapsed", "step_times"):
        assert got[key] == expected[key], f"{case}: {key} moved"


def test_golden_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(_case_ids())


if __name__ == "__main__":
    doc = {case: run_case(*case.split("/")) for case in _case_ids()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(doc)} cases)")
