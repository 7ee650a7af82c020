"""Property-based invariants of the telemetry event stream.

Every run, whatever its shape, must produce a well-formed stream: step
begins and ends pair up per (step, node), and each node's events carry
non-decreasing timestamps (simulated time never runs backwards on one
clock).  And every stream, whatever its events hold, must export to
JSONL exactly as the per-event reference encoder
(``json.dumps(e.to_dict())``) writes it, and read back.
"""

import json
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.obs.events import (
    EVENT_TYPES,
    BarrierWait,
    BlockRead,
    Compute,
    StepBegin,
    StepEnd,
    step_intervals,
)
from repro.obs.exporters import events_to_jsonl, read_jsonl
from repro.workloads.generators import make_benchmark

SPEEDS = {2: [1.0, 2.0], 3: [1.0, 1.0, 4.0]}


@st.composite
def run_params(draw):
    p = draw(st.sampled_from([2, 3]))
    perf = [int(s) for s in SPEEDS[p]]
    n = draw(st.integers(1_000, 6_000))
    bench = draw(st.sampled_from([0, "zipf"]))
    level = draw(st.sampled_from(["steps", "io"]))
    return perf, n, bench, level


@given(run_params())
@settings(max_examples=10, deadline=None)
def test_event_stream_is_well_formed(params):
    perf_vals, n, bench, level = params
    perf = PerfVector(perf_vals)
    n = perf.nearest_exact(n)
    data = make_benchmark(bench, n, seed=0)
    cluster = Cluster(
        heterogeneous_cluster(SPEEDS[perf.p], memory_items=512)
    )
    cluster.bus.set_level(level)
    sort_array(cluster, perf, data, PSRSConfig(block_items=64, message_items=256))
    events = cluster.bus.events
    assert events

    # Every StepBegin has exactly one matching StepEnd (same step, node),
    # and the end never precedes its begin.
    begins = {}
    ends = {}
    for e in events:
        if isinstance(e, StepBegin):
            key = (e.step, e.node)
            assert key not in begins, f"duplicate StepBegin {key}"
            begins[key] = e
        elif isinstance(e, StepEnd):
            key = (e.step, e.node)
            assert key not in ends, f"duplicate StepEnd {key}"
            assert key in begins, f"StepEnd {key} without StepBegin"
            ends[key] = e
            assert e.t >= begins[key].t
            assert e.duration >= 0
    assert set(begins) == set(ends), "unmatched StepBegin(s)"

    # Per-node timestamps are non-decreasing in emission order.
    last = {}
    for e in events:
        assert e.t >= last.get(e.node, 0.0), (
            f"time ran backwards on node {e.node}: {e}"
        )
        last[e.node] = e.t

    # The step fold agrees with the paired events.
    intervals = step_intervals(events)
    for (step, node), end in ends.items():
        (execution,) = intervals[step]
        assert execution[node] == (begins[(step, node)].t, end.t)
        assert end.t - begins[(step, node)].t == end.duration


# -- JSONL export against the per-event reference encoder ---------------------

#: Values per annotated field type.  Float fields also take what real
#: callers can hand in instead of a float (an int, a bool, ``None``) and
#: the non-finite values, which JSON spells differently from ``repr``.
_FIELD_VALUES = {
    "float": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2**70), 2**70),
        st.booleans(),
        st.none(),
    ),
    "int": st.one_of(st.integers(-(2**70), 2**70), st.booleans()),
    # Quotes, backslashes, control and non-ASCII characters included.
    "str": st.one_of(
        st.text(), st.sampled_from(['"', "\\", "a\"b\\c", "\n\t\x00", "é→𝄞"])
    ),
}


@st.composite
def any_event(draw):
    cls = draw(st.sampled_from(sorted(EVENT_TYPES.values(), key=lambda c: c.kind)))
    return cls(**{f.name: draw(_FIELD_VALUES[f.type]) for f in fields(cls)})


def _reference_line(event):
    return json.dumps(event.to_dict())


def test_strategy_covers_all_eleven_kinds():
    assert len(EVENT_TYPES) == 11
    for cls in EVENT_TYPES.values():
        assert {f.type for f in fields(cls)} <= set(_FIELD_VALUES)


@given(st.lists(any_event(), max_size=12), st.booleans())
@example(  # 0.0 and -0.0 in one stream, 0.0 first: one dict key, two texts
    events=[
        StepEnd(t=0.0, node=0, step="", duration=-0.0),
        StepEnd(t=-0.0, node=0, step="", duration=0.0),
    ],
    with_meta=False,
)
@example(  # ... and -0.0 first
    events=[
        BarrierWait(t=-0.0, node=0, step="", wait=0.0),
        BarrierWait(t=0.0, node=0, step="", wait=-0.0),
    ],
    with_meta=False,
)
@example(  # one float in several fields; 1, 1.0 and True are one dict key
    events=[
        BlockRead(t=2.5, node=1, step="2.5", disk="d", n_items=1, itemsize=1,
                  cost=2.5, queued=2.5, stream="2.5", offset=1),
        Compute(t=1.0, node=1, step="1", seconds=1, ops=1.0),
        Compute(t=1, node=1, step="1.0", seconds=1.0, ops=True),
    ],
    with_meta=True,
)
@settings(max_examples=300, deadline=None)
def test_jsonl_export_equals_reference_encoder_and_round_trips(
    tmp_path_factory, events, with_meta
):
    meta = {"n_items": 7, "note": 'q"\\'} if with_meta else None
    head = [json.dumps({"kind": "run_meta", **meta})] if with_meta else []
    text = events_to_jsonl(events, meta)
    assert text == "\n".join(head + [_reference_line(e) for e in events]) + "\n"

    path = tmp_path_factory.mktemp("jsonl") / "e.jsonl"
    path.write_text(text, encoding="utf-8")
    meta_back, back = read_jsonl(str(path))
    assert meta_back == meta
    assert len(back) == len(events)
    # NaN != NaN, so the re-export being identical is the round-trip check.
    assert events_to_jsonl(back, meta) == text
