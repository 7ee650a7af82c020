"""The Chrome-trace writer against the dict-building reference, byte for byte.

``write_chrome_trace`` formats each span from a text template; whatever
the events and critical-path segments hold — non-finite floats, bools
and ``None`` where numbers belong, quotes, backslashes and non-ASCII in
names — the file it writes must be ``json.dumps`` of the document
``tests/chrome_reference.py`` builds, plus a newline, and where the
reference raises the writer raises the same exception type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EVENT_TYPES
from repro.obs.exporters import to_chrome_trace, write_chrome_trace
from tests.chrome_reference import reference_chrome_trace
from tests.test_export_goldens import _run
from tests.test_obs_properties import _FIELD_VALUES, any_event


@dataclass(frozen=True)
class Segment:
    """What the exporter reads off a critical-path segment."""

    node: object
    t0: object
    t1: object
    kind: object
    step: object


#: ``_FIELD_VALUES`` without ``None``: a ``None`` time fails the whole
#: export, so these reach the writer with inf, nan, -0.0, ints and bools.
_NUMERIC = {
    **_FIELD_VALUES,
    "float": st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.integers(-(2**70), 2**70),
        st.booleans(),
    ),
}


@st.composite
def numeric_event(draw):
    cls = draw(st.sampled_from(sorted(EVENT_TYPES.values(), key=lambda c: c.kind)))
    return cls(**{f.name: draw(_NUMERIC[f.type]) for f in fields(cls)})


@st.composite
def segments(draw, values=_FIELD_VALUES):
    return Segment(
        node=draw(st.one_of(st.integers(-2, 5), st.booleans())),
        t0=draw(values["float"]),
        t1=draw(values["float"]),
        kind=draw(values["str"]),
        step=draw(values["str"]),
    )


#: Node names as ``repro sort --trace`` passes them, or none at all.
NAMES = st.one_of(
    st.none(), st.dictionaries(st.integers(-2, 5), _FIELD_VALUES["str"], max_size=4)
)


def _check(tmp_path, events, names, critical):
    path = tmp_path / "t.trace.json"
    try:
        expected = json.dumps(reference_chrome_trace(events, names, critical=critical)) + "\n"
    except Exception as exc:
        with pytest.raises(type(exc)):
            write_chrome_trace(str(path), events, names, critical=critical)
        return
    write_chrome_trace(str(path), events, names, critical=critical)
    assert path.read_bytes() == expected.encode("utf-8")
    # NaN != NaN, so the re-encoded document is what is compared.
    assert json.dumps(to_chrome_trace(events, names, critical=critical)) + "\n" == expected


@given(
    st.lists(any_event(), max_size=16),
    st.lists(segments(), max_size=4),
    NAMES,
)
@settings(max_examples=300, deadline=None)
def test_written_file_equals_reference_document(tmp_path_factory, events, critical, names):
    _check(tmp_path_factory.mktemp("chrome"), events, names, critical)


@given(
    st.lists(numeric_event(), max_size=16),
    st.lists(segments(_NUMERIC), max_size=4),
    NAMES,
)
@settings(max_examples=300, deadline=None)
def test_non_finite_and_non_float_numbers_equal_reference(
    tmp_path_factory, events, critical, names
):
    _check(tmp_path_factory.mktemp("chrome"), events, names, critical)


@pytest.mark.parametrize("name", ["event", "faulted"])
def test_real_run_equals_reference_document(name, tmp_path):
    cluster, prof, _ = _run(name)
    names = {node.rank: node.name for node in cluster.nodes}
    _check(tmp_path, cluster.bus.events, names, prof.critical.segments)
