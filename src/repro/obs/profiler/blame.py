"""Per-(step, node) blame decomposition of a reconstructed run.

Each node's recorded step span is clipped against its timeline segments
and the clipped durations are rolled up into the five blame components
(compute / disk / net / barrier / other).  Because the timeline tiles
every node's clock without gaps, the components of one (step, node)
cell always sum to the cell's span — the report conserves time exactly,
it never estimates it.

The report also carries the two heterogeneity figures the paper's
analysis revolves around:

* per-step *time skew* — ``max_i span_i / mean_i span_i``, the wall-time
  analogue of the item-count imbalance ``s_max / (n/p)``;
* a run-level *straggler index* — the same max/mean ratio over each
  node's total productive (compute + disk + net) time across the
  numbered steps.  The paper's Theorem 1 bounds the *item* imbalance by
  2; the straggler index says how close the run came to that bound in
  time, which is what actually determines the finish line.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import ClassVar

from repro.obs.profiler.model import BARRIER, COMPONENT_OF, COMPONENTS
from repro.obs.profiler.timeline import Timeline

#: Components counted as productive work for the straggler index.
_PRODUCTIVE = ("compute", "disk", "net")


@dataclass(frozen=True)
class StepBlame:
    """One step's decomposition: per-node spans and component splits."""

    step: str
    #: node -> component -> seconds (components sum to the node's span).
    by_node: dict[int, dict[str, float]]
    #: node -> recorded span length (sum of the node's step intervals).
    spans: dict[int, float]
    #: max span / mean span over participating nodes (>= 1).
    time_skew: float

    @property
    def span_max(self) -> float:
        return max(self.spans.values(), default=0.0)

    def totals(self) -> dict[str, float]:
        out = {c: 0.0 for c in COMPONENTS}
        for comps in self.by_node.values():
            for c, v in comps.items():
                out[c] = out.get(c, 0.0) + v
        return out

    def dominant(self) -> str:
        totals = self.totals()
        return max(COMPONENTS, key=lambda c: totals.get(c, 0.0))


@dataclass(frozen=True)
class BlameReport:
    """The whole run's blame decomposition."""

    steps: list[StepBlame]
    elapsed: float
    #: Run-level component totals over the *whole* timeline (all nodes,
    #: in-step and between steps alike) — they sum to n_nodes * elapsed.
    #: With the event kernel a node's StepEnd fires at its own finish
    #: time, so barrier idle sits between step spans; it shows up here
    #: and in ``barrier_seconds`` even though in-step cells report 0.
    totals: dict[str, float]
    #: Barrier idle summed over nodes, keyed by the rendezvous's step
    #: label ("(between steps)" when the barrier carried none).
    barrier_seconds: dict[str, float]
    #: max/mean per-node productive time over the numbered steps (>= 1);
    #: the time-domain counterpart of the paper's 2x bound.
    straggler_index: float
    #: The paper's 2x load-balance bound the straggler index is read against.
    straggler_reference: ClassVar[float] = 2.0

    def step(self, name: str) -> StepBlame:
        for sb in self.steps:
            if sb.step == name:
                return sb
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "elapsed_seconds": self.elapsed,
            "straggler_index": self.straggler_index,
            "straggler_reference": self.straggler_reference,
            "totals": {c: self.totals.get(c, 0.0) for c in COMPONENTS},
            "barrier_seconds": dict(sorted(self.barrier_seconds.items())),
            "steps": [
                {
                    "step": sb.step,
                    "time_skew": sb.time_skew,
                    "span_max": sb.span_max,
                    "dominant": sb.dominant(),
                    "by_node": {
                        str(node): {
                            "span": sb.spans[node],
                            **{c: comps.get(c, 0.0) for c in COMPONENTS},
                        }
                        for node, comps in sorted(sb.by_node.items())
                    },
                }
                for sb in self.steps
            ],
        }


def _clip_components(
    tl: Timeline, node: int, intervals: list[tuple[float, float]]
) -> tuple[dict[str, float], float]:
    """Component split of ``node``'s segments clipped to ``intervals``:
    each interval visits only the segments it overlaps, from the first
    that ends after it starts to the last that starts before it ends."""
    comps = {c: 0.0 for c in COMPONENTS}
    span = 0.0
    segs, ends = tl.segments.get(node, []), tl.ends(node)
    for t0, t1 in intervals:
        span += t1 - t0
        for seg in islice(segs, bisect_right(ends, t0), None):
            if seg.t0 >= t1:
                break
            lo = max(seg.t0, t0)
            hi = min(seg.t1, t1)
            if hi > lo:
                comps[COMPONENT_OF.get(seg.kind, "other")] += hi - lo
    return comps, span


def _is_numbered(step: str) -> bool:
    return bool(step) and step[0].isdigit()


def blame_report(tl: Timeline) -> BlameReport:
    """Decompose a reconstructed run into a per-(step, node) blame report."""
    steps: list[StepBlame] = []
    by_kind: dict[str, float] = {}
    barrier_seconds: dict[str, float] = {}
    for segs in tl.segments.values():
        for seg in segs:
            kind, seconds = seg.kind, seg.t1 - seg.t0
            by_kind[kind] = by_kind.get(kind, 0.0) + seconds
            if kind == BARRIER:
                key = seg.step or "(between steps)"
                barrier_seconds[key] = barrier_seconds.get(key, 0.0) + seconds
    totals = {c: 0.0 for c in COMPONENTS}
    for kind, seconds in by_kind.items():
        totals[COMPONENT_OF.get(kind, "other")] += seconds
    productive = [0.0] * tl.n_nodes
    for step, per_node in tl.step_spans.items():
        by_node: dict[int, dict[str, float]] = {}
        spans: dict[int, float] = {}
        for node, intervals in sorted(per_node.items()):
            comps, span = _clip_components(tl, node, intervals)
            by_node[node] = comps
            spans[node] = span
            if _is_numbered(step) and node < tl.n_nodes:
                productive[node] += sum(comps[c] for c in _PRODUCTIVE)
        values = list(spans.values())
        mean = sum(values) / len(values) if values else 0.0
        skew = (max(values) / mean) if mean > 0 else 1.0
        steps.append(StepBlame(step=step, by_node=by_node, spans=spans, time_skew=skew))
    busy = [p for p in productive if p > 0.0]
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    straggler = (max(busy) / mean_busy) if mean_busy > 0 else 1.0
    return BlameReport(
        steps=steps,
        elapsed=tl.elapsed,
        totals=totals,
        barrier_seconds=barrier_seconds,
        straggler_index=straggler,
    )
