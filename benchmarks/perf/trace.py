"""Span tracing installed from outside the program.

``Tracer.install()`` wraps the public entry points of every layer
(``TARGETS``) so that each call records one span — label, layer, start,
end, parent — on the host clock.  Nothing under ``src/`` knows about it;
scope timers inside the program are a later change.  Spans stay in
memory as four parallel columns and are written out once, at the end.

A span's *self time* is its duration minus the durations of its direct
children; a layer's ``self_s`` is the sum over its spans.  Nested spans
of one layer therefore never count twice, and the part of a span covered
by another layer's spans is charged to that layer.

Wrapping costs host time (about a microsecond per span, charged mostly
to the *parent* span), so end-to-end metrics are never taken from a
traced pass; ``trace.overhead_ratio`` reports the inflation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

#: Layer -> ``module:qualname`` of the entry points wrapped.  A layer is a
#: package under ``src/repro``; ``Cluster.step`` is filed under ``core``
#: because a step span *is* one of the algorithm's five steps.
TARGETS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.generators:make_benchmark",
        "repro.workloads.records:verify_sorted_permutation",
    ),
    "core": (
        "repro.core.external_psrs:sort_array",
        "repro.core.external_psrs:distribute_array",
        "repro.core.external_psrs:merge_many",
        "repro.core.sampling:regular_sample",
        "repro.core.sampling:random_sample",
        "repro.core.sampling:select_pivots",
        "repro.core.quantiles:exact_quantile_pivots",
        "repro.core.partition:partition_offsets",
        "repro.core.partition:materialize_partitions",
        "repro.core.redistribute:redistribute",
        "repro.cluster.machine:Cluster.step",
        "repro.cluster.machine:ClusterView.step",
    ),
    "extsort": (
        "repro.extsort.polyphase:polyphase_sort",
        "repro.extsort.runs:form_runs",
        "repro.extsort.multiway:merge_cursors",
        "repro.extsort.multiway:merge_runs",
        "repro.extsort.losertree:kway_merge_sorted",
    ),
    "pdm": (
        "repro.pdm.blockfile:BlockFile.append_block",
        "repro.pdm.blockfile:BlockFile.read_block",
        "repro.pdm.blockfile:BlockWriter.write",
        "repro.pdm.blockfile:BlockWriter.close",
        # Iterating a BlockReader is a generator interleaved with its
        # consumer and cannot be one span; its blocks show as read_block.
        "repro.pdm.blockfile:BlockReader.read_all",
        "repro.pdm.disk:SimDisk.charge_read",
        "repro.pdm.disk:SimDisk.charge_write",
        "repro.pdm.memory:MemoryManager.acquire",
        "repro.pdm.memory:MemoryManager.release",
    ),
    "cluster": (
        "repro.cluster.kernel:EventKernel.on_io",
        "repro.cluster.kernel:LockstepKernel.on_io",
        "repro.cluster.mpi:SimComm.gather",
        "repro.cluster.mpi:SimComm.bcast",
        "repro.cluster.mpi:SimComm.alltoallv",
        "repro.cluster.network:Network.transfer",
        "repro.cluster.machine:Cluster.barrier",
        "repro.cluster.machine:ClusterView.barrier",
    ),
    "obs": (
        "repro.obs.bus:TelemetryBus.emit",
        "repro.obs.bus:TelemetryBus.record_step_begin",
        "repro.obs.bus:TelemetryBus.record_step_end",
        "repro.obs.bus:TelemetryBus.record_barrier_wait",
        "repro.obs.bus:TelemetryBus.record_block_io",
        "repro.obs.bus:TelemetryBus.record_compute",
        "repro.obs.bus:TelemetryBus.record_net_transfer",
        "repro.obs.bus:TelemetryBus.record_mem",
        "repro.obs.bus:TelemetryBus.record_fault",
        "repro.obs.bus:TelemetryBus.record_retry",
        "repro.obs.audit:audit_run",
        "repro.obs.profiler:RunProfile.from_cluster",
        "repro.obs.exporters:write_jsonl",
        "repro.obs.exporters:write_chrome_trace",
    ),
    "faults": (
        "repro.faults.injector:FaultInjector.install",
        # The injector's hooks: bound at install time, so wrapping the
        # methods first means the wrapped ones get installed.
        "repro.faults.injector:FaultInjector._on_message",
        "repro.faults.injector:FaultInjector._on_step",
        "repro.faults.injector:_DiskArm.check",
        "repro.faults.recovery:StepRunner.run",
    ),
    "fuzz": ("repro.fuzz.executor:ScenarioExecutor.run",),
}

#: Entry points whose *result size* is added up as a count.
MEASURED: dict[str, Callable[[object], float]] = {
    "repro.core.sampling:regular_sample": lambda r: r.size,
    "repro.core.sampling:random_sample": lambda r: r.size,
}


def _rebind(original: object, replacement: object) -> list[tuple[object, str]]:
    """Point every module global that *is* ``original`` at ``replacement``.

    ``from m import f`` copies the binding, so replacing ``m.f`` alone
    would miss every importer; returns the (module, name) pairs changed.
    """
    changed = []
    for module in list(sys.modules.values()):
        names = getattr(module, "__dict__", None)
        if not names:
            continue
        for name, value in list(names.items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


@contextmanager
def replaced(original: object, replacement: object) -> Iterator[None]:
    """Temporarily substitute a module-level function wherever it is bound."""
    changed = _rebind(original, replacement)
    try:
        yield
    finally:
        for module, name in changed:
            setattr(module, name, original)


class Tracer:
    """Records spans around ``TARGETS`` between install() and uninstall()."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in entry order; parent is a span index or -1.
        self.label_col: list[int] = []
        self.parent_col: list[int] = []
        self.start_col: list[float] = []
        self.end_col: list[float] = []
        self._stack: list[int] = [-1]
        self.measured: dict[str, float] = {}
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _label_id(self, label: str, layer: str) -> int:
        ident = self._ids.get(label)
        if ident is None:
            ident = self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.layers.append(layer)
        return ident

    @contextmanager
    def span(self, label: str, layer: str = "benchmark") -> Iterator[None]:
        """An explicit span (the benchmark's own root spans)."""
        index = len(self.label_col)
        self.label_col.append(self._label_id(label, layer))
        self.parent_col.append(self._stack[-1])
        self.end_col.append(0.0)
        self._stack.append(index)
        self.start_col.append(time.perf_counter())
        try:
            yield
        finally:
            self.end_col[index] = time.perf_counter()
            self._stack.pop()

    def _wrap_call(
        self, fn: Callable, ident: int, measure: Optional[Callable[[object], float]], key: str
    ) -> Callable:
        label_col, parent_col = self.label_col, self.parent_col
        start_col, end_col, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(label_col)
            label_col.append(ident)
            parent_col.append(stack[-1])
            end_col.append(0.0)
            stack.append(index)
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()

        if measure is None:
            return traced
        measured = self.measured
        measured.setdefault(key, 0.0)

        def traced_measured(*args, **kwargs):
            result = traced(*args, **kwargs)
            measured[key] += measure(result)
            return result

        return traced_measured

    def _wrap_context(self, fn: Callable, qualname: str, layer: str) -> Callable:
        """Wrap a ``@contextmanager`` method taking the span's name as its
        first argument (``Cluster.step(name)``): the span covers the body."""

        @contextmanager
        def traced(owner, name, *args, **kwargs):
            with self.span(f"{qualname}[{name}]", layer):
                with fn(owner, name, *args, **kwargs):
                    yield

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, targets in TARGETS.items():
            for target in targets:
                self._install_one(layer, target)

    def _install_one(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            wrapped = self._wrap_context(fn, qualname, layer)
        else:
            wrapped = self._wrap_call(
                fn, self._label_id(qualname, layer), MEASURED.get(target), target
            )
        if path:  # a method: one binding, on the class
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            changed = _rebind(fn, wrapped)
            self._undo.append(
                lambda: [setattr(module, name, fn) for module, name in changed]
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def summary(self, root: Optional[str] = None) -> dict:
        """Per-layer self time and per-label totals and counts.

        With ``root``, only the spans under the root span of that label
        (roots do not overlap, so that is one contiguous index range).
        """
        lo, hi = 0, len(self.label_col)
        if root is not None:
            roots = [i for i, p in enumerate(self.parent_col) if p < 0]
            lo = next(i for i in roots if self.labels[self.label_col[i]] == root)
            hi = next((i for i in roots if i > lo), hi)
        label = np.asarray(self.label_col[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent_col[lo:hi], dtype=np.int64) - lo
        duration = np.asarray(self.end_col[lo:hi]) - np.asarray(self.start_col[lo:hi])
        n_labels = len(self.labels)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=label.size
        )
        self_by_label = np.bincount(label, weights=duration - covered, minlength=n_labels)
        total_by_label = np.bincount(label, weights=duration, minlength=n_labels)
        count_by_label = np.bincount(label, minlength=n_labels)
        layer_self: dict[str, float] = {}
        for ident, layer in enumerate(self.layers):
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_by_label[ident])
        return {
            "spans": int(label.size),
            "layer_self_s": layer_self,
            "label_self_s": dict(zip(self.labels, self_by_label.tolist())),
            "label_total_s": dict(zip(self.labels, total_by_label.tolist())),
            "label_count": dict(zip(self.labels, count_by_label.tolist())),
        }

    def dump(self, path: str, header: dict) -> None:
        """Write every span: columns indexed by span, times in host seconds
        since the first span, ``parent`` a span index (-1 for a root)."""
        t0 = self.start_col[0] if self.start_col else 0.0
        doc = {
            **header,
            "clock": "host time.perf_counter, seconds since the first span",
            "labels": self.labels,
            "layers": self.layers,
            "spans": {
                "label": self.label_col,
                "parent": self.parent_col,
                "start": [round(t - t0, 7) for t in self.start_col],
                "end": [round(t - t0, 7) for t in self.end_col],
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
