"""Run one scenario under the full oracle stack and fold the signals.

The executor is the fuzzer's measurement instrument.  For a scenario it

1. generates the workload and builds the heterogeneous cluster,
2. runs the external PSRS sort under an installed runtime sanitizer
   with full telemetry capture,
3. verifies the output is a sorted permutation of the input,
4. audits the event stream against the paper bounds (with the
   scenario's optional tightened polyphase slack),

and folds the run into the two feedback signals the corpus scores on —
the executed line set of ``src/repro`` and the event-stream *signature*
(the set of ``(step, event-kind, node-class)`` triples, where a node's
class is its perf value, so two 4-node runs that exercise the same
fast/slow roles look alike) — plus the oracle verdict.

Classification order matters: :class:`SanitizerError` subclasses
``AssertionError`` (so it reads as a failed invariant), which means the
sanitizer arm must be checked *before* the verification arm.  Injected
:class:`FaultError` that survives the retry budget is an expected
outcome of the fault space (status ``"unrecovered"``), not a violation
— unless the scenario injected no faults, in which case it is a crash
like any other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.analysis.sanitizers import (
    SanitizerError,
    SanitizerTrip,
    install_sanitizers,
    uninstall_sanitizers,
)
from repro.cluster.kernel import ExecutionKernel
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.network import FAST_ETHERNET
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.faults.plan import FaultError, RetryPolicy
from repro.fuzz.coverage import LineCoverage
from repro.fuzz.scenario import Scenario
from repro.obs.audit import (
    POLYPHASE_SLACK,
    AuditReport,
    RunMeta,
    StepNodeIO,
    audit_run,
    collect_step_io,
)
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

#: ``RunOutcome.status`` values.  ``ok`` means fault-free, verified and
#: within bounds; ``recovered`` means faults fired but the retry layer
#: absorbed them (verified, bounds not enforced — retried steps repeat
#: I/O); ``degraded`` means the sort finished on survivors;
#: ``unrecovered`` means an injected fault exhausted its retry budget.
STATUSES = ("ok", "recovered", "degraded", "unrecovered", "violation")

#: ``Violation.kind`` values, in rough severity order.
VIOLATION_KINDS = ("sanitizer", "verify", "audit", "crash")


@dataclass(frozen=True)
class Violation:
    """One oracle failure: what tripped and the forensic detail."""

    kind: str  # one of VIOLATION_KINDS
    detail: str
    #: Machine-readable check id when one exists (``SAN-...`` for
    #: sanitizer trips, ``"step:node"`` for audit bound breaches).
    check: Optional[str] = None

    def key(self) -> tuple[str, str]:
        """Dedup key: violations with the same key are "the same bug"."""
        return (self.kind, self.check or "")


@dataclass
class RunOutcome:
    """Everything one scenario execution produced."""

    scenario: Scenario
    status: str
    violation: Optional[Violation] = None
    #: Executed ``(relpath, line)`` set of ``src/repro``.
    coverage: frozenset[tuple[str, int]] = frozenset()
    #: Event-stream signature: ``(step, event-kind, node-class)`` triples.
    signature: frozenset[tuple[str, str, str]] = frozenset()
    #: Largest measured/bound ratio the auditor saw (0.0 when not audited).
    worst_ratio: float = 0.0
    #: Sanitizer trip records (kept even though the error is translated).
    trips: tuple[SanitizerTrip, ...] = ()
    #: Simulated (virtual-clock) seconds of the sort, when it finished.
    sim_elapsed: float = 0.0
    n_sorted: int = 0
    #: sha256 of the sorted output bytes — kernel-independent fingerprint
    #: used by the differential harness (empty when the sort didn't finish).
    output_digest: str = ""
    #: Per-(step, node) I/O counters folded to hashable tuples:
    #: ``(step, node, blocks_read, blocks_written, items_read,
    #: items_written)``.  Timing-free, so identical across kernels.
    io_counters: frozenset[tuple[str, int, int, int, int, int]] = frozenset()
    #: The run parameters the auditor was given (``None`` when the run was
    #: not audited: it did not finish, or finished degraded / recovered).
    meta: Optional[RunMeta] = None

    @property
    def is_violation(self) -> bool:
        return self.violation is not None


class _NoCoverage:
    """Stand-in collector when coverage is disabled (replay fast path)."""

    lines: frozenset[tuple[str, int]] = frozenset()

    def __enter__(self) -> "_NoCoverage":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class ScenarioExecutor:
    """Runs scenarios; stateless between runs (safe to reuse)."""

    def __init__(
        self,
        collect_coverage: bool = True,
        kernel: Union[str, ExecutionKernel] = "event",
    ) -> None:
        self.collect_coverage = collect_coverage
        self.kernel = kernel

    def run(self, scenario: Scenario) -> RunOutcome:
        scenario.validate()
        perf = PerfVector(list(scenario.perf))
        n = perf.nearest_exact(scenario.n_items)
        data = make_benchmark(
            scenario.benchmark, n, seed=scenario.seed, dtype=np.dtype(scenario.dtype)
        )
        cluster = Cluster(
            heterogeneous_cluster(
                [float(v) for v in perf.values],
                memory_items=scenario.memory_items,
                link=FAST_ETHERNET,
            ),
            kernel=self.kernel,
        )
        cluster.bus.set_level("full")
        cfg = PSRSConfig(
            block_items=scenario.block_items,
            message_items=scenario.message_items,
            pivot_method=scenario.pivot_method,
            oversample=scenario.oversample,
            seed=scenario.seed,
        )
        retry = (
            RetryPolicy(max_attempts=scenario.retries)
            if scenario.retries is not None
            else None
        )
        slack = (
            scenario.audit_slack
            if scenario.audit_slack is not None
            else POLYPHASE_SLACK
        )

        status = "ok"
        violation: Optional[Violation] = None
        worst_ratio = 0.0
        sim_elapsed = 0.0
        n_sorted = 0
        output_digest = ""
        res = None
        report: Optional[AuditReport] = None
        meta: Optional[RunMeta] = None

        collector = LineCoverage() if self.collect_coverage else _NoCoverage()
        san = install_sanitizers()
        try:
            with collector:
                try:
                    res = sort_array(
                        cluster,
                        perf,
                        data,
                        cfg,
                        faults=scenario.fault_plan,
                        retry=retry,
                    )
                    verify_sorted_permutation(data, res.to_array())
                    san.assert_no_leaks()
                except SanitizerError as exc:
                    violation = Violation("sanitizer", str(exc), check=exc.check)
                except FaultError as exc:
                    if scenario.fault_plan is None:
                        # no faults were injected, so none may surface
                        violation = Violation(
                            "crash", f"{type(exc).__name__}: {exc}"
                        )
                    else:
                        status = "unrecovered"
                except AssertionError as exc:
                    violation = Violation("verify", str(exc))
                except Exception as exc:  # noqa: BLE001 - the fuzzer's whole job
                    violation = Violation(
                        "crash", f"{type(exc).__name__}: {exc}"
                    )

                # One fold of the stream serves the audit and io_counters.
                step_io = collect_step_io(cluster.bus.events)
                if violation is None and res is not None:
                    sim_elapsed = res.elapsed
                    n_sorted = res.n_items
                    out = np.ascontiguousarray(res.to_array())
                    output_digest = hashlib.sha256(out.tobytes()).hexdigest()
                    if res.faults.degraded:
                        # rescaled shares: Algorithm-1 bounds don't apply
                        status = "degraded"
                    elif res.faults.total_faults or res.faults.total_retries:
                        # recovered run: retried steps legitimately repeat
                        # I/O, so the fault-free bounds don't describe it
                        status = "recovered"
                    else:
                        meta = RunMeta(
                            n_items=res.n_items,
                            perf=tuple(int(v) for v in perf.values),
                            memory_items=scenario.memory_items,
                            block_items=scenario.block_items,
                            oversample=scenario.oversample,
                            d_duplicates=max_duplicate_count(data),
                            pivot_method=scenario.pivot_method,
                        )
                        report = audit_run(
                            cluster.bus.events, meta, polyphase_slack=slack, step_io=step_io
                        )
                        worst_ratio = report.worst_ratio
                        if not report.ok:
                            worst = report.violations[0]
                            violation = Violation(
                                "audit",
                                f"step {worst.step} node {worst.node}: measured "
                                f"{worst.measured_items} items > bound "
                                f"{worst.bound_items:.1f} ({worst.note}; "
                                f"slack {slack:g})",
                                check=f"{worst.step}:{worst.node}",
                            )
        finally:
            uninstall_sanitizers(san)

        if violation is not None:
            status = "violation"

        return RunOutcome(
            scenario=scenario,
            status=status,
            violation=violation,
            coverage=frozenset(collector.lines),
            signature=_signature(cluster, perf),
            worst_ratio=worst_ratio,
            trips=tuple(san.trips),
            sim_elapsed=sim_elapsed,
            n_sorted=n_sorted,
            output_digest=output_digest,
            io_counters=_io_counters(step_io),
            meta=meta,
        )


def _io_counters(
    step_io: dict[tuple[str, int], StepNodeIO],
) -> frozenset[tuple[str, int, int, int, int, int]]:
    """The folded block I/O cells as hashable per-cell tuples."""
    return frozenset(
        (step, node, c.blocks_read, c.blocks_written, c.items_read, c.items_written)
        for (step, node), c in step_io.items()
    )


def _signature(
    cluster: Cluster, perf: PerfVector
) -> frozenset[tuple[str, str, str]]:
    """Fold the telemetry stream into ``(step, kind, node-class)`` triples."""
    classes = [f"perf{v}" for v in perf.values]
    # Thousands of rows (cls, t, node, step, ...) share a few dozen heads.
    heads = {(row[0], row[2], row[3]) for row in cluster.bus.events.rows}
    return frozenset(
        (step, cls.kind, classes[rank] if 0 <= rank < perf.p else "cluster")
        for cls, rank, step in heads
    )
