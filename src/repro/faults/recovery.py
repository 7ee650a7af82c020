"""Step-level retry execution (the recovery half of the fault subsystem).

The PSRS algorithm is bulk-synchronous: every step ends at a barrier, so
the natural recovery unit is a whole step.  :class:`StepRunner` runs one
step body under a :class:`~repro.faults.plan.RetryPolicy`: a transient
:class:`~repro.faults.plan.FaultError` rolls the attempt back (step
bodies are written against checkpointed inputs, so re-running them is
safe) and the policy's backoff is charged to every participating node's
*simulated* clock — failure handling costs wall time.

The runner also owns what every step shares: the cluster-wide I/O each
step performs (:attr:`StepRunner.step_io`) and the reclamation of files
a step has consumed (:meth:`StepRunner.release` / :meth:`StepRunner.commit`).

:class:`~repro.faults.plan.NodeKilledError` is never retried here: a
dead node cannot be waited back, so it propagates to the orchestrator in
:mod:`repro.core.external_psrs`, which enters degraded mode instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, TypeVar

from repro.faults.plan import FaultCounters, FaultError, NodeKilledError, RetryPolicy

if TYPE_CHECKING:
    from repro.cluster.machine import NodeSet
    from repro.pdm.blockfile import BlockFile
    from repro.pdm.stats import IOStats

T = TypeVar("T")


class StepRunner:
    """Runs barrier-delimited step bodies with retry, I/O and file accounting.

    ``cluster`` is the node set whose disks every step's I/O is read
    from (all nodes, so a salvage that reads a dead node's disk is
    counted).  ``checkpoint`` keeps released files on disk until
    :meth:`commit`, so a retried step or a degraded re-entry can restart
    from them; without it they are cleared as soon as they are released.
    """

    def __init__(
        self,
        cluster: NodeSet,
        policy: Optional[RetryPolicy] = None,
        counters: Optional[FaultCounters] = None,
        checkpoint: bool = False,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.counters = counters if counters is not None else FaultCounters()
        self.checkpoint = checkpoint
        #: Cluster-wide I/O of every run of a step, summed per step name,
        #: in the order the steps began (the order of ``step_seconds``).
        self.step_io: dict[str, IOStats] = {}
        self._held: list[BlockFile] = []

    def run(self, view: NodeSet, name: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` as step ``name`` on ``view``, retrying transient faults."""
        before = self.cluster.io_stats()
        began = False
        try:
            attempt = 1
            while True:
                try:
                    with view.step(name):
                        began = True
                        return fn()
                except NodeKilledError:
                    raise  # dead nodes are handled by degraded mode, not retry
                except FaultError:
                    if self.policy is None or attempt >= self.policy.max_attempts:
                        raise
                    self.counters.note_retry(name)
                    pause = self.policy.delay(attempt)
                    view.bus.record_retry(
                        name,
                        node=-1,  # backoff is charged cluster-wide
                        t=max(n.clock.time for n in view.nodes),
                        attempt=attempt,
                        backoff=pause,
                    )
                    if pause > 0:
                        for node in view.nodes:
                            node.clock.advance(pause)
                        self.counters.backoff_time += pause
                    attempt += 1
        finally:
            # A step killed on entry did no I/O: booking it would list it
            # before the recovery steps that run ahead of its re-execution.
            if began:
                delta = self.cluster.io_stats() - before
                prev = self.step_io.get(name)
                self.step_io[name] = delta if prev is None else prev + delta

    def release(self, files: Iterable[BlockFile]) -> None:
        """Reclaim files a completed step has consumed (PDM linear space).

        Without checkpointing they are cleared at once; with it they are
        what a retry or a degraded re-entry restarts from, so they are
        held until :meth:`commit`.
        """
        if self.checkpoint:
            self._held.extend(files)
        else:
            for f in files:
                f.clear()

    def commit(self) -> None:
        """The run succeeded: clear every held file."""
        for f in self._held:
            f.clear()
        self._held.clear()
