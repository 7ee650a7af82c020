"""Algorithm 1: external PSRS for heterogeneous clusters.

The five steps of the paper, executed on a simulated
:class:`~repro.cluster.machine.Cluster` with BSP barriers between steps:

1. **local sort** — each node polyphase-merge-sorts its portion ``l_i``;
2. **pivot selection** — heterogeneity-aware regular sampling, gather on
   the designated node, pivot pick, broadcast;
3. **partition** — binary partitioning of the sorted portion into p
   sublists;
4. **redistribution** — sublist j travels to node j
   (:func:`~repro.core.redistribute.stream_run` applies the paper's
   message rule);
5. **final merge** — each node externally merges the p received runs
   (reusing the polyphase machinery's k-way merge).

The PSRS load-balance theorem carries over (paper §4): no node receives
more than twice its performance-proportional share (+ the duplicate
count d) — checked by the test suite via the returned metrics.

Fault tolerance (docs/FAULTS.md)
--------------------------------
Passing ``faults=`` (a :class:`~repro.faults.plan.FaultPlan`) and/or
``retry=`` (a :class:`~repro.faults.plan.RetryPolicy`) turns on
step-level recovery:

* every step's inputs are *checkpointed* at the preceding barrier: the
  files a step consumes are released to the
  :class:`~repro.faults.recovery.StepRunner`, which holds them on disk
  until the sort commits instead of clearing them at once, so a step
  that raises a transient
  :class:`~repro.faults.plan.FaultError` is simply re-run after the
  policy's backoff — charged to the simulated clocks;
* a node killed during steps 2-5 triggers *degraded mode*: its
  checkpointed sorted run is salvaged onto the fastest survivor, the
  perf vector is rescaled over the survivors, and steps 2-5 re-run on
  the survivor subcluster — the 2x bound then holds against the
  rescaled shares (``PSRSResult.optimal_sizes``);
* a node killed during step 1 is unrecoverable (no checkpoint exists
  yet) and raises :class:`~repro.faults.plan.NodeKilledError`.

Without these arguments the behaviour (and the charged cost model) is
bit-identical to the fault-free implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from repro.cluster.machine import Cluster, ClusterView
from repro.cluster.node import SimNode
from repro.core.partition import materialize_partitions, partition_offsets, partition_refs
from repro.core.perf import PerfVector
from repro.core.redistribute import RedistributionReport, redistribute, stream_run
from repro.core.result import SortResult
from repro.core.sampling import random_sample, regular_sample, sample_count, select_pivots
from repro.extsort.multiway import RunCursor, RunRef, max_merge_order, merge_runs
from repro.extsort.polyphase import polyphase_sort
from repro.extsort.runs import RunPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultCounters, FaultPlan, NodeKilledError, RetryPolicy
from repro.faults.recovery import StepRunner
from repro.obs.events import step_seconds
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.stats import IOStats

#: The values of ``PSRSConfig.pivot_method``, in the order they are offered.
PIVOT_METHODS: tuple[str, ...] = ("regular", "random", "quantile")


@dataclass(frozen=True)
class PSRSConfig:
    """Tunables of the external PSRS run.

    Attributes
    ----------
    block_items:
        The PDM block size B, in items.
    message_items:
        Step-4 message size, in items (the paper's best: 8K integers;
        Table 3 uses 32 Kb = 8K integers).  Clamped to a multiple of B.
    n_tapes:
        Polyphase file count for steps 1/5 (Table 3 uses 15; default
        picks from the memory budget).
    run_policy:
        Run formation in step 1: ``"load"`` or ``"replacement"``.
    materialize_partitions:
        Step 3 paper-faithful sublist files (True) or zero-copy ranges
        (False) — an ablation.
    pivot_method:
        ``"regular"`` (the paper), ``"random"`` (oversampling flavour)
        or ``"quantile"`` (exact boundaries by distributed counting
        search — the §3.2 extension; best balance, more step-2 I/O).
    oversample:
        Sample-count multiplier c (L_i = c*(p-1)*perf[i]); c=1 is the
        paper's literal count, the default c=4 refines the pivot grid.
    seed:
        RNG seed (used only by ``pivot_method="random"``).
    """

    block_items: int = 1024
    message_items: int = 8192
    n_tapes: Optional[int] = None
    run_policy: RunPolicy = "load"
    materialize_partitions: bool = True
    pivot_method: Literal["regular", "random", "quantile"] = "regular"
    oversample: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.block_items < 1:
            raise ValueError(f"block_items must be >= 1, got {self.block_items}")
        if self.message_items < 1:
            raise ValueError(f"message_items must be >= 1, got {self.message_items}")
        if self.pivot_method not in PIVOT_METHODS:
            raise ValueError(f"unknown pivot_method {self.pivot_method!r}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")


@dataclass
class PSRSResult(SortResult[BlockFile]):
    """Everything the paper's Table 3 reports, plus diagnostics.

    In degraded mode ``active_ranks`` maps the positions of the per-node
    lists back to original cluster ranks.
    """

    pivots: np.ndarray
    io: IOStats
    network_bytes: int
    network_messages: int
    redistribution: RedistributionReport = field(default_factory=RedistributionReport)
    step_io: dict[str, IOStats] = field(default_factory=dict)
    faults: FaultCounters = field(default_factory=FaultCounters)
    active_ranks: list[int] = field(default_factory=list)


def sort_distributed(
    cluster: Cluster,
    perf: PerfVector,
    inputs: Sequence[BlockFile],
    config: PSRSConfig = PSRSConfig(),
    *,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> PSRSResult:
    """Run Algorithm 1 on per-node input files already on the node disks.

    ``inputs[i]`` must live on ``cluster.nodes[i]``'s disk and its size
    should be node i's portion ``l_i`` (use :meth:`PerfVector.portions`).

    ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` for the
    duration of the sort; ``retry`` enables step-level retry of transient
    faults.  Either argument switches the sort into checkpointed,
    recoverable execution.  An injector installed on the cluster
    beforehand still fires through the cluster's hooks, but its faults
    are recovered from only when ``retry`` is given.
    """
    injector = FaultInjector(faults).install(cluster) if faults is not None else None
    try:
        return _sort_impl(cluster, perf, inputs, config, injector, retry)
    finally:
        if injector is not None:
            injector.uninstall()


def _sort_impl(
    cluster: Cluster,
    perf: PerfVector,
    inputs: Sequence[BlockFile],
    config: PSRSConfig,
    injector: Optional[FaultInjector],
    retry: Optional[RetryPolicy],
) -> PSRSResult:
    p = cluster.p
    if perf.p != p:
        raise ValueError(f"perf has {perf.p} entries for a {p}-node cluster")
    if len(inputs) != p:
        raise ValueError(f"need {p} input files, got {len(inputs)}")
    n_items = sum(f.n_items for f in inputs)
    io_before = cluster.io_stats()
    rng = np.random.default_rng(config.seed)
    counters = injector.counters if injector is not None else FaultCounters()
    runner = StepRunner(
        cluster, retry, counters, checkpoint=injector is not None or retry is not None
    )

    active = list(range(p))
    view = cluster.view(active)
    aperf = perf

    # ---- Step 1: local external sort -------------------------------------
    # The sorted runs double as the step-1 checkpoint: with checkpointing
    # on they stay on disk until the sort commits, so any later step (or a
    # survivor taking over a dead node's portion) can restart from them.
    def _step1() -> list[BlockFile]:
        files: list[BlockFile] = []
        for node, f in zip(view.nodes, inputs):
            res = polyphase_sort(
                f,
                node.disk,
                node.mem,
                n_tapes=config.n_tapes,
                run_policy=config.run_policy,
                compute=node.compute,
            )
            files.append(res.output)
        return files

    sorted_by_rank = dict(zip(active, runner.run(view, "1:local-sort", _step1)))

    # ---- Steps 2-5, re-entered from step 2 in degraded mode ---------------
    while True:
        sorted_files = [sorted_by_rank[r] for r in active]
        try:
            pivots = runner.run(
                view,
                "2:pivots",
                lambda: _pivot_step(view, aperf, sorted_files, config, rng),
            )

            partitions = runner.run(
                view,
                "3:partition",
                lambda: _partition_step(view, sorted_files, pivots, config),
            )

            # Linear-space discipline (PDM: "algorithms should use O(n)
            # blocks of storage"): once a phase's files are consumed, the
            # runner reclaims them.
            if config.materialize_partitions:
                runner.release(sorted_files)  # partitions hold the data now

            received, redist_report = runner.run(
                view,
                "4:redistribute",
                lambda: redistribute(view, partitions, config.message_items),
            )
            runner.release(  # receivers hold the data now
                ref.file
                for row in partitions
                for ref in row
                if ref.start == 0 and ref.stop == ref.file.n_items
            )
            if not config.materialize_partitions:
                runner.release(sorted_files)

            received_sizes = [
                sum(f.n_items for f in received[j]) for j in range(view.p)
            ]

            outputs = runner.run(
                view,
                "5:final-merge",
                lambda: _merge_step(view, received, config, runner),
            )
            break
        except NodeKilledError as exc:
            if not runner.checkpoint or exc.step < 2:
                raise  # no checkpoint before the step-1 barrier
            counters.degraded = True
            active = [r for r in active if r != exc.rank]
            if not active:
                raise
            # The fastest survivor absorbs the dead node's portion.
            buddy = max(active, key=lambda r: (perf[r], -r))
            view = cluster.view(active)
            aperf = perf.subset(active)
            dead_file = sorted_by_rank.pop(exc.rank)
            sorted_by_rank[buddy] = _salvage_step(
                cluster,
                view,
                runner,
                exc.rank,
                buddy,
                dead_file,
                sorted_by_rank[buddy],
                config,
            )

    runner.commit()
    elapsed = view.barrier()
    return PSRSResult(
        outputs=outputs,
        perf=aperf,
        n_items=n_items,
        elapsed=elapsed,
        step_times=step_seconds(cluster.bus.events),
        pivots=np.asarray(pivots),
        received_sizes=received_sizes,
        io=cluster.io_stats() - io_before,
        network_bytes=cluster.network.bytes_sent,
        network_messages=cluster.network.messages_sent,
        redistribution=redist_report,
        step_io=runner.step_io,
        faults=counters,
        active_ranks=list(active),
    )


def _pivot_step(
    view: ClusterView,
    perf: PerfVector,
    sorted_files: Sequence[BlockFile],
    config: PSRSConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Step 2 on the (possibly degraded) node set; positional indexing."""
    p = view.p
    if p == 1:
        return np.empty(0, dtype=sorted_files[0].dtype)
    root = 0  # the view's first node: rank 0, or the lowest survivor
    if config.pivot_method == "quantile":
        from repro.core.quantiles import exact_quantile_pivots

        pivots, _report = exact_quantile_pivots(view, perf, sorted_files, root=root)
        return pivots
    samples = []
    for pos, (node, sf) in enumerate(zip(view.nodes, sorted_files)):
        if config.pivot_method == "regular":
            s = regular_sample(sf, perf, pos, node.mem, config.oversample)
        else:
            s = random_sample(
                sf,
                max(1, sample_count(perf[pos], p, config.oversample)),
                node.mem,
                rng,
            )
        samples.append(s)
    gathered = view.comm.gather(samples, root=root)
    candidates = np.concatenate(gathered)
    pivots = select_pivots(
        candidates,
        perf,
        compute=view.nodes[root].compute,
        oversample=config.oversample,
    )
    return view.comm.bcast(pivots, root=root)[0]


def _partition_step(
    view: ClusterView,
    sorted_files: Sequence[BlockFile],
    pivots: np.ndarray,
    config: PSRSConfig,
) -> list[list[RunRef]]:
    """Step 3: per-node binary partitioning of the sorted portions."""
    partitions: list[list[RunRef]] = []
    for node, sf in zip(view.nodes, sorted_files):
        cuts = partition_offsets(sf, pivots, node.mem)
        if config.materialize_partitions:
            files = materialize_partitions(sf, cuts, node.disk, node.mem)
            partitions.append([RunRef.whole(f) for f in files])
        else:
            partitions.append(partition_refs(sf, cuts))
    return partitions


def _merge_step(
    view: ClusterView,
    received: Sequence[list[BlockFile]],
    config: PSRSConfig,
    runner: StepRunner,
) -> list[BlockFile]:
    """Step 5: every node merges its received runs."""
    outputs: list[BlockFile] = []
    for j, node in enumerate(view.nodes):
        refs = [RunRef.whole(f) for f in received[j] if f.n_items > 0]
        out = merge_many(
            refs, node, name=f"out{j}", B=config.block_items, dtype=received[j][0].dtype
        )
        runner.release(f for f in received[j] if f is not out)
        outputs.append(out)
    return outputs


def _salvage_step(
    cluster: Cluster,
    view: ClusterView,
    runner: StepRunner,
    dead_rank: int,
    buddy_rank: int,
    dead_file: BlockFile,
    buddy_file: BlockFile,
    config: PSRSConfig,
) -> BlockFile:
    """Recover a dead node's checkpointed sorted run onto a survivor.

    The node process is dead but its disk is not (a crash is not media
    loss): the buddy streams the dead node's step-1 run into its own
    memory and over the network — charged to the dead disk, the link and
    the buddy's disk — then k-way-merges it with its own run so the
    survivor set again holds one sorted portion per active node.
    """
    dead = cluster.nodes[dead_rank]
    buddy = cluster.nodes[buddy_rank]

    def _salvage() -> BlockFile:
        out = buddy.disk.new_file(
            dead_file.B, dead_file.dtype, name=buddy.disk.next_file_name("salvage")
        )
        with BlockWriter(out, buddy.mem) as w:
            stream_run(
                cluster.network, dead, buddy, RunCursor(RunRef.whole(dead_file), buddy.mem),
                w, config.message_items,
            )
        return out

    salvaged = runner.run(view, "recover:salvage", _salvage)

    def _remerge() -> BlockFile:
        refs = [RunRef.whole(f) for f in (buddy_file, salvaged) if f.n_items > 0]
        if not refs:
            return buddy_file
        if len(refs) == 1:
            return refs[0].file
        return merge_many(refs, buddy, name="resort")

    merged = runner.run(view, "recover:remerge", _remerge)
    for f in (dead_file, buddy_file, salvaged):
        if f is not merged:
            f.clear()
    return merged


def merge_many(
    refs: list[RunRef],
    node: SimNode,
    name: str = "out",
    B: int | None = None,
    dtype: np.dtype | type = np.uint32,
) -> BlockFile:
    """Merge any number of sorted runs on one node, multi-pass if needed.

    Step 5 merges p runs; when p exceeds the memory-feasible merge order
    the runs are merged in groups (this re-uses the same k-way machinery
    polyphase uses, as the paper prescribes).  ``B`` / ``dtype`` shape the
    output file only when ``refs`` is empty (a node that received
    nothing); otherwise the geometry comes from the runs themselves.
    """
    disk, mem = node.disk, node.mem
    if not refs:
        if B is None:
            raise ValueError("merge_many with no runs needs an explicit B")
        return disk.new_file(B, dtype, name=disk.next_file_name(name))
    B = refs[0].file.B
    dtype = refs[0].file.dtype
    k = max_merge_order(mem, B)
    level = list(refs)
    while True:
        if len(level) == 1 and level[0].start == 0 and level[0].stop == level[0].file.n_items:
            return level[0].file
        nxt: list[RunRef] = []
        for i in range(0, len(level), k):
            group = level[i : i + k]
            out = disk.new_file(B, dtype, name=disk.next_file_name(name))
            merge_runs(group, out, mem, compute=node.compute)
            nxt.append(RunRef.whole(out))
        level = nxt


def distribute_array(
    cluster: Cluster,
    perf: PerfVector,
    data: np.ndarray,
    block_items: int,
    timed: bool = False,
) -> list[BlockFile]:
    """Deal ``data`` onto the node disks in perf-proportional portions.

    The paper's measurements exclude the initial distribution; with
    ``timed=False`` (default) all clocks and counters are reset after the
    files are written.
    """
    files: list[BlockFile] = []
    for node, portion in zip(cluster.nodes, perf.split(data)):
        f = node.disk.new_file(
            block_items, data.dtype, name=node.disk.next_file_name("input")
        )
        with BlockWriter(f, node.mem) as w:
            w.write(portion)  # repro: noqa REP105(setup distribution; excluded from measurement, clocks reset below unless timed)
        files.append(f)
    if not timed:
        cluster.reset()
    return files


def sort_array(
    cluster: Cluster,
    perf: PerfVector,
    data: np.ndarray,
    config: PSRSConfig = PSRSConfig(),
    *,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> PSRSResult:
    """Convenience wrapper: distribute ``data`` (untimed), then sort."""
    inputs = distribute_array(cluster, perf, data, config.block_items)
    return sort_distributed(cluster, perf, inputs, config, faults=faults, retry=retry)


def gather_output(
    cluster: Cluster,
    result: PSRSResult,
    root: int = 0,
    message_items: int = 8192,
) -> BlockFile:
    """Collect the sorted per-node outputs onto the root node's disk.

    The paper *excludes* this from its timings ("the execution time does
    not comprise ... the gather time"), so it is a separate utility; it
    still charges the model (root-serialized receives, block-multiple
    messages), letting experiments quantify exactly what was excluded.
    Node outputs are already globally ordered by rank, so the gather is
    a concatenation.  In degraded mode ``result.active_ranks`` maps the
    outputs back to their owning nodes.
    """
    root_node = cluster.nodes[root]
    B = result.outputs[0].B if result.outputs else 1024
    dtype = result.outputs[0].dtype if result.outputs else np.uint32
    ranks = result.active_ranks or list(range(len(result.outputs)))
    out = root_node.disk.new_file(
        B, dtype, name=root_node.disk.next_file_name("gathered")
    )
    with cluster.step("gather"):
        with BlockWriter(out, root_node.mem) as w:
            for rank, f in zip(ranks, result.outputs):
                src = cluster.nodes[rank]
                stream_run(
                    cluster.network, src, root_node, RunCursor(RunRef.whole(f), src.mem),
                    w, message_items,
                )
    return out
