"""DeWitt-Naughton-Schneider probabilistic-splitting sort (§2 comparator).

The paper calls this "the closest algorithm in spirit to parallel
sampling techniques ... for the D disk model": a *randomized two-step
distribution sort*.

    "First they define N buckets for an N-process program.  Then, each
    program reads its initial segment of the data and sends each element
    to the appropriate bucket (other process).  All elements received
    are written to disks as small sorted runs.  Second, each process
    merge-sorts its runs."

Differences from external PSRS that the comparison bench measures:

* **no local pre-sort**: data is routed from the *unsorted* input, so
  step 1's ``2 l_i (1 + log)`` pass disappears — but every receiver ends
  up with *many short runs* (one per arriving message) instead of p long
  ones, so the final merge-sort pays the passes back;
* **probabilistic splitting**: splitters come from a random sample of
  the unsorted data (no order information captured), so the balance is
  noticeably looser than regular sampling's — the paper's §3 argument.

The heterogeneous twist matches the rest of this library: splitters aim
at cumulative-performance quantiles so node i's bucket carries ~perf[i]
of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cluster.machine import Cluster
from repro.cluster.node import SimNode
from repro.core.external_psrs import distribute_array, merge_many
from repro.core.incore import concat_in_memory, sort_in_memory
from repro.core.perf import PerfVector
from repro.core.result import SortResult
from repro.extsort.multiway import RunRef
from repro.obs.events import step_seconds
from repro.pdm.blockfile import BlockFile, BlockWriter
from repro.pdm.stats import IOStats


@dataclass(frozen=True)
class DeWittConfig:
    """Tunables of the DeWitt-style sort."""

    block_items: int = 1024
    message_items: int = 8192
    oversample: int = 16  # random sample size per splitter
    root: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.block_items < 1:
            raise ValueError(f"block_items must be >= 1, got {self.block_items}")
        if self.message_items < 1:
            raise ValueError(f"message_items must be >= 1, got {self.message_items}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")


@dataclass
class DeWittResult(SortResult[BlockFile]):
    """Outputs and shared metrics plus the splitters and run counts."""

    splitters: np.ndarray
    runs_per_node: list[int]
    io: IOStats = field(default_factory=IOStats)
    network_bytes: int = 0
    network_messages: int = 0


def _splitters_from_random_sample(
    cluster: Cluster,
    perf: PerfVector,
    inputs: Sequence[BlockFile],
    config: DeWittConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random (unsorted-data) sample -> cumulative-perf splitters."""
    p = cluster.p
    samples = []
    for node, f in zip(cluster.nodes, inputs):
        if f.n_blocks == 0:
            samples.append(np.empty(0, dtype=f.dtype))
            continue
        want = max(1, config.oversample * (p - 1) * perf[node.rank])
        # Sample whole blocks (sequential-friendly), then items.
        n_blocks = min(f.n_blocks, max(1, -(-want // f.B)))
        idxs = rng.choice(f.n_blocks, size=n_blocks, replace=False)
        parts = []
        for b in sorted(int(x) for x in idxs):  # repro: noqa REP002(orders O(n/B) sampled block indices, metadata not records)
            with node.mem.reserve(f.block_items(b)):
                parts.append(f.read_block(b))
        pool = np.concatenate(parts)
        take = min(want, pool.size)
        samples.append(pool[rng.integers(0, pool.size, size=take)])
    gathered = cluster.comm.gather(samples, root=config.root)
    root_node = cluster.nodes[config.root]
    cand = sort_in_memory(concat_in_memory(gathered, root_node), root_node)
    if cand.size == 0:
        raise ValueError("cannot pick splitters from an empty input")
    cum = np.cumsum(perf.values)[:-1] / perf.total
    ranks = np.clip((cum * cand.size).astype(np.int64), 0, cand.size - 1)
    splitters = cand[ranks]
    return cluster.comm.bcast(splitters, root=config.root)[0]


def sort_dewitt_distributed(
    cluster: Cluster,
    perf: PerfVector,
    inputs: Sequence[BlockFile],
    config: DeWittConfig = DeWittConfig(),
) -> DeWittResult:
    """Run the two-step probabilistic-splitting sort on per-node inputs."""
    p = cluster.p
    if perf.p != p or len(inputs) != p:
        raise ValueError("perf/inputs must match the cluster size")
    n_items = sum(f.n_items for f in inputs)
    io_before = cluster.io_stats()
    rng = np.random.default_rng(config.seed)
    B = config.block_items

    # ---- Step 1a: splitters from a random sample --------------------------
    with cluster.step("1:splitters"):
        if p > 1:
            splitters = _splitters_from_random_sample(
                cluster, perf, inputs, config, rng
            )
        else:
            splitters = np.empty(0, dtype=inputs[0].dtype)

    # Per-destination outgoing buffer size: p buffers + one input block
    # must fit in memory on the sender, and a message must fit at the
    # receiver next to its write buffer.
    def _msg_cap(node: SimNode) -> int:
        cap = config.message_items
        if node.mem.capacity is not None:
            cap = min(cap, max(1, (node.mem.capacity - 2 * B) // max(1, p)))
        return cap

    # ---- Step 1b: route every element to its bucket ------------------------
    # Receivers write each arriving message as one small sorted run.
    runs: list[list[BlockFile]] = [[] for _ in range(p)]

    def deliver(src_rank: int, dst_rank: int, chunk: np.ndarray) -> None:
        if chunk.size == 0:
            return
        src, dst = cluster.nodes[src_rank], cluster.nodes[dst_rank]
        if src_rank != dst_rank:
            cluster.network.transfer(src, dst, chunk.nbytes, item_bytes=chunk.dtype.itemsize)
        run = sort_in_memory(chunk, dst)
        f = dst.disk.new_file(B, run.dtype, name=dst.disk.next_file_name("dwrun"))
        with dst.mem.reserve(run.size):
            with BlockWriter(f, dst.mem) as w:
                w.write(run)
        runs[dst_rank].append(f)

    with cluster.step("2:route"):
        for node, f in zip(cluster.nodes, inputs):
            cap = _msg_cap(node)
            pending: list[list[np.ndarray]] = [[] for _ in range(p)]
            pending_n = [0] * p
            for b in range(f.n_blocks):
                with node.mem.reserve(f.block_items(b)):
                    block = f.read_block(b)
                    which = np.searchsorted(splitters, block, side="right")
                    node.compute(block.size * float(np.log2(max(2, p))))
                    for j in range(p):
                        sel = block[which == j]
                        if sel.size == 0:
                            continue
                        pending[j].append(sel.copy())
                        pending_n[j] += sel.size
                        if pending_n[j] >= cap:
                            deliver(node.rank, j, np.concatenate(pending[j]))
                            pending[j], pending_n[j] = [], 0
            for j in range(p):
                if pending_n[j]:
                    deliver(node.rank, j, np.concatenate(pending[j]))

    received_sizes = [sum(f.n_items for f in runs[j]) for j in range(p)]
    runs_per_node = [len(runs[j]) for j in range(p)]

    # ---- Step 2: each process merge-sorts its runs --------------------------
    outputs: list[BlockFile] = []
    with cluster.step("3:merge-runs"):
        for j, node in enumerate(cluster.nodes):
            refs = [RunRef.whole(f) for f in runs[j] if f.n_items > 0]
            out = merge_many(
                refs, node, name=f"dwout{j}", B=config.block_items, dtype=inputs[0].dtype
            )
            for f in runs[j]:
                if f is not out:
                    f.clear()
            outputs.append(out)

    elapsed = cluster.barrier()
    return DeWittResult(
        outputs=outputs,
        perf=perf,
        n_items=n_items,
        elapsed=elapsed,
        step_times=step_seconds(cluster.bus.events),
        splitters=np.asarray(splitters),
        received_sizes=received_sizes,
        runs_per_node=runs_per_node,
        io=cluster.io_stats() - io_before,
        network_bytes=cluster.network.bytes_sent,
        network_messages=cluster.network.messages_sent,
    )


def sort_array_dewitt(
    cluster: Cluster,
    perf: PerfVector,
    data: np.ndarray,
    config: DeWittConfig = DeWittConfig(),
) -> DeWittResult:
    """Distribute ``data`` (untimed) and run the DeWitt-style sort."""
    inputs = distribute_array(cluster, perf, data, config.block_items)
    return sort_dewitt_distributed(cluster, perf, inputs, config)
