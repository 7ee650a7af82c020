"""The six workloads: inputs, the timed operation, and its checks.

Every workload offers the same five calls, which ``worker.py`` drives:

``setup(seed, scale, tmp)``  generate inputs and warm up (part of ``setup_s``)
``fresh(state)``             per-repetition construction, outside the clock
``operate(state, ctx)``      the timed operation
``check(state, ctx, out)``   verify the output, read the simulated metrics
``extra(state)``             one untimed repetition for what the timed
                             operation does not yield (the audit, or for
                             ``smallmany`` the per-sort results)

``--seed`` only shifts *data* seeds.  The shape of every workload — sizes,
machines, the ``smallmany`` scenario set — is fixed, so the simulated
metrics of two commits at one seed compare exactly.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, PSRSResult, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.faults.plan import DiskFault, FaultPlan, MessageFault, NodeKill
from repro.fuzz.executor import RunOutcome, ScenarioExecutor
from repro.fuzz.scenario import WORKLOADS as INPUT_KINDS
from repro.fuzz.scenario import Scenario
from repro.obs.audit import RunMeta, audit_run
from repro.obs.events import BarrierWait
from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.profiler import RunProfile
from repro.workloads.generators import make_benchmark
from repro.workloads.records import verify_sorted_permutation

from . import trace

STEPS = ("1:local-sort", "2:pivots", "3:partition", "4:redistribute", "5:final-merge")

#: Warm-up sort size (items); the same machine and PDM geometry as the run.
WARMUP_ITEMS = 2**16

#: Layer values that fold over several sorts by maximum; the rest add.
_FOLD_MAX = {"core.received_max_over_mean", "pdm.mem_high_water_ratio"}

#: ``smallmany`` statuses that are not failures.
OK_STATUSES = ("ok", "recovered", "degraded")


@dataclass
class Reading:
    """What one checked operation yielded."""

    #: Items sorted by the operation.
    items: int
    #: Operations attempted (1, or the scenario count) and why any failed.
    attempted: int
    failures: list[str]
    #: Simulated-clock end-to-end values; must repeat exactly.
    sim: dict[str, float]
    #: Exact per-layer values read off the result objects.
    layers: dict[str, float] = field(default_factory=dict)


def sort_layers(cluster: Cluster, res: PSRSResult) -> dict[str, float]:
    """Per-layer values of one finished sort, from its public results."""
    out: dict[str, float] = {}
    for i, step in enumerate(STEPS, 1):
        out[f"core.step{i}_sim_s"] = res.step_times.get(step, 0.0)
        io = res.step_io.get(step)
        out[f"core.step{i}_io_blocks"] = (
            io.blocks_read + io.blocks_written if io is not None else 0
        )
    out["core.received_max_over_mean"] = res.max_partition / res.mean_partition
    out["pdm.mem_high_water_ratio"] = max(
        n.mem.high_water / n.mem.capacity for n in cluster.nodes
    )
    events = cluster.bus.events
    out["cluster.barrier_wait_sim_s"] = sum(
        e.wait for e in events if isinstance(e, BarrierWait)
    )
    out["obs.events_captured"] = len(events)
    out["obs.export_bytes"] = 0  # only the observed operation exports
    faults = res.faults
    out["faults.injected"] = faults.total_faults
    out["faults.retries"] = faults.total_retries
    out["faults.degraded_runs"] = int(faults.degraded)
    out["faults.recovered_runs"] = int(
        not faults.degraded and bool(faults.total_faults or faults.total_retries)
    )
    return out


def fold_layers(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine the layer values of several sorts into one operation's."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key not in out:
                out[key] = value
            elif key in _FOLD_MAX:
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


# ---------------------------------------------------------------------------
# One large sort per operation
# ---------------------------------------------------------------------------


@dataclass
class SortState:
    seed: int
    perf: PerfVector
    data: np.ndarray
    config: PSRSConfig
    tmp: str


@dataclass
class ObservedOut:
    result: PSRSResult
    report: object
    export_bytes: int


@dataclass(frozen=True)
class SortWorkload:
    """``sort_array`` on one machine; ``observed`` times the whole
    ``repro sort --profile --audit --events --trace`` path instead."""

    name: str
    perf: tuple[int, ...]
    n_items: int
    memory_items: int
    block_items: int
    kind: str = "uniform"
    #: Take the key *multiset* of this data seed and let ``--seed`` only
    #: permute it.  For ``zipf``: which node the heaviest key lands on
    #: would otherwise swing ``s_max`` between 1.05 and 3.6 from seed to
    #: seed and bury any regression of the load balance in that.
    keys_seed: Optional[int] = None
    capture: str = "steps"
    observed: bool = False
    message_items: int = 8192

    def describe(self) -> dict:
        return {
            "perf": list(self.perf),
            "n_items": self.n_items,
            "memory_items": self.memory_items,
            "block_items": self.block_items,
            "message_items": self.message_items,
            "input": self.kind
            + (f" (keys of data seed {self.keys_seed}, permuted by the seed)" if self.keys_seed is not None else ""),
            "capture": self.capture,
            "operation": "sort+profile+jsonl+chrome-trace+audit"
            if self.observed
            else "sort_array",
        }

    def setup(self, seed: int, scale: int, tmp: str) -> SortState:
        perf = PerfVector(list(self.perf))
        config = PSRSConfig(
            block_items=self.block_items, message_items=self.message_items
        )
        n = perf.nearest_exact(max(1, self.n_items // scale))
        state = SortState(seed, perf, self._input(n, seed), config, tmp)
        warm_n = perf.nearest_exact(min(n, WARMUP_ITEMS))
        warm = SortState(seed, perf, self._input(warm_n, seed), config, tmp)
        self.operate(warm, self.fresh(warm))
        return state

    def fresh(self, state: SortState, level: Optional[str] = None) -> Cluster:
        cluster = Cluster(
            heterogeneous_cluster(
                [float(v) for v in self.perf], memory_items=self.memory_items
            )
        )
        cluster.bus.set_level(level or self.capture)
        return cluster

    def _input(self, n: int, seed: int) -> np.ndarray:
        if self.keys_seed is None:
            return make_benchmark(self.kind, n, seed=seed)
        keys = make_benchmark(self.kind, n, seed=self.keys_seed)
        return np.random.default_rng(seed).permutation(keys)

    def generate(self, state: SortState) -> list[np.ndarray]:
        """The operation's input arrays, generated again."""
        return [self._input(state.data.size, state.seed)]

    def _meta(self, state: SortState, res: PSRSResult) -> RunMeta:
        return RunMeta(
            n_items=res.n_items,
            perf=self.perf,
            memory_items=self.memory_items,
            block_items=self.block_items,
            oversample=state.config.oversample,
            d_duplicates=max_duplicate_count(state.data),
            pivot_method=state.config.pivot_method,
        )

    def operate(self, state: SortState, cluster: Cluster):
        res = sort_array(cluster, state.perf, state.data, state.config)
        if not self.observed:
            return res
        # The order of cli.cmd_sort: profile, then the exporters, then the audit.
        prof = RunProfile.from_cluster(cluster, block_items=self.block_items)
        meta = self._meta(state, res)
        events = cluster.bus.events
        jsonl = os.path.join(state.tmp, "run.jsonl")
        chrome = os.path.join(state.tmp, "run.trace.json")
        write_jsonl(jsonl, events, {**meta.to_dict(), "hw": prof.hw.to_dict()})
        write_chrome_trace(
            chrome,
            events,
            {node.rank: node.name for node in cluster.nodes},
            critical=prof.critical.segments,
        )
        report = audit_run(events, meta)
        return ObservedOut(
            res, report, os.path.getsize(jsonl) + os.path.getsize(chrome)
        )

    def check(self, state: SortState, cluster: Cluster, out) -> Reading:
        res = out.result if self.observed else out
        failures = []
        try:
            verify_sorted_permutation(state.data, res.to_array())
        except AssertionError as exc:
            failures.append(f"{self.name}: unverified output: {exc}")
        sim = {
            "sim_elapsed_s": res.elapsed,
            "sim_io_blocks": res.io.blocks_read + res.io.blocks_written,
            "sim_net_bytes": res.network_bytes,
            "s_max": res.s_max,
        }
        layers = sort_layers(cluster, res)
        if self.observed:
            sim["audit_worst_ratio"] = out.report.worst_ratio
            layers["obs.export_bytes"] = out.export_bytes
            if not out.report.ok:
                failures.append(f"{self.name}: audit violation {out.report.violations[0]}")
        return Reading(res.n_items, 1, failures, sim, layers)

    def extra(self, state: SortState) -> Optional[Reading]:
        """The audit repetition, at capture level ``io``."""
        if self.observed:
            return None  # the timed operation audits
        cluster = self.fresh(state, level="io")
        res = sort_array(cluster, state.perf, state.data, state.config)
        reading = self.check(state, cluster, res)
        report = audit_run(cluster.bus.events, self._meta(state, res))
        reading.sim["audit_worst_ratio"] = report.worst_ratio
        if not report.ok:
            reading.failures.append(f"{self.name}: audit violation {report.violations[0]}")
        reading.layers = {}  # the timed repetitions' capture level is the one reported
        return reading


# ---------------------------------------------------------------------------
# Many small scenarios per operation
# ---------------------------------------------------------------------------

_PERFS = ((1, 1, 4, 4), (1, 2, 3), (2, 2, 2, 2), (1, 1, 1, 1, 2, 2, 4, 4), (1, 8), (3, 5, 7, 1, 1, 2))
#: (M, B) pairs.  (1024, 64) and (768, 256) are deliberately absent: they
#: trip the step-1 audit at POLYPHASE_SLACK = 1.3 on today's tree (README).
_MEMORY_BLOCK = ((2048, 256), (4096, 128), (8192, 512), (16384, 1024))
_PIVOTS = ("regular", "regular", "random", "quantile")
#: Seeds the *shape* of the scenario set; never varies.
_SHAPE_SEED = 20020415


def scenarios(seed: int, count: int) -> list[Scenario]:
    """The benchmark's own scenario set (not the fuzzer's mutators, so it
    is identical across commits); ``seed`` shifts the data seeds only."""
    rng = random.Random(_SHAPE_SEED)
    out = []
    for i in range(count):
        perf = rng.choice(_PERFS)
        memory, block = rng.choice(_MEMORY_BLOCK)
        n = int(2 ** rng.uniform(10, 15))
        pivot = rng.choice(_PIVOTS)
        message = 2 ** rng.randint(6, 13)
        fault = rng.randrange(6)
        node = rng.randrange(len(perf))
        after_ios = rng.randint(5, 40)
        step = rng.randint(2, 5)
        data_seed = seed + 101 * i
        plan = None
        if fault == 0:
            plan = FaultPlan(
                disk_faults=(DiskFault(node=node, after_ios=after_ios, count=1),),
                seed=data_seed,
            )
        elif fault == 1:
            plan = FaultPlan(
                message_faults=(MessageFault(drop_probability=0.05),), seed=data_seed
            )
        elif fault == 2 and len(perf) > 2:
            plan = FaultPlan(node_kills=(NodeKill(node=node, step=step),), seed=data_seed)
        out.append(
            Scenario(
                benchmark=INPUT_KINDS[i % len(INPUT_KINDS)],
                n_items=n,
                perf=perf,
                memory_items=memory,
                block_items=block,
                message_items=message,
                pivot_method=pivot,
                seed=data_seed,
                fault_plan=plan,
                retries=3 if plan is not None else None,
            ).validate()
        )
    return out


@dataclass
class ScenarioState:
    scenarios: list[Scenario]


@dataclass(frozen=True)
class ScenarioWorkload:
    """``count`` small scenarios through the fuzzer's executor."""

    name: str
    count: int

    def describe(self) -> dict:
        return {
            "scenarios": self.count,
            "n_items": "floor(2^U(10,15))",
            "perf": [list(p) for p in _PERFS],
            "memory_block": [list(mb) for mb in _MEMORY_BLOCK],
            "inputs": list(INPUT_KINDS),
            "pivots": list(_PIVOTS),
            "message_items": "2^6..2^13",
            "faults": "1/6 each: transient DiskFault, MessageFault(drop 0.05), NodeKill at step 2-5 (p>2); 3 retries",
            "operation": "ScenarioExecutor(collect_coverage=False).run per scenario",
        }

    def setup(self, seed: int, scale: int, tmp: str) -> ScenarioState:
        state = ScenarioState(scenarios(seed, max(8, self.count // scale)))
        warm = ScenarioState(state.scenarios[:4])
        self.operate(warm, self.fresh(warm))
        return state

    def fresh(self, state: ScenarioState) -> ScenarioExecutor:
        return ScenarioExecutor(collect_coverage=False)

    def generate(self, state: ScenarioState) -> list[np.ndarray]:
        """The operation's input arrays, as the executor will generate them."""
        return [
            make_benchmark(
                s.benchmark,
                PerfVector(list(s.perf)).nearest_exact(s.n_items),
                seed=s.seed,
                dtype=np.dtype(s.dtype),
            )
            for s in state.scenarios
        ]

    def operate(self, state: ScenarioState, executor: ScenarioExecutor) -> list[RunOutcome]:
        return [executor.run(s) for s in state.scenarios]

    def check(self, state: ScenarioState, executor, outcomes: list[RunOutcome]) -> Reading:
        failures = [
            f"{self.name}[{i}]: status {o.status}: "
            f"{o.violation.detail if o.violation else o.scenario.to_json()}"
            for i, o in enumerate(outcomes)
            if o.status not in OK_STATUSES
        ]
        sim = {
            "sim_elapsed_s": sum(o.sim_elapsed for o in outcomes),
            "sim_io_blocks": sum(
                cell[2] + cell[3] for o in outcomes for cell in o.io_counters
            ),
            "audit_worst_ratio": max(o.worst_ratio for o in outcomes),
        }
        return Reading(sum(o.n_sorted for o in outcomes), len(outcomes), failures, sim)

    def extra(self, state: ScenarioState) -> Reading:
        """One more pass with ``sort_array`` recorded: ``RunOutcome`` carries
        neither network bytes nor ``s_max`` nor the per-step and fault
        counters; the sort's own cluster and result do."""
        sorts: list[tuple[Cluster, PSRSResult]] = []
        original = sort_array  # this module's own name is rebound too

        def recording(cluster, *args, **kwargs):
            res = original(cluster, *args, **kwargs)
            sorts.append((cluster, res))
            return res

        with trace.replaced(original, recording):
            reading = self.check(state, None, self.operate(state, self.fresh(state)))
        reading.sim["sim_net_bytes"] = sum(res.network_bytes for _, res in sorts)
        # The 2x claim is about complete, fault-free machines.
        reading.sim["s_max"] = max(
            res.s_max
            for _, res in sorts
            if not res.faults.degraded and not res.faults.total_faults
        )
        reading.layers.update(fold_layers([sort_layers(c, res) for c, res in sorts]))
        return reading


WORKLOADS = {
    w.name: w
    for w in (
        SortWorkload("deep4", (1, 1, 4, 4), 2**18, 2048, 256),
        SortWorkload("shallow4", (1, 1, 4, 4), 2**20, 2**16, 4096),
        SortWorkload("wide16", (1, 1, 2, 2, 4, 4, 8, 8) * 2, 2**19, 2**14, 256),
        SortWorkload("dupskew4", (1, 1, 4, 4), 2**18, 2048, 256, kind="zipf", keys_seed=7),
        SortWorkload("observed4", (1, 1, 4, 4), 2**16, 2048, 256, capture="full", observed=True),
        ScenarioWorkload("smallmany", 32),
    )
}
