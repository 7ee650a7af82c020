"""The run spec: one serializable Scenario fixes a run of Algorithm 1.

A scenario pins down everything a run depends on — workload spec + n +
dtype, the perf vector, the PDM configuration (M, B, message size), the
pivot method, the RNG seed and an optional :class:`~repro.faults.plan.FaultPlan`
— so executing the same scenario twice is bit-identical and a JSONL case
file replays years later.  ``repro sort`` parses its flags into one and
the fuzz executor runs them, both through :meth:`Scenario.input`,
``cluster``, ``sort`` and ``run_meta``; a run adds only the machine
(kernel, link) and the capture level.

:meth:`Scenario.validate` is the fuzzer's envelope, which ``repro sort``
does not enforce.  Scenarios are *closed under mutation*: every mutator
output must pass it, and its limits encode the real envelope of the
simulator (e.g. the polyphase engine needs ``M >= 3B``, a kill needs a
surviving node, step-1 kills are unrecoverable by design and therefore
excluded from the space).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Union

import numpy as np

from repro.cluster.kernel import ExecutionKernel
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.network import FAST_ETHERNET, LinkModel
from repro.core.external_psrs import PIVOT_METHODS, PSRSConfig, PSRSResult, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.extsort.polyphase import merge_blocks
from repro.faults.plan import FaultPlan, FaultPlanError, RetryPolicy
from repro.obs.audit import RunMeta
from repro.workloads.generators import BENCHMARKS, make_benchmark
from repro.workloads.records import SUPPORTED_KEY_DTYPES

#: Workload names the scenario space draws from (the 8 paper benchmarks).
WORKLOADS: tuple[str, ...] = tuple(spec.name for spec in BENCHMARKS.values())

#: Key dtypes the fuzzer exercises: every dtype the engines support.
DTYPES: tuple[str, ...] = tuple(str(d) for d in SUPPORTED_KEY_DTYPES)

MIN_N, MAX_N = 64, 1 << 20
MAX_P = 16
MAX_PERF = 8
MIN_BLOCK, MAX_BLOCK = 16, 1024
#: Polyphase external merging needs at least 3 block buffers in core.
MIN_MEMORY_BLOCKS = 3
MAX_MEMORY = 1 << 17
MIN_MESSAGE, MAX_MESSAGE = 32, 1 << 16
MAX_OVERSAMPLE = 8
MAX_RETRIES = 8


class ScenarioError(ValueError):
    """A scenario violates the envelope the simulator supports."""


def workload_name(which: str) -> str:
    """The workload ``which`` names: one of :data:`WORKLOADS` or its id ("0")."""
    if which.isdigit() and int(which) in BENCHMARKS:
        return BENCHMARKS[int(which)].name
    if which not in WORKLOADS:
        raise ScenarioError(
            f"unknown benchmark {which!r}; have ids {sorted(BENCHMARKS)} or {list(WORKLOADS)}"
        )
    return which


@dataclass(frozen=True)
class Scenario:
    """One fully-specified run (pure data, deterministic to run)."""

    benchmark: str = "uniform"
    n_items: int = 4096
    dtype: str = "uint32"
    perf: tuple[int, ...] = (1, 1, 4, 4)
    memory_items: int = 2048
    block_items: int = 256
    message_items: int = 2048
    pivot_method: str = "regular"
    oversample: int = 4
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    retries: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "perf", tuple(int(v) for v in self.perf))

    # -- structure ---------------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.perf)

    def with_(self, **kwargs: object) -> "Scenario":
        """A copy with some axes replaced (not validated)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    # -- the run it specifies ------------------------------------------------

    def perf_vector(self) -> PerfVector:
        return PerfVector(list(self.perf))

    def input(self) -> np.ndarray:
        """The workload, at the nearest size the perf vector splits exactly."""
        n = self.perf_vector().nearest_exact(self.n_items)
        return make_benchmark(self.benchmark, n, seed=self.seed, dtype=np.dtype(self.dtype))

    def cluster(
        self,
        kernel: Union[str, ExecutionKernel] = "event",
        link: LinkModel = FAST_ETHERNET,
    ) -> Cluster:
        """One node per perf value, each with ``memory_items`` of memory."""
        spec = heterogeneous_cluster(
            [float(v) for v in self.perf], memory_items=self.memory_items, link=link
        )
        return Cluster(spec, kernel=kernel)

    def sort(self, cluster: Cluster, data: np.ndarray) -> PSRSResult:
        """Run the external PSRS sort of ``data`` on ``cluster``, with the
        spec's fault plan and retry budget.

        A memory budget too small to merge in raises ``ValueError`` here,
        before the untimed distribution, which needs a block of memory too.
        """
        merge_blocks(self.memory_items, self.block_items)
        config = PSRSConfig(
            block_items=self.block_items,
            message_items=self.message_items,
            pivot_method=self.pivot_method,
            oversample=self.oversample,
            seed=self.seed,
        )
        retry = None if self.retries is None else RetryPolicy(max_attempts=self.retries)
        return sort_array(
            cluster, self.perf_vector(), data, config, faults=self.fault_plan, retry=retry
        )

    def run_meta(self, data: np.ndarray) -> RunMeta:
        """The parameters the auditor checks a run of ``data`` against."""
        return RunMeta(
            n_items=int(data.size),
            perf=self.perf,
            memory_items=self.memory_items,
            block_items=self.block_items,
            oversample=self.oversample,
            d_duplicates=max_duplicate_count(data),
            pivot_method=self.pivot_method,
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> "Scenario":
        """Check every axis against the simulator's envelope; returns self."""
        if self.benchmark not in WORKLOADS:
            raise ScenarioError(
                f"unknown benchmark {self.benchmark!r}; have {list(WORKLOADS)}"
            )
        if self.dtype not in DTYPES:
            raise ScenarioError(f"dtype {self.dtype!r} not in {list(DTYPES)}")
        if not (MIN_N <= self.n_items <= MAX_N):
            raise ScenarioError(
                f"n_items {self.n_items} outside [{MIN_N}, {MAX_N}]"
            )
        if not (1 <= self.p <= MAX_P):
            raise ScenarioError(f"p={self.p} outside [1, {MAX_P}]")
        for v in self.perf:
            if not (1 <= v <= MAX_PERF):
                raise ScenarioError(f"perf value {v} outside [1, {MAX_PERF}]")
        if not (MIN_BLOCK <= self.block_items <= MAX_BLOCK):
            raise ScenarioError(
                f"block_items {self.block_items} outside [{MIN_BLOCK}, {MAX_BLOCK}]"
            )
        if self.memory_items < MIN_MEMORY_BLOCKS * self.block_items:
            raise ScenarioError(
                f"memory_items {self.memory_items} < {MIN_MEMORY_BLOCKS}*B "
                f"(polyphase needs {MIN_MEMORY_BLOCKS} block buffers)"
            )
        if self.memory_items > MAX_MEMORY:
            raise ScenarioError(f"memory_items {self.memory_items} > {MAX_MEMORY}")
        if not (MIN_MESSAGE <= self.message_items <= MAX_MESSAGE):
            raise ScenarioError(
                f"message_items {self.message_items} outside "
                f"[{MIN_MESSAGE}, {MAX_MESSAGE}]"
            )
        if self.pivot_method not in PIVOT_METHODS:
            raise ScenarioError(f"pivot_method {self.pivot_method!r} unknown")
        if not (1 <= self.oversample <= MAX_OVERSAMPLE):
            raise ScenarioError(f"oversample {self.oversample} outside [1, {MAX_OVERSAMPLE}]")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.retries is not None and not (1 <= self.retries <= MAX_RETRIES):
            raise ScenarioError(f"retries {self.retries} outside [1, {MAX_RETRIES}]")
        if self.fault_plan is not None:
            try:
                self.fault_plan.validate_for(self.p)
            except FaultPlanError as exc:
                raise ScenarioError(str(exc)) from exc
            kills = self.fault_plan.node_kills
            if len(kills) >= self.p:
                raise ScenarioError("a kill plan must leave at least one survivor")
            for k in kills:
                if k.step < 2:
                    raise ScenarioError(
                        "step-1 kills are unrecoverable by design (no checkpoint "
                        "exists yet); the scenario space covers steps 2-5"
                    )
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "benchmark": self.benchmark,
            "n_items": self.n_items,
            "dtype": self.dtype,
            "perf": list(self.perf),
            "memory_items": self.memory_items,
            "block_items": self.block_items,
            "message_items": self.message_items,
            "pivot_method": self.pivot_method,
            "oversample": self.oversample,
            "seed": self.seed,
            "fault_plan": None if self.fault_plan is None else self.fault_plan.to_dict(),
            "retries": self.retries,
        }
        return out

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioError(f"scenario must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(Scenario)}
        extra = set(data) - known
        if extra:
            raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
        kwargs = dict(data)
        plan = kwargs.get("fault_plan")
        if plan is not None:
            try:
                kwargs["fault_plan"] = FaultPlan.from_dict(plan)  # type: ignore[arg-type]
            except FaultPlanError as exc:
                raise ScenarioError(f"bad fault_plan: {exc}") from exc
        if "perf" in kwargs:
            kwargs["perf"] = tuple(int(v) for v in kwargs["perf"])  # type: ignore[union-attr]
        try:
            return Scenario(**kwargs)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from None

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys — fingerprint input)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            return Scenario.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from None

    def fingerprint(self) -> str:
        """Stable 16-hex-digit content id of the canonical JSON."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


#: The dataclass defaults, used by the shrinker as the "simplest" value
#: of each config axis.
DEFAULTS: Scenario = Scenario()
