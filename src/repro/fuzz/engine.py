"""The fuzz loop: seeds, mutation, oracle, shrinking, replayable cases.

One iteration draws a corpus entry (rank-weighted), applies one seeded
mutation, executes it under the full oracle stack
(:class:`~repro.fuzz.executor.ScenarioExecutor`) and banks the outcome
into the priority corpus.  The first outcome of each distinct violation
key is shrunk axis-by-axis to a minimal scenario and written as a
two/three-line JSONL *case file* that replays byte-for-byte:

``{"fuzz_case": 1, "expect": {...}, "note": ...}``
    header — format version plus the expected verdict;
``{"scenario": {...}}``
    the (shrunk) scenario itself;
``{"fuzz_origin": {...}}``
    optionally, the pre-shrink scenario, the mutation trail that found
    it and the shrink statistics — forensics, ignored by replay.

Everything is a pure function of ``FuzzConfig.seed`` when running in
``max_runs`` mode: same seed, same corpus fingerprints, same cases.
Wall-clock only enters (via an explicitly waived monotonic read) when a
``time_budget`` is requested.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.faults.plan import FaultPlan, NodeKill
from repro.fuzz.corpus import Corpus
from repro.fuzz.executor import RunOutcome, ScenarioExecutor, Violation
from repro.fuzz.mutators import mutate
from repro.fuzz.scenario import Scenario, ScenarioError
from repro.fuzz.shrink import shrink

CASE_VERSION = 1

#: Hand-picked starting points spanning the interesting corners of the
#: scenario space (duplicates, skewed perf, tight memory, degradation,
#: multi-pass polyphase merging under bound pressure).
DEFAULT_SEEDS: tuple[Scenario, ...] = (
    Scenario(),
    Scenario(benchmark="zipf", n_items=8192, perf=(8, 1, 1)),
    Scenario(
        benchmark="all_equal",
        n_items=4096,
        perf=(1, 1),
        memory_items=192,
        block_items=64,
        message_items=256,
    ),
    Scenario(
        n_items=4096,
        perf=(1, 1, 4, 4),
        fault_plan=FaultPlan(node_kills=(NodeKill(node=1, step=4),)),
        retries=3,
    ),
    Scenario(
        n_items=8192,
        perf=(1,),
        memory_items=96,
        block_items=32,
        message_items=1024,
    ),
)


#: Corpus size cap.
MAX_CORPUS = 64
#: Cap on n_items for *mutated* scenarios, so one unlucky draw can't
#: eat the whole budget (the scenario envelope itself still allows MAX_N).
MAX_MUTATED_N = 1 << 16
#: Shrink attempts spent on each new violation.
SHRINK_ATTEMPTS = 200
#: Stop shrinking and writing cases after this many distinct violations.
MAX_VIOLATIONS = 10


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzz run (the ``repro fuzz`` CLI's run flags)."""

    seed: int = 0
    #: Stop after this many post-seed iterations (the deterministic mode).
    max_runs: Optional[int] = 100
    #: Stop after this many wall-clock seconds (overrides determinism).
    time_budget: Optional[float] = None
    #: Load/save corpus and violation cases under this directory.
    corpus_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_runs is None and self.time_budget is None:
            raise ValueError("need max_runs or time_budget (or both)")
        if self.max_runs is not None and self.max_runs < 0:
            raise ValueError(f"max_runs must be >= 0, got {self.max_runs}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be > 0, got {self.time_budget}")


@dataclass(frozen=True)
class ViolationCase:
    """One shrunk, written-to-disk oracle failure."""

    violation: Violation
    scenario: Scenario  # pre-shrink (as found)
    shrunk: Scenario
    mutations: tuple[str, ...]
    shrink_steps: int
    shrink_attempts: int
    path: Optional[str] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.violation.kind,
            "check": self.violation.check,
            "detail": self.violation.detail,
            "fingerprint": self.shrunk.fingerprint(),
            "mutations": list(self.mutations),
            "shrink_steps": self.shrink_steps,
            "shrink_attempts": self.shrink_attempts,
            "path": self.path,
        }


@dataclass
class FuzzReport:
    """What one fuzz run did; ``to_dict`` is the CLI's JSON output."""

    seed: int
    runs: int = 0
    statuses: dict[str, int] = field(default_factory=dict)
    corpus_fingerprints: list[str] = field(default_factory=list)
    coverage_lines: int = 0
    signatures: int = 0
    violations: list[ViolationCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "runs": self.runs,
            "statuses": dict(sorted(self.statuses.items())),
            "corpus": list(self.corpus_fingerprints),
            "coverage_lines": self.coverage_lines,
            "signatures": self.signatures,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Case files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzCase:
    """A parsed case file: the scenario plus the expected verdict."""

    scenario: Scenario
    expect_status: str = "violation"
    expect_kind: Optional[str] = None
    expect_check: Optional[str] = None
    note: str = ""
    origin: Optional[dict] = None


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a case against its recorded expectation."""

    case: FuzzCase
    outcome: RunOutcome
    matched: bool
    reason: str


def write_case(
    path: str,
    scenario: Scenario,
    *,
    expect_status: str,
    violation: Optional[Violation] = None,
    origin: Optional[dict] = None,
    note: str = "",
) -> None:
    """Write a replayable JSONL case file (see the module docstring)."""
    expect: dict[str, object] = {"status": expect_status}
    if violation is not None:
        expect["kind"] = violation.kind
        expect["check"] = violation.check
        expect["detail"] = violation.detail
    header = {"fuzz_case": CASE_VERSION, "expect": expect, "note": note}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(json.dumps({"scenario": scenario.to_dict()}, sort_keys=True) + "\n")
        if origin is not None:
            fh.write(json.dumps({"fuzz_origin": origin}, sort_keys=True) + "\n")


def load_case(path: str) -> FuzzCase:
    """Parse a case file; raises :class:`ScenarioError` on malformed input."""
    header: Optional[dict] = None
    scenario: Optional[Scenario] = None
    origin: Optional[dict] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}:{lineno}: not JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ScenarioError(f"{path}:{lineno}: expected an object")
            if "fuzz_case" in record:
                if record["fuzz_case"] != CASE_VERSION:
                    raise ScenarioError(
                        f"{path}: case version {record['fuzz_case']!r} "
                        f"(this reader understands {CASE_VERSION})"
                    )
                header = record
            elif "scenario" in record:
                scenario = Scenario.from_dict(record["scenario"]).validate()
            elif "fuzz_origin" in record:
                origin = record["fuzz_origin"]
            else:
                raise ScenarioError(
                    f"{path}:{lineno}: unknown record {sorted(record)[:3]}"
                )
    if header is None or scenario is None:
        raise ScenarioError(
            f"{path}: a case needs a fuzz_case header and a scenario line"
        )
    expect = header.get("expect") or {}
    if not isinstance(expect, dict) or "status" not in expect:
        raise ScenarioError(f"{path}: header expect.status is required")
    return FuzzCase(
        scenario=scenario,
        expect_status=str(expect["status"]),
        expect_kind=expect.get("kind"),
        expect_check=expect.get("check"),
        note=str(header.get("note", "")),
        origin=origin,
    )


def replay_case(
    path: str, *, executor: Optional[ScenarioExecutor] = None
) -> ReplayResult:
    """Re-run a case file and compare the verdict to its expectation."""
    case = load_case(path)
    executor = executor if executor is not None else ScenarioExecutor()
    outcome = executor.run(case.scenario)
    matched, reason = _matches(case, outcome)
    return ReplayResult(case=case, outcome=outcome, matched=matched, reason=reason)


def _matches(case: FuzzCase, outcome: RunOutcome) -> tuple[bool, str]:
    if outcome.status != case.expect_status:
        detail = outcome.violation.detail if outcome.violation else ""
        return False, (
            f"expected status {case.expect_status!r}, got {outcome.status!r}"
            + (f" ({detail})" if detail else "")
        )
    if case.expect_status != "violation":
        return True, f"status {outcome.status!r} as expected"
    v = outcome.violation
    assert v is not None
    if case.expect_kind is not None and v.kind != case.expect_kind:
        return False, f"expected {case.expect_kind!r} violation, got {v.kind!r}"
    if case.expect_check is not None and v.check != case.expect_check:
        return False, f"expected check {case.expect_check!r}, got {v.check!r}"
    return True, f"reproduced {v.kind} violation"


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def _same_bug(target: Violation, outcome: RunOutcome) -> bool:
    """Shrink predicate: does the outcome fail the same way as ``target``?

    Sanitizer trips must keep the same check id; the other kinds match
    on kind alone (an audit breach may legally move to another node/row
    while the scenario shrinks under it).
    """
    v = outcome.violation
    if v is None or v.kind != target.kind:
        return False
    if target.kind == "sanitizer":
        return v.check == target.check
    return True


def _load_corpus_dir(corpus_dir: str, log: Callable[[str], None]) -> list[Scenario]:
    saved = []
    directory = os.path.join(corpus_dir, "corpus")
    if not os.path.isdir(directory):
        return saved
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                saved.append(Scenario.from_json(fh.read()).validate())
        except (OSError, ScenarioError) as exc:
            log(f"skipping unreadable corpus file {name}: {exc}")
    return saved


def fuzz(
    config: FuzzConfig,
    *,
    executor: Optional[ScenarioExecutor] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run the coverage-guided loop; returns the full report.

    Executes every seed scenario (built-ins plus any saved corpus under
    ``config.corpus_dir``), then ``max_runs`` mutated scenarios (or
    until the time budget runs out).  Each new violation key is shrunk
    and, when a corpus dir is configured, written under
    ``<corpus_dir>/violations/``; the final corpus snapshot lands in
    ``<corpus_dir>/corpus/``.
    """
    log = log if log is not None else (lambda _msg: None)
    executor = executor if executor is not None else ScenarioExecutor()
    rng = np.random.default_rng(config.seed)
    corpus = Corpus(max_size=MAX_CORPUS)
    report = FuzzReport(seed=config.seed)
    seen_bugs: set[tuple[str, str]] = set()
    trails: dict[str, tuple[str, ...]] = {}

    deadline: Optional[float] = None
    if config.time_budget is not None:
        deadline = time.monotonic() + config.time_budget  # repro: noqa REP003(wall-clock time budget is the requested stop condition, never affects results)

    def past_deadline() -> bool:
        if deadline is None:
            return False
        return time.monotonic() >= deadline  # repro: noqa REP003(wall-clock time budget is the requested stop condition, never affects results)

    def execute(scenario: Scenario) -> RunOutcome:
        outcome = executor.run(scenario)
        report.runs += 1
        report.statuses[outcome.status] = report.statuses.get(outcome.status, 0) + 1
        corpus.consider(outcome)
        if outcome.violation is not None:
            _handle_violation(outcome, executor, config, report, seen_bugs, trails, log)
        return outcome

    seeds = list(DEFAULT_SEEDS)
    if config.corpus_dir is not None:
        seeds += _load_corpus_dir(config.corpus_dir, log)
    for scenario in seeds:
        if past_deadline():
            break
        trails.setdefault(scenario.fingerprint(), ())
        execute(scenario)
    log(
        f"seeded corpus: {len(corpus)} entries, "
        f"{len(corpus.seen_lines)} lines, {len(corpus.seen_signatures)} signatures"
    )

    iterations = 0
    while not past_deadline():
        if config.max_runs is not None and iterations >= config.max_runs:
            break
        iterations += 1
        base = corpus.pick(rng)
        base_scenario = base.scenario if base is not None else seeds[0]
        name, candidate = mutate(rng, base_scenario)
        if candidate.n_items > MAX_MUTATED_N:
            candidate = candidate.with_(n_items=MAX_MUTATED_N).validate()
        trails[candidate.fingerprint()] = trails.get(
            base_scenario.fingerprint(), ()
        ) + (name,)
        execute(candidate)

    report.corpus_fingerprints = corpus.fingerprints()
    report.coverage_lines = len(corpus.seen_lines)
    report.signatures = len(corpus.seen_signatures)

    if config.corpus_dir is not None:
        directory = os.path.join(config.corpus_dir, "corpus")
        os.makedirs(directory, exist_ok=True)
        for entry in corpus.ranked():
            path = os.path.join(directory, f"{entry.fingerprint}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(entry.scenario.to_json() + "\n")
        with open(
            os.path.join(config.corpus_dir, "report.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return report


def _handle_violation(
    outcome: RunOutcome,
    executor: ScenarioExecutor,
    config: FuzzConfig,
    report: FuzzReport,
    seen_bugs: set[tuple[str, str]],
    trails: dict[str, tuple[str, ...]],
    log: Callable[[str], None],
) -> None:
    violation = outcome.violation
    assert violation is not None
    key = violation.key()
    if key in seen_bugs or len(report.violations) >= MAX_VIOLATIONS:
        return
    seen_bugs.add(key)
    log(f"violation [{violation.kind}] {violation.detail} — shrinking")

    def predicate(candidate: Scenario) -> bool:
        return _same_bug(violation, executor.run(candidate))

    result = shrink(outcome.scenario, predicate, max_attempts=SHRINK_ATTEMPTS)
    shrunk = result.scenario
    case = ViolationCase(
        violation=violation,
        scenario=outcome.scenario,
        shrunk=shrunk,
        mutations=trails.get(outcome.scenario.fingerprint(), ()),
        shrink_steps=len(result.steps),
        shrink_attempts=result.attempts,
    )
    if config.corpus_dir is not None:
        directory = os.path.join(config.corpus_dir, "violations")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"{violation.kind}-{shrunk.fingerprint()}.jsonl"
        )
        write_case(
            path,
            shrunk,
            expect_status="violation",
            violation=violation,
            origin={
                "scenario": outcome.scenario.to_dict(),
                "mutations": list(case.mutations),
                "shrink_steps": case.shrink_steps,
                "shrink_attempts": case.shrink_attempts,
            },
            note=f"found by fuzz seed {config.seed}; shrunk from "
            f"n={outcome.scenario.n_items} p={outcome.scenario.p}",
        )
        case = replace(case, path=path)
    report.violations.append(case)
    log(f"minimal case: {shrunk.to_json()}")
