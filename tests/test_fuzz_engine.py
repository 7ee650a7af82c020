"""Unit tests of the fuzzer machinery: mutators, corpus, shrinker,
case files, coverage, determinism, and the planted-violation loop."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core import external_psrs
from repro.core.partition import partition_offsets
from repro.faults.plan import DiskFault, FaultPlan, NodeKill
from repro.fuzz.corpus import Corpus
from repro.fuzz.coverage import LineCoverage
from repro.fuzz.engine import (
    DEFAULT_SEEDS,
    FuzzConfig,
    fuzz,
    load_case,
    replay_case,
    write_case,
)
from repro.fuzz.executor import RunOutcome, ScenarioExecutor, Violation
from repro.fuzz.mutators import MUTATORS, mut_dtype, mutate
from repro.fuzz.scenario import DEFAULTS, DTYPES, MIN_N, Scenario, ScenarioError
from repro.fuzz.shrink import shrink
from repro.workloads.records import SUPPORTED_KEY_DTYPES

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# Scenario (de)serialisation
# ---------------------------------------------------------------------------


def test_scenario_roundtrip_with_fault_plan():
    s = Scenario(
        benchmark="zipf",
        perf=(2, 1, 1),
        fault_plan=FaultPlan(
            disk_faults=(DiskFault(node=1, after_ios=3),),
            node_kills=(NodeKill(node=2, step=4),),
        ),
        retries=2,
    ).validate()
    again = Scenario.from_json(s.to_json())
    assert again == s
    assert again.fingerprint() == s.fingerprint()


def test_scenario_rejects_unknown_keys_and_bad_axes():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"n_items": 128, "bogus": 1})
    with pytest.raises(ScenarioError):
        Scenario(benchmark="not_a_workload").validate()
    with pytest.raises(ScenarioError):
        # M < 3B is a config landmine, excluded from the space
        Scenario(memory_items=256, block_items=256).validate()
    with pytest.raises(ScenarioError):
        # step-1 kills are unrecoverable by design
        Scenario(
            perf=(1, 1),
            fault_plan=FaultPlan(node_kills=(NodeKill(node=1, step=1),)),
        ).validate()
    with pytest.raises(ScenarioError):
        # killing every node leaves no survivor
        Scenario(
            perf=(1,),
            fault_plan=FaultPlan(node_kills=(NodeKill(node=0, step=3),)),
        ).validate()


def test_default_seeds_are_valid():
    for s in DEFAULT_SEEDS:
        assert s.validate() is s


# ---------------------------------------------------------------------------
# Mutators
# ---------------------------------------------------------------------------


def test_mutators_are_closed_over_validation():
    """Any mutation of any reachable scenario must validate."""
    rng = np.random.default_rng(0)
    frontier = list(DEFAULT_SEEDS)
    names_seen = set()
    for _ in range(300):
        base = frontier[int(rng.integers(len(frontier)))]
        name, out = mutate(rng, base)
        names_seen.add(name)
        assert out.validate() is out
        assert out != base
        frontier.append(out)
        if len(frontier) > 64:
            frontier.pop(0)
    # the walk must actually exercise a spread of axes, not one mutator
    assert len(names_seen) >= len(MUTATORS) // 2


def test_dtype_mutator_reaches_every_supported_dtype():
    assert set(DTYPES) == {str(d) for d in SUPPORTED_KEY_DTYPES}
    rng = np.random.default_rng(0)
    seen = {DEFAULTS.dtype}
    s = DEFAULTS
    for _ in range(60):
        s = mut_dtype(rng, s)
        assert s.validate() is s
        seen.add(s.dtype)
    assert seen == set(DTYPES)


def test_mutate_is_deterministic_in_the_rng():
    a = mutate(np.random.default_rng(7), DEFAULTS)
    b = mutate(np.random.default_rng(7), DEFAULTS)
    assert a == b


# ---------------------------------------------------------------------------
# Coverage collector
# ---------------------------------------------------------------------------


def test_line_coverage_collects_package_lines_only():
    with LineCoverage() as cov:
        Scenario(benchmark="gaussian").validate().fingerprint()
        json.dumps({"outside": "the package"})
    assert cov.lines, "executing repro code must produce lines"
    files = {path for path, _ in cov.lines}
    assert any(f.endswith("fuzz/scenario.py") for f in files)
    for f in files:
        assert not os.path.isabs(f)
        assert "json" not in f  # stdlib frames are filtered out


def test_line_coverage_restores_tracing_state():
    before = sys.gettrace()
    with LineCoverage():
        pass
    assert sys.gettrace() is before


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _outcome(scenario, lines=(), sigs=(), ratio=0.0):
    return RunOutcome(
        scenario=scenario,
        status="ok",
        coverage=frozenset(lines),
        signature=frozenset(sigs),
        worst_ratio=ratio,
    )


def test_corpus_scores_novelty_then_evicts_lowest():
    corpus = Corpus(max_size=2)
    a = _outcome(Scenario(seed=1), lines={("a.py", 1), ("a.py", 2)})
    b = _outcome(Scenario(seed=2), lines={("a.py", 1)}, sigs={("s", "k", "c")})
    assert corpus.consider(a) is not None
    assert corpus.consider(b) is not None
    # a repeat of already-seen behaviour with no bound pressure: rejected
    c = _outcome(Scenario(seed=3), lines={("a.py", 1)})
    assert corpus.consider(c) is None
    # high bound pressure beats the weakest seat even with zero novelty
    d = _outcome(Scenario(seed=4), lines={("a.py", 1)}, ratio=0.99)
    assert corpus.consider(d) is not None
    assert len(corpus) == 2
    fps = set(corpus.fingerprints())
    assert Scenario(seed=4).fingerprint() in fps
    # ranked() is best-first
    scores = [e.score for e in corpus.ranked()]
    assert scores == sorted(scores, reverse=True)


def test_corpus_rejects_duplicate_fingerprints():
    corpus = Corpus(max_size=4)
    s = Scenario(seed=5)
    assert corpus.consider(_outcome(s, lines={("x.py", 1)})) is not None
    assert corpus.consider(_outcome(s, lines={("y.py", 9)})) is None


def test_corpus_pick_is_seed_deterministic():
    corpus = Corpus(max_size=8)
    for i in range(5):
        corpus.consider(_outcome(Scenario(seed=i), lines={("f.py", i)}))
    picks_a = [corpus.pick(np.random.default_rng(3)).fingerprint for _ in range(4)]
    picks_b = [corpus.pick(np.random.default_rng(3)).fingerprint for _ in range(4)]
    assert picks_a == picks_b


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


def test_shrink_reaches_the_minimal_scenario():
    """Synthetic planted bug: violates iff n >= 512 and a disk fault exists."""

    def predicate(s: Scenario) -> bool:
        return s.n_items >= 512 and s.fault_plan is not None and bool(
            s.fault_plan.disk_faults
        )

    start = Scenario(
        benchmark="staggered",
        n_items=16384,
        dtype="uint64",
        perf=(4, 2, 1, 1),
        pivot_method="quantile",
        oversample=7,
        seed=99,
        fault_plan=FaultPlan(
            disk_faults=(
                DiskFault(node=0, after_ios=10),
                DiskFault(node=2, after_ios=20),
            ),
            node_kills=(NodeKill(node=3, step=4),),
        ),
        retries=4,
    ).validate()
    result = shrink(start, predicate)
    s = result.scenario
    assert s.n_items == 512, "binary search must find the exact threshold"
    assert s.fault_plan is not None and len(s.fault_plan.disk_faults) == 1
    assert not s.fault_plan.node_kills, "irrelevant kills must be dropped"
    assert s.perf == (1,), "irrelevant nodes must be dropped"
    # every config axis irrelevant to the bug returns to its default
    for axis in ("benchmark", "dtype", "pivot_method", "oversample", "seed"):
        assert getattr(s, axis) == getattr(DEFAULTS, axis), axis
    assert result.steps and result.attempts > 0


def test_shrink_requires_a_reproducing_start():
    with pytest.raises(ValueError):
        shrink(DEFAULTS, lambda s: False)


def test_shrink_never_escalates_on_raising_predicate():
    def predicate(s: Scenario) -> bool:
        if s.n_items < 1024:
            raise RuntimeError("different failure below 1024")
        return True

    result = shrink(Scenario(n_items=4096).validate(), predicate)
    assert result.scenario.n_items >= 1024


# ---------------------------------------------------------------------------
# Case files
# ---------------------------------------------------------------------------


def test_golden_case_roundtrip():
    """The checked-in golden file parses and regenerates byte-for-byte."""
    path = os.path.join(DATA_DIR, "fuzz_case_golden.jsonl")
    case = load_case(path)
    assert case.expect_status == "violation"
    assert case.expect_kind == "audit"
    assert case.expect_check == "1:local-sort:0"
    assert case.scenario.benchmark == "zipf"
    assert case.scenario.perf == (2, 1)
    assert case.scenario.fault_plan is not None
    assert case.origin is not None
    assert case.origin["mutations"] == ["n-items", "fault-disk"]


def test_write_case_roundtrips(tmp_path):
    path = str(tmp_path / "case.jsonl")
    s = Scenario(benchmark="reverse", perf=(3, 1), seed=5).validate()
    v = Violation(kind="verify", detail="output is not sorted")
    write_case(
        path, s, expect_status="violation", violation=v, note="roundtrip"
    )
    case = load_case(path)
    assert case.scenario == s
    assert (case.expect_status, case.expect_kind) == ("violation", "verify")
    assert case.note == "roundtrip"


def test_load_case_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"scenario": {"n_items": 128}}\n')
    with pytest.raises(ScenarioError):
        load_case(str(bad))  # no fuzz_case header
    bad.write_text("not json\n")
    with pytest.raises(ScenarioError):
        load_case(str(bad))


# ---------------------------------------------------------------------------
# The loop: determinism and the planted violation, end to end
# ---------------------------------------------------------------------------


def test_fuzz_is_deterministic_for_a_seed():
    a = fuzz(FuzzConfig(seed=11, max_runs=6))
    b = fuzz(FuzzConfig(seed=11, max_runs=6))
    assert a.corpus_fingerprints == b.corpus_fingerprints
    assert a.statuses == b.statuses
    assert a.runs == b.runs


def _read_every_block_first(sorted_file, pivots, mem):
    """Planted step-3 bug: an unbounded read loop over the whole sorted
    portion before the real pivot binary search."""
    for b in range(sorted_file.n_blocks):
        with mem.reserve(sorted_file.block_items(b)):
            sorted_file.read_block(b)
    return partition_offsets(sorted_file, pivots, mem)


def test_fuzz_finds_shrinks_and_replays_a_planted_violation(tmp_path, monkeypatch):
    """End to end: a step-3 partition that reads its whole sorted portion
    exceeds the ``2Q + probes`` bound; the loop must catch it, shrink it,
    write a case file that reproduces while the bug is in place, and the
    same case must run clean once the bug is gone."""
    monkeypatch.setattr(external_psrs, "partition_offsets", _read_every_block_first)
    corpus_dir = str(tmp_path / "fuzz")
    report = fuzz(FuzzConfig(seed=0, max_runs=2, corpus_dir=corpus_dir))
    assert not report.ok
    audit_cases = [
        v for v in report.violations if v.violation.kind == "audit"
    ]
    assert audit_cases, f"expected an audit violation, got {report.statuses}"
    case = audit_cases[0]
    assert case.violation.check.startswith("3:partition:")
    assert case.path is not None and os.path.exists(case.path)
    # the shrunk scenario is no bigger than the seed that violated
    assert case.shrunk.n_items <= case.scenario.n_items
    result = replay_case(case.path)
    assert result.matched, result.reason
    # the corpus snapshot and report land next to the violations
    assert os.path.isdir(os.path.join(corpus_dir, "corpus"))
    with open(os.path.join(corpus_dir, "report.json")) as fh:
        assert json.load(fh)["violations"]
    monkeypatch.undo()
    fixed = replay_case(case.path)
    assert fixed.outcome.status == "ok" and not fixed.matched, fixed.reason


#: A scenario as written before ``audit_slack`` was removed.
_STALE_SCENARIO = {**DEFAULTS.to_dict(), "audit_slack": None}


def test_removed_tighten_slack_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--tighten-slack", "1.0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--kernel", "event"], ["--max-corpus", "8"]], ids=["kernel", "max-corpus"]
)
def test_removed_fuzz_flags_are_usage_errors(flags):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", *flags])
    assert exc.value.code == 2


def test_fuzz_config_has_no_kernel():
    with pytest.raises(TypeError):
        FuzzConfig(kernel="event")


def test_replaying_a_case_with_audit_slack_exits_two(tmp_path, capsys):
    path = tmp_path / "stale.jsonl"
    path.write_text(
        json.dumps({"fuzz_case": 1, "expect": {"status": "ok"}}) + "\n"
        + json.dumps({"scenario": _STALE_SCENARIO}) + "\n",
        encoding="utf-8",
    )
    assert main(["fuzz", "--replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro fuzz: error: "), err
    assert "audit_slack" in err[0]


def test_corpus_file_with_audit_slack_is_skipped(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "stale.json").write_text(
        json.dumps(_STALE_SCENARIO), encoding="utf-8"
    )
    lines: list[str] = []
    report = fuzz(
        FuzzConfig(max_runs=0, corpus_dir=str(tmp_path)),
        executor=ScenarioExecutor(collect_coverage=False),
        log=lines.append,
    )
    skipped = [m for m in lines if m.startswith("skipping unreadable corpus file stale.json")]
    assert len(skipped) == 1 and "audit_slack" in skipped[0], lines
    assert report.runs == len(DEFAULT_SEEDS)


def test_fuzz_config_validates():
    with pytest.raises(ValueError):
        FuzzConfig(max_runs=None, time_budget=None)
    with pytest.raises(ValueError):
        FuzzConfig(time_budget=-1.0, max_runs=None)


def test_executor_classifies_degraded_and_recovered():
    ex = ScenarioExecutor(collect_coverage=False)
    killed = ex.run(
        Scenario(
            perf=(1, 1, 4, 4),
            fault_plan=FaultPlan(node_kills=(NodeKill(node=1, step=4),)),
        ).validate()
    )
    assert killed.status == "degraded" and killed.violation is None
    transient = ex.run(
        Scenario(
            perf=(1, 1),
            fault_plan=FaultPlan(disk_faults=(DiskFault(node=0, after_ios=5),)),
            retries=3,
        ).validate()
    )
    # a retried run repeats I/O, so the fault-free bounds are not enforced
    assert transient.status == "recovered" and transient.violation is None
