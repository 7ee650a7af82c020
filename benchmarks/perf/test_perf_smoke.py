"""Smoke test of the two-clock benchmark (not in tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

A scaled-down in-process run — every input size divided by 64, eight
``smallmany`` scenarios, the fewest repetitions — checking that the
benchmark keeps the promises of ``BENCHMARK.json``, not how fast
anything is.
"""

from __future__ import annotations

import copy
import json
import math
import re

import pytest

from repro.core.external_psrs import PSRSResult

from . import compare, contract, micro, run, worker, workloads

SCALE = 64
SECONDS = 0.05  # shorter than one repetition: MIN_REPS decides
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def in_process(name, seed, seconds, traced, scale, setup_only=False):
    """``run.measure_in_worker`` without the fresh process."""
    return worker.run_workload(name, seed, seconds, traced, scale, setup_only)


def _results(traced: bool) -> dict:
    return {
        "workloads": {
            name: in_process(name, 0, SECONDS, traced, SCALE) for name in workloads.WORKLOADS
        }
    }


@pytest.fixture(scope="module")
def traced_results():
    # The micro-runs do not depend on the workload; run them once.
    real, cache = micro.run_all, {}

    def run_all_once(tmp):
        if not cache:
            cache.update(real(tmp))
        return dict(cache)

    micro.run_all = run_all_once
    try:
        return _results(traced=True)
    finally:
        micro.run_all = real


@pytest.fixture(scope="module")
def untraced_results():
    return _results(traced=False)


def test_benchmark_json_keeps_the_contract():
    bench = contract.load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["run_seconds"] == contract.RUN_SECONDS
    assert bench["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert len(bench["workloads"]) <= 8
    assert len(bench["end_to_end"]) <= 16
    assert len(bench["per_layer"]) <= 128
    names = [e["name"] for s in ("workloads", "end_to_end", "per_layer") for e in bench[s]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 <= e["bound"] <= 0.25 for e in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    setup = contract.declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert contract.EXACT <= set(names)


def test_every_declared_metric_appears_for_every_workload(traced_results):
    for name, doc in traced_results["workloads"].items():
        assert doc["correct"], doc["failures"]
        assert doc["fail_ratio"] == 0 and doc["attempted"] >= 1
        for section in ("end_to_end", "per_layer"):
            for metric in contract.declared(section):
                value = doc[section][metric]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
        assert all(doc["end_to_end"][m] != 0 for m in contract.declared("end_to_end")), name


def test_report_ends_in_the_contract_line(traced_results, untraced_results):
    for results, traced, section in (
        (traced_results, True, "per_layer"),
        (untraced_results, False, "end_to_end"),
    ):
        doc = results["workloads"]["deep4"]
        line = json.loads(run.report(doc, traced).splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(contract.declared(section))
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_simulated_metrics_repeat_exactly(traced_results, untraced_results):
    # Within a run the worker compares its repetitions (a difference is a
    # failure, checked above); here: two runs at one seed.
    rows = compare.compare(traced_results, untraced_results)
    exact = [r for r in rows if r["metric"] in contract.EXACT]
    assert {r["workload"] for r in exact} == set(workloads.WORKLOADS)
    assert all(r["base"] == r["candidate"] for r in exact), [r for r in exact if r["base"] != r["candidate"]]


def test_compare_says_same_for_a_file_against_itself(traced_results, tmp_path, capsys):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(traced_results))
    assert compare.main([str(path), str(path)]) == 0
    assert {r["verdict"] for r in compare.compare(traced_results, traced_results)} == {"same"}
    slower = copy.deepcopy(traced_results)
    slower["workloads"]["deep4"]["end_to_end"]["sim_elapsed_s"] *= 1.0001
    other = tmp_path / "slower.json"
    other.write_text(json.dumps(slower))
    assert compare.main([str(path), str(other)]) == 1
    assert "worse" in capsys.readouterr().out


def test_corrupted_output_fails_the_run(monkeypatch, tmp_path, capsys):
    to_array = PSRSResult.to_array
    monkeypatch.setattr(PSRSResult, "to_array", lambda self: to_array(self)[::-1])
    out = tmp_path / "results.json"
    code = run.main(
        ["--workload", "deep4", "--scale", str(SCALE), "--seconds", str(SECONDS),
         "--out", str(out)],
        measure=in_process,
    )
    assert code == 1
    doc = json.loads(out.read_text())["workloads"]["deep4"]
    assert doc["fail_ratio"] > 0 and not doc["correct"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
