"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.faults.plan import DiskFaultError

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_perf_parsing(self):
        args = build_parser().parse_args(["sort", "--perf", "4,4,1,1"])
        assert args.perf.values == [4, 4, 1, 1]

    def test_bad_perf_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--perf", "a,b"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--perf", "0,1"])

    def test_bad_pivot_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--pivot-method", "bogus"])

    def test_retired_size_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table3", "--n", "8000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 8000" in capsys.readouterr().err


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "staggered" in out

    def test_sort_small(self, capsys):
        rc = main(
            ["sort", "--n", "4000", "--perf", "1,2", "--memory", "512",
             "--block", "64", "--message", "256"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "S(max)" in out
        # The per-step table lists the five steps in the order they start.
        steps = ["1:local-sort", "2:pivots", "3:partition", "4:redistribute", "5:final-merge"]
        assert sorted(steps, key=out.index) == steps

    def test_degraded_sort_json_reports_per_execution_step_seconds(self, capsys):
        rc = main(
            ["sort", "--n", "40000", "--perf", "1,1,4,4", "--memory", "2048",
             "--block", "256", "--kernel", "lockstep", "--format", "json",
             "--fault-plan", '{"kills": [{"node": 1, "step": 4}]}', "--retries", "2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degraded"] is True and doc["verified"] is True
        steps = doc["step_seconds"]
        assert list(steps) == [
            "1:local-sort", "2:pivots", "3:partition", "recover:salvage",
            "recover:remerge", "4:redistribute", "5:final-merge",
        ]
        # Lockstep executions are disjoint: the steps tile the run.  The
        # hull of the two executions of 2:pivots used to add ~0.8 s here.
        assert sum(steps.values()) == pytest.approx(doc["elapsed_seconds"], rel=1e-12)
        assert steps["2:pivots"] < steps["recover:salvage"] + steps["recover:remerge"]

    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_degraded_sort_json_lists_io_steps_in_run_order(self, kernel, capsys):
        """``io.labels`` lists steps as ``step_seconds`` does: a step killed
        on entry is booked when it runs again, after the recovery steps."""
        rc = main(
            ["sort", "--n", "16390", "--perf", "1,1,4,4", "--memory", "2048",
             "--block", "256", "--kernel", kernel, "--format", "json",
             "--fault-plan", '{"kills": [{"node": 1, "step": 4}]}']
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        labels, steps = doc["io"]["labels"], doc["step_seconds"]
        assert doc["degraded"] is True and "recover:remerge" in labels
        assert list(labels) == [s for s in steps if s in labels]

    def test_recovered_sort_audit_does_not_enforce_bounds(self, capsys):
        """A retried step repeats its I/O, so the fault-free bounds do not
        describe the run: the audit table prints, the verdict is not
        enforced (as in the fuzz executor's ``recovered`` status)."""
        rc = main(
            ["sort", "--n", "16388", "--perf", "1,1,4,4", "--memory", "2048",
             "--block", "256", "--audit", "--retries", "3",
             "--fault-plan", '{"disk": [{"node": 1, "after_ios": 40}]}']
        )
        out = capsys.readouterr().out
        assert "verified" in out and "retries[3:partition]" in out
        assert "VIOLATION" in out  # the retried step's repeated reads
        assert "audit: recovered run — bounds not enforced" in out
        assert rc == 0

    def test_sort_with_spill_dir(self, capsys, tmp_path):
        rc = main(
            ["sort", "--n", "2000", "--perf", "1,1", "--memory", "512",
             "--block", "64", "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 0
        assert (tmp_path / "spill").is_dir()

    def test_sort_named_benchmark_and_myrinet(self, capsys):
        rc = main(
            ["sort", "--n", "2000", "--perf", "1,1", "--memory", "512",
             "--block", "64", "--benchmark", "zipf", "--link", "myrinet",
             "--pivot-method", "random"]
        )
        assert rc == 0

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5 and out[-1] == "perf vector: [4, 4, 1, 1]"

    # The paper commands print their experiment's results file, byte for
    # byte (benchmarks/ regenerates the files from the same functions).
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert capsys.readouterr().out == _results_file("table2_sequential")

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert capsys.readouterr().out == _results_file("table3_parallel")

    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        assert capsys.readouterr().out == _results_file("message_size")


def _results_file(name: str) -> str:
    return (RESULTS / f"{name}.txt").read_text(encoding="utf-8")


class TestInputErrors:
    """Bad input exits 2 with one error line — never 1, which CI reads as
    a violation, and never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "missing.jsonl"],
            ["profile", "missing.jsonl"],
            ["sort", "--n", "2000", "--fault-plan", '{"disk": ['],
            ["sort", "--n", "2000", "--fault-plan", '{"bogus": []}'],
            ["sort", "--n", "2000", "--fault-plan", "missing-plan.json"],
            ["sort", "--n", "2000", "--benchmark", "nosuch"],
            ["sort", "--n", "2000", "--benchmark", "99"],
        ],
        ids=["audit-missing", "profile-missing", "plan-json", "plan-keys", "plan-missing",
             "benchmark-name", "benchmark-id"],
    )
    def test_exits_two_with_one_error_line(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"repro {argv[0]}: error: "), err

    @pytest.mark.parametrize(
        "command, log_text, message",
        [
            ("audit", None, "events_file is required"),
            ("audit", '{"kind": "step_begin", "t": 0.0, "node": 0, "step": "s"}\n',
             "has no run_meta line"),
            ("profile", "", "contains no events"),
        ],
        ids=["audit-no-log", "audit-no-run-meta", "profile-empty-log"],
    )
    def test_unusable_log_exits_two_with_one_error_line(
        self, command, log_text, message, capsys, tmp_path
    ):
        argv = [command]
        if log_text is not None:
            log = tmp_path / "run.jsonl"
            log.write_text(log_text, encoding="utf-8")
            argv.append(str(log))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"repro {command}: error: "), err
        assert message in err[0]

    @pytest.mark.parametrize("command", ["audit", "profile"])
    def test_malformed_log_exits_two(self, command, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text('{"kind": "run_meta"\n', encoding="utf-8")
        assert main([command, str(log)]) == 2
        assert capsys.readouterr().err.startswith(f"repro {command}: error: ")

    @pytest.mark.parametrize("memory", [100, 700], ids=["below-one-block", "two-blocks"])
    def test_memory_below_three_blocks_exits_two(self, memory, capsys):
        """M < B used to die in the untimed distribution with a traceback;
        every M < 3B now gets polyphase's wording."""
        assert main(["sort", "--n", "4000", "--memory", str(memory)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"repro sort: error: memory budget of {memory} items (m={memory // 256} "
            "blocks) is too small for external merging; need at least 3 blocks"
        ]

    def test_unrecovered_fault_still_raises(self):
        """A simulated disk fault with no retry policy is a failed run, not
        bad input (``DiskFaultError`` is a ``FaultError``, not an ``OSError``)."""
        with pytest.raises(DiskFaultError):
            main(["sort", "--n", "8000",
                  "--fault-plan", '{"disk": [{"node": 1, "after_ios": 40}]}'])
