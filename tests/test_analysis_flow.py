"""The flow-aware deep rules REP101..REP105: fixtures, properties, self-check.

Every rule gets at least one *bad* fixture (must flag) and one *good*
fixture (must stay silent); a hypothesis property generates leak-free
writer-discipline snippets and asserts the typestate rules never fire on
them; and the repo self-check pins ``repro lint --deep`` to zero
un-baselined findings on the real package.
"""

from __future__ import annotations

import contextlib
import io
import json
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    main,
    select,
)
from repro.analysis.flow import analyze_project_source, load_project, run_project

DEEP_RULES = select(None, {"deep"})["deep"]

PATH = "repro/core/mod.py"


def deep(source: str, path: str = PATH):
    """Run all deep rules on a dedented snippet; return the FileReport."""
    return analyze_project_source(textwrap.dedent(source), path, DEEP_RULES)


def codes(report) -> list[str]:
    return [f.rule for f in report.findings]


def lint(*argv: str) -> tuple[int, str, str]:
    # --no-cache: keep these tests off the incremental cache (which has
    # its own suite) and out of the test cwd.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-cache", *argv])
    return code, out.getvalue(), err.getvalue()


def core_file(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


class TestRegistry:
    def test_five_rules_in_code_order(self):
        assert [r.code for r in DEEP_RULES] == [
            "REP101", "REP102", "REP103", "REP104", "REP105",
        ]


class TestHandleLeakREP101:
    def test_bad_never_closed(self):
        report = deep(
            """
            def leak(f, mem, data):
                w = BlockWriter(f, mem)
                w.write(data)
            """
        )
        assert codes(report) == ["REP101"]
        assert "leak" in report.findings[0].message

    def test_bad_closed_on_one_branch_only(self):
        report = deep(
            """
            def half(f, mem, data, flag):
                w = BlockWriter(f, mem)
                w.write(data)
                if flag:
                    w.close()
            """
        )
        assert codes(report) == ["REP101"]

    def test_good_with_statement(self):
        report = deep(
            """
            def ok(f, mem, data):
                with BlockWriter(f, mem) as w:
                    w.write(data)
            """
        )
        assert codes(report) == []

    def test_good_return_inside_with(self):
        # __exit__ seals the writer on the return path: not a leak
        report = deep(
            """
            def ok(f, mem, data, flag):
                with BlockWriter(f, mem) as w:
                    if flag:
                        return 0
                    w.write(data)
                return 1
            """
        )
        assert codes(report) == []

    def test_good_close_in_finally(self):
        report = deep(
            """
            def ok(f, mem, data):
                w = BlockWriter(f, mem)
                try:
                    w.write(data)
                finally:
                    w.close()
            """
        )
        assert codes(report) == []

    def test_good_escaping_writer_is_callers_problem(self):
        report = deep(
            """
            def make(f, mem):
                return BlockWriter(f, mem)
            """
        )
        assert codes(report) == []


class TestUseAfterSealREP102:
    def test_bad_write_after_close(self):
        report = deep(
            """
            def bad(f, mem, data):
                w = BlockWriter(f, mem)
                w.close()
                w.write(data)
            """
        )
        assert codes(report) == ["REP102"]

    def test_bad_double_close(self):
        report = deep(
            """
            def bad(f, mem, data):
                w = BlockWriter(f, mem)
                w.write(data)
                w.close()
                w.close()
            """
        )
        assert codes(report) == ["REP102"]

    def test_bad_write_after_abandon(self):
        report = deep(
            """
            def bad(f, mem, data):
                w = BlockWriter(f, mem)
                w.abandon()
                w.write(data)
            """
        )
        assert codes(report) == ["REP102"]

    def test_good_single_seal_after_last_write(self):
        report = deep(
            """
            def ok(f, mem, chunks):
                w = BlockWriter(f, mem)
                for c in chunks:
                    w.write(c)
                w.close()
            """
        )
        assert codes(report) == []

    def test_good_abandon_then_close_is_sanctioned(self):
        # abandon() marks closed; a later close() is the documented no-op
        report = deep(
            """
            def ok(f, mem):
                w = BlockWriter(f, mem)
                w.abandon()
                w.close()
            """
        )
        assert codes(report) == []

    def test_good_close_on_either_branch(self):
        report = deep(
            """
            def ok(f, mem, data, flag):
                w = BlockWriter(f, mem)
                if flag:
                    w.write(data)
                    w.close()
                else:
                    w.abandon()
            """
        )
        assert codes(report) == []


class TestReadNeverWrittenREP103:
    def test_bad_read_all_of_fresh_file(self):
        report = deep(
            """
            def bad(node, dtype):
                f = node.disk.new_file(16, dtype)
                return f.read_all()
            """
        )
        assert codes(report) == ["REP103"]

    def test_bad_reader_on_fresh_file(self):
        report = deep(
            """
            def bad(node, dtype, mem):
                f = node.disk.new_file(16, dtype)
                r = BlockReader(f, mem)
                return r
            """
        )
        assert codes(report) == ["REP103"]

    def test_good_append_then_read(self):
        report = deep(
            """
            def ok(node, dtype, block):
                f = node.disk.new_file(16, dtype)
                f.append_block(block)
                return f.read_all()
            """
        )
        assert codes(report) == []

    def test_good_writer_attached(self):
        report = deep(
            """
            def ok(node, dtype, mem, data):
                f = node.disk.new_file(16, dtype)
                with BlockWriter(f, mem) as w:
                    w.write(data)
                return f.read_all()
            """
        )
        assert codes(report) == []

    def test_good_escaped_file_not_judged(self):
        # a file handed to another function may be written there
        report = deep(
            """
            def ok(node, dtype, fill):
                f = node.disk.new_file(16, dtype)
                fill(f)
                return f.read_all()
            """
        )
        assert codes(report) == []


class TestCrossNodeEscapeREP104:
    def test_bad_result_discarded(self):
        report = deep(
            """
            def bad(cluster, arr, i, j):
                cluster.comm.send(i, j, arr)
                return arr
            """
        )
        assert codes(report) == ["REP104"]

    def test_bad_result_bound_but_never_read(self):
        report = deep(
            """
            def bad(cluster, arr, root):
                copies = cluster.comm.bcast(arr, root=root)
                return arr
            """
        )
        assert codes(report) == ["REP104"]

    def test_good_receiver_copy_used(self):
        report = deep(
            """
            def ok(cluster, arr, i, j):
                arr = cluster.comm.send(i, j, arr)
                return arr
            """
        )
        assert codes(report) == []

    def test_good_noqa_with_reason(self):
        report = deep(
            """
            def ok(cluster, arr, i, j):
                cluster.comm.send(i, j, arr)  # repro: noqa REP104(charge-only)
                return arr
            """
        )
        assert codes(report) == []
        assert [s.finding.rule for s in report.suppressed] == ["REP104"]


class TestPhaseAttributionREP105:
    def test_bad_helper_reachable_outside_step(self):
        report = deep(
            """
            def _deliver(f, block):
                f.append_block(block)

            def run(cluster, f, block):
                _deliver(f, block)
            """
        )
        assert codes(report) == ["REP105"]
        assert "append_block" in report.findings[0].message
        assert "run" in report.findings[0].message  # names the bad caller

    def test_bad_cursor_read_in_unstepped_helper(self):
        # RunCursor.take_upto charges a block read like read_block does:
        # the cost pass and this rule share one charged-call set
        report = deep(
            """
            def _next_chunk(cur, n):
                return cur.take_upto(n)

            def salvage(cluster, cur, n):
                return _next_chunk(cur, n)
            """
        )
        assert codes(report) == ["REP105"]
        assert "cur.take_upto" in report.findings[0].message

    def test_good_all_callers_under_step(self):
        report = deep(
            """
            def _deliver(f, block):
                f.append_block(block)

            def run(cluster, f, block):
                with cluster.step("deliver"):
                    _deliver(f, block)
            """
        )
        assert codes(report) == []

    def test_good_attribution_is_transitive(self):
        report = deep(
            """
            def _deliver(f, block):
                f.append_block(block)

            def _middle(f, block):
                _deliver(f, block)

            def run(cluster, f, block):
                with cluster.step("deliver"):
                    _middle(f, block)
            """
        )
        assert codes(report) == []

    def test_bad_one_unattributed_caller_breaks_it(self):
        report = deep(
            """
            def _deliver(f, block):
                f.append_block(block)

            def run(cluster, f, block):
                with cluster.step("deliver"):
                    _deliver(f, block)

            def sneaky(f, block):
                _deliver(f, block)
            """
        )
        assert codes(report) == ["REP105"]
        assert "sneaky" in report.findings[0].message

    def test_good_runner_registration_counts(self):
        report = deep(
            """
            def _deliver(f, block):
                f.append_block(block)

            def run(runner, f, block):
                runner.run("deliver", lambda: _deliver(f, block))
            """
        )
        assert codes(report) == []

    def test_good_public_entry_points_skipped(self):
        # no in-package callers: attribution is the caller's contract
        report = deep(
            """
            def sort_array(cluster, f, block):
                f.append_block(block)
            """
        )
        assert codes(report) == []


# -- hypothesis: leak-free snippets never trip the typestate rules ----------

_GOOD_BLOCKS = (
    "with BlockWriter(f{i}, mem) as w{i}:\n    w{i}.write(data)",
    "w{i} = BlockWriter(f{i}, mem)\nw{i}.write(data)\nw{i}.close()",
    "w{i} = BlockWriter(f{i}, mem)\ntry:\n    w{i}.write(data)\nfinally:\n    w{i}.close()",
    "w{i} = BlockWriter(f{i}, mem)\nw{i}.abandon()",
    "f{i}.append_block(data)\nout = f{i}.read_all()",
)


@st.composite
def leak_free_snippets(draw) -> str:
    picks = draw(
        st.lists(st.sampled_from(_GOOD_BLOCKS), min_size=1, max_size=4)
    )
    args = ", ".join(f"f{i}" for i in range(len(picks)))
    body = "\n".join(
        textwrap.indent(tpl.format(i=i), "    ")
        for i, tpl in enumerate(picks)
    )
    return f"def snippet({args}, mem, data):\n{body}\n"


class TestTypestateProperty:
    @settings(max_examples=60, deadline=None)
    @given(source=leak_free_snippets())
    def test_disciplined_snippets_are_clean(self, source: str):
        report = analyze_project_source(source, PATH, DEEP_RULES)
        typestate = [c for c in codes(report) if c in ("REP101", "REP102", "REP103")]
        assert typestate == []


# -- CLI integration ---------------------------------------------------------


class TestDeepCli:
    BAD = """
    def _deliver(f, block):
        f.append_block(block)

    def run(cluster, f, block):
        _deliver(f, block)
    """

    def test_deep_findings_exit_one(self, tmp_path):
        f = core_file(tmp_path, self.BAD)
        code, out, _ = lint("--deep", "--no-baseline", str(f))
        assert code == EXIT_FINDINGS
        assert "REP105" in out

    def test_shallow_pass_ignores_deep_rules(self, tmp_path):
        f = core_file(tmp_path, self.BAD)
        code, out, _ = lint("--no-baseline", str(f))
        assert code == EXIT_CLEAN

    def test_deep_rule_requires_deep_flag(self, tmp_path):
        f = core_file(tmp_path, self.BAD)
        code, _, err = lint("--rule", "REP105", "--no-baseline", str(f))
        assert code == EXIT_INTERNAL_ERROR
        assert "--deep" in err

    def test_json_has_engine_versions_and_stable_order(self, tmp_path):
        f = core_file(tmp_path, self.BAD)
        code, out, _ = lint("--deep", "--no-baseline", "--format", "json", str(f))
        assert code == EXIT_FINDINGS
        payload = json.loads(out)
        assert payload["version"] == 1  # unchanged: existing tooling contract
        assert payload["engine_version"]
        assert payload["flow_engine_version"]
        keys = [(x["path"], x["line"], x["rule"]) for x in payload["findings"]]
        assert keys == sorted(keys)

    def test_json_without_deep_has_null_flow_version(self, tmp_path):
        f = core_file(tmp_path, "def double(x):\n    return 2 * x\n")
        code, out, _ = lint("--no-baseline", "--format", "json", str(f))
        assert code == EXIT_CLEAN
        assert json.loads(out)["flow_engine_version"] is None

    def test_list_rules_includes_deep(self):
        code, out, _ = lint("--list-rules")
        assert code == EXIT_CLEAN
        for rule in DEEP_RULES:
            assert rule.code in out
        assert "[deep]" in out

    def test_deep_baseline_roundtrip(self, tmp_path):
        f = core_file(tmp_path, self.BAD)
        baseline = tmp_path / "baseline.json"
        code, _, _ = lint(
            "--deep", "--baseline", str(baseline), "--write-baseline", str(f)
        )
        assert code == EXIT_CLEAN
        code, out, _ = lint("--deep", "--baseline", str(baseline), str(f))
        assert code == EXIT_CLEAN
        assert "1 baselined" in out


class TestSelfCheckDeep:
    def test_repo_is_deep_clean(self):
        """The package itself carries zero un-suppressed deep findings."""
        pkg = Path(repro.__file__).parent
        report = run_project(load_project([pkg]), DEEP_RULES)
        findings = [f for fr in report.files for f in fr.findings]
        assert findings == []

    def test_cli_deep_self_check_exits_clean(self):
        pkg = Path(repro.__file__).parent
        code, out, _ = lint("--deep", "--no-baseline", str(pkg))
        assert code == EXIT_CLEAN, out
