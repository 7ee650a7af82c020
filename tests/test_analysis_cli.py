"""Exit-code contract and output stability of ``python -m repro lint``."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    main,
)

CLEAN = "def double(x):\n    return 2 * x\n"
DIRTY = "y = sorted(xs)\nt = time.time()\n"


def lint(*argv: str) -> tuple[int, str, str]:
    """Run the standalone lint CLI capturing stdout/stderr.

    The incremental cache is bypassed so these tests exercise the
    analysis itself (and never write ``.lint-cache/`` into the test
    cwd); the cache has its own suite in ``test_lint_cache.py``.
    """
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-cache", *argv])
    return code, out.getvalue(), err.getvalue()


def core_file(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    """Materialise a snippet under a fake ``repro/core`` tree."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / name
    target.write_text(source, encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        f = core_file(tmp_path, CLEAN)
        code, out, _ = lint(str(f))
        assert code == EXIT_CLEAN
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        code, out, _ = lint(str(f))
        assert code == EXIT_FINDINGS
        assert "REP002" in out and "REP003" in out

    def test_syntax_error_exits_two(self, tmp_path):
        f = core_file(tmp_path, "def broken(:\n")
        code, _, err = lint(str(f))
        assert code == EXIT_INTERNAL_ERROR
        assert "internal error" in err

    def test_unknown_rule_exits_two(self, tmp_path):
        f = core_file(tmp_path, CLEAN)
        code, _, err = lint("--rule", "REP999", str(f))
        assert code == EXIT_INTERNAL_ERROR
        assert "unknown rule" in err

    def test_removed_baseline_flag_is_a_usage_error(self, tmp_path):
        f = core_file(tmp_path, CLEAN)
        with pytest.raises(SystemExit) as exc:
            lint("--baseline", str(tmp_path / "none.json"), str(f))
        assert exc.value.code == 2


class TestRuleFilter:
    def test_rule_filter_restricts_findings(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        code, out, _ = lint("--rule", "REP003", str(f))
        assert code == EXIT_FINDINGS
        assert "REP003" in out and "REP002" not in out

    def test_list_rules_catalogues_all_codes(self):
        code, out, _ = lint("--list-rules")
        assert code == EXIT_CLEAN
        for n in range(1, 9):
            assert f"REP00{n}" in out


class TestJsonFormat:
    def test_json_payload_shape_and_stability(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        code1, out1, _ = lint("--format", "json", str(f))
        code2, out2, _ = lint("--format", "json", str(f))
        assert code1 == code2 == EXIT_FINDINGS
        assert out1 == out2  # byte-stable for tooling
        payload = json.loads(out1)
        assert payload["version"] == 2
        assert payload["summary"]["findings"] == len(payload["findings"]) == 2
        first = payload["findings"][0]
        assert sorted(first) == ["col", "line", "message", "path", "rule", "snippet"]
        rules = [x["rule"] for x in payload["findings"]]
        assert rules == sorted(rules) or len(set(rules)) == len(rules)

    def test_json_reports_suppressions_with_reasons(self, tmp_path):
        f = core_file(
            tmp_path, "y = sorted(xs)  # repro: noqa REP002(bounded sample)\n"
        )
        code, out, _ = lint("--format", "json", str(f))
        assert code == EXIT_CLEAN
        payload = json.loads(out)
        assert payload["findings"] == []
        assert payload["suppressed"][0]["reason"] == "bounded sample"


class TestSelfCheck:
    def test_repro_package_lints_clean(self):
        code, out, _ = lint(str(Path(repro.__file__).parent))
        assert code == EXIT_CLEAN, out
