"""The incremental lint cache: content-keyed hits, safe degradation."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro.analysis.cache import (
    CacheStats,
    LintCache,
    cache_key,
    project_digest,
    rule_selection_token,
    source_digest,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main

DIRTY = "y = sorted(xs)\n"
CLEAN = "def double(x):\n    return 2 * x\n"


def lint(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def core_file(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / name
    target.write_text(source, encoding="utf-8")
    return target


def cache_stats(out: str) -> dict:
    return json.loads(out)["cache"]


class TestKeying:
    def test_source_digest_is_content_only(self):
        assert source_digest("a") == source_digest("a")
        assert source_digest("a") != source_digest("b")

    def test_cache_key_orders_parts(self):
        assert cache_key("a", "b") != cache_key("b", "a")

    def test_project_digest_ignores_file_order(self):
        files = [("b.py", "2"), ("a.py", "1")]
        assert project_digest(files) == project_digest(list(reversed(files)))
        assert project_digest(files) != project_digest([("a.py", "1")])

    def test_rule_token_canonicalises(self):
        assert rule_selection_token(None) == "*"
        assert rule_selection_token(["rep002", "REP001"]) == "REP001,REP002"


class TestCliCacheFlow:
    def test_second_run_is_all_hits_with_same_result(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        args = ("--format", "json", "--cache-dir", str(cache), str(f))
        code1, out1 = lint(*args)
        code2, out2 = lint(*args)
        assert code1 == code2 == EXIT_FINDINGS
        stats1, stats2 = cache_stats(out1), cache_stats(out2)
        assert stats1 == {
            "hits": 0, "misses": 1, "hit_rate": 0.0,
            "passes": {"shallow": {"hits": 0, "misses": 1, "hit_rate": 0.0}},
        }
        assert stats2 == {
            "hits": 1, "misses": 0, "hit_rate": 1.0,
            "passes": {"shallow": {"hits": 1, "misses": 0, "hit_rate": 1.0}},
        }
        # findings identical whether computed or replayed
        assert json.loads(out1)["findings"] == json.loads(out2)["findings"]

    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        a = core_file(tmp_path, DIRTY, "a.py")
        core_file(tmp_path, CLEAN, "b.py")
        cache = tmp_path / "cache"
        args = ("--format", "json", "--cache-dir", str(cache), str(tmp_path))
        lint(*args)
        a.write_text(CLEAN, encoding="utf-8")
        code, out = lint(*args)
        assert code == EXIT_CLEAN
        assert cache_stats(out) == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
            "passes": {"shallow": {"hits": 1, "misses": 1, "hit_rate": 0.5}},
        }

    def test_protocol_pass_caches_by_project_digest(self, tmp_path):
        core_file(tmp_path, CLEAN, "a.py")
        b = core_file(tmp_path, CLEAN, "b.py")
        cache = tmp_path / "cache"
        args = ("--protocol", "--format", "json",
                "--cache-dir", str(cache), str(tmp_path))
        _, out1 = lint(*args)
        _, out2 = lint(*args)
        # 2 shallow files + 1 protocol project entry
        assert cache_stats(out1)["misses"] == 3
        stats2 = cache_stats(out2)
        assert (stats2["hits"], stats2["misses"]) == (3, 0)
        assert stats2["passes"] == {
            "shallow": {"hits": 2, "misses": 0, "hit_rate": 1.0},
            "protocol": {"hits": 1, "misses": 0, "hit_rate": 1.0},
        }
        # touching any module invalidates the whole interprocedural entry
        b.write_text(CLEAN + "\n", encoding="utf-8")
        _, out3 = lint(*args)
        assert cache_stats(out3)["misses"] == 2  # b.py + the project entry

    def test_no_cache_bypasses_and_reports_null(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        args = ("--format", "json", "--no-cache",
                "--cache-dir", str(cache), str(f))
        _, out = lint(*args)
        assert json.loads(out)["cache"] is None
        assert not cache.exists()

    def test_text_mode_still_caches(self, tmp_path):
        f = core_file(tmp_path, CLEAN)
        cache = tmp_path / "cache"
        lint("--cache-dir", str(cache), str(f))
        assert any(cache.rglob("*.json"))


class TestDegradation:
    def test_corrupt_entry_is_a_miss_then_repaired(self, tmp_path):
        f = core_file(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        args = ("--format", "json", "--cache-dir", str(cache), str(f))
        lint(*args)
        for entry in cache.rglob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        code, out = lint(*args)
        assert code == EXIT_FINDINGS
        stats = cache_stats(out)
        assert (stats["hits"], stats["misses"]) == (0, 1)
        code, out = lint(*args)
        assert cache_stats(out)["hits"] == 1

    def test_get_miss_and_put_roundtrip(self, tmp_path):
        cache = LintCache(tmp_path / "c")
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_unwritable_root_degrades_silently(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cache = LintCache(blocker)  # root is a file: every write fails
        cache.put("ab" * 32, {"x": 1})  # must not raise
        assert cache.get("ab" * 32) is None

    def test_stats_hit_rate_handles_zero_total(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).to_dict()["hit_rate"] == 0.75
