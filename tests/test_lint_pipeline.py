"""What the lint pipeline must not move: output bytes, messages, cache keys.

``repro lint`` is one pipeline over a table of passes; these tests pin
its observable contract on the real tree and on a small fixed fixture
tree, so a change to how passes are registered, selected, cached or run
shows up as a diff here rather than in CI artifacts:

* golden stdout of ``lint --all --no-cache --format json src/repro`` and
  of ``--list-rules`` (regenerate with the recipe in
  ``.claude/skills/verify/SKILL.md`` after an intentional change);
* notice routing of the ``--emit-*`` writers (stdout in text mode,
  stderr under ``--format json``);
* every exit-2 rule-selection message;
* the cache entry names an ``--all`` run writes (same key derivation
  means entries written by older checkouts still hit).
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL_ERROR, main

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
DATA = Path(__file__).parent / "data"

ALL_CODES = [
    *(f"REP00{n}" for n in range(1, 9)),
    *(f"REP10{n}" for n in range(1, 6)),
    *(f"REP20{n}" for n in range(1, 7)),
    *(f"REP30{n}" for n in range(1, 7)),
]

DIRTY = "y = sorted(xs)\n"
DISCARD = "def exchange(cluster, part):\n    cluster.comm.send(0, 1, part)\n"


def lint(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def tree(tmp_path, monkeypatch) -> Path:
    """A fixed two-module ``repro/core`` tree, linted by relative path so
    display paths (and therefore cache keys) do not depend on tmp_path."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(DIRTY, encoding="utf-8")
    (pkg / "b.py").write_text(DISCARD, encoding="utf-8")
    (tmp_path / "cost-baseline.json").write_text("{}\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return Path("repro")


class TestGoldenOutput:
    def test_lint_all_json_on_the_real_tree(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = lint("--all", "--no-cache", "--format", "json", "src/repro")
        assert (code, err) == (EXIT_CLEAN, "")
        assert out == (DATA / "lint_all_golden.json").read_text(encoding="utf-8")

    def test_list_rules(self):
        code, out, err = lint("--list-rules")
        assert (code, err) == (EXIT_CLEAN, "")
        assert out == (DATA / "lint_list_rules_golden.txt").read_text(encoding="utf-8")


class TestNoticeRouting:
    FLAGS = ("--all", "--no-cache", "--no-baseline",
             "--emit-schema", "schemas", "--emit-costs", "costs")

    @staticmethod
    def notices(text: str) -> list[str]:
        return [line for line in text.splitlines() if line.startswith("wrote ")]

    def test_text_mode_writes_notices_to_stdout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = str(Path(repro.__file__).parent)
        code, out, err = lint(*self.FLAGS, pkg)
        assert (code, err) == (EXIT_CLEAN, "")
        wrote = self.notices(out)
        # schemas first, then costs, five algorithms each
        assert [w.split()[1] for w in wrote] == ["schema"] * 5 + ["costs"] * 5
        assert "wrote schema schemas/protocol-external_psrs.json" in wrote
        assert "wrote costs costs/costs-external_psrs.json" in wrote

    def test_json_mode_routes_notices_to_stderr(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = str(Path(repro.__file__).parent)
        text_code, text_out, _ = lint(*self.FLAGS, pkg)
        code, out, err = lint(*self.FLAGS, "--format", "json", pkg)
        assert code == text_code == EXIT_CLEAN
        json.loads(out)  # stdout stays pure JSON
        assert err.splitlines() == self.notices(text_out)


class TestSelectionErrors:
    @pytest.fixture
    def target(self, tmp_path) -> str:
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("x = 1\n", encoding="utf-8")
        return str(pkg)

    def error(self, *argv: str) -> str:
        code, out, err = lint("--no-cache", "--no-baseline", *argv)
        assert (code, out) == (EXIT_INTERNAL_ERROR, "")
        return err

    def test_unknown_rule_lists_every_code(self, target):
        for flags in ((), ("--all",)):
            assert self.error(*flags, "--rule", "REP999", target) == (
                "repro lint: internal error: unknown rule 'REP999'; have "
                + ", ".join(ALL_CODES) + "\n"
            )

    @pytest.mark.parametrize(
        "codes, kind, flag",
        [
            (["REP105", "rep101"], "flow-aware deep", "--deep"),
            (["REP204"], "protocol", "--protocol"),
            (["rep305", "REP301"], "I/O-cost", "--cost"),
        ],
    )
    def test_rule_of_a_disabled_pass_names_its_flag(self, target, codes, kind, flag):
        argv = [arg for code in codes for arg in ("--rule", code)]
        listed = ", ".join(sorted(c.upper() for c in codes))
        assert self.error(*argv, target) == (
            f"repro lint: internal error: rule(s) {listed} are {kind} rules; "
            f"pass {flag} to enable them\n"
        )

    def test_disabled_passes_are_reported_in_table_order(self, target):
        # a deep and a cost rule without either flag: the deep hint wins
        err = self.error("--rule", "REP301", "--rule", "REP101", target)
        assert "pass --deep" in err and "--cost" not in err

    def test_enabled_pass_accepts_its_rules_case_insensitively(self, target):
        code, _, _ = lint("--no-cache", "--no-baseline", "--deep",
                          "--rule", "rep105", target)
        assert code == EXIT_CLEAN

    def test_missing_cost_baseline_file_exits_two(self, target, tmp_path):
        missing = tmp_path / "none.json"
        assert self.error("--cost", "--cost-baseline", str(missing), target) == (
            f"repro lint: internal error: {missing}: cost baseline file not found\n"
        )


# Cache entry names of `lint --all` over the `tree` fixture.  A key is the
# sha256 of (cache format, pass name, engine version, rule-selection token,
# path or project digest, source or cost-baseline digest); if this list
# changes, every `.lint-cache/` written by an older checkout goes cold —
# bump an engine version on purpose instead.
CACHE_ENTRIES = [
    "5f64ffc4a61333af39920b5b5c474bac087441e7ec8f3154c179f6a6959d330f.json",
    "60e90489b54f64a0c521e50eada241df0ae908cf8cbf15681f5bf46f0a128762.json",
    "bdc3ba1eceb211256db03542c7dab432f7a77da8ae42d673ae3b3b640d18e2bf.json",
    "cd6818dae705ac9261e94793bdf2dcb918883c1079bfae9ae00bdb4bdab4e929.json",
    "cfadd549af9991f1572c18f19caac76da24dda16f9aa6db4bfa2d139411e5357.json",
]


class TestCacheCompatibility:
    ARGS = ("--all", "--no-baseline", "--format", "json", "--cache-dir", "cache")

    def test_entry_names_match_the_pinned_keys(self, tree):
        code, _, _ = lint(*self.ARGS, str(tree))
        assert code == EXIT_FINDINGS
        names = sorted(p.name for p in Path("cache").rglob("*.json"))
        assert names == CACHE_ENTRIES

    def test_second_run_is_all_hits_per_pass_with_identical_report(self, tree):
        code1, out1, _ = lint(*self.ARGS, str(tree))
        code2, out2, _ = lint(*self.ARGS, str(tree))
        assert code1 == code2 == EXIT_FINDINGS
        first, second = json.loads(out1), json.loads(out2)
        miss = {"hits": 0, "misses": 1, "hit_rate": 0.0}
        hit = {"hits": 1, "misses": 0, "hit_rate": 1.0}
        assert first["cache"]["passes"] == {
            "shallow": {"hits": 0, "misses": 2, "hit_rate": 0.0},
            "deep": miss, "protocol": miss, "cost": miss,
        }
        assert second["cache"]["passes"] == {
            "shallow": {"hits": 2, "misses": 0, "hit_rate": 1.0},
            "deep": hit, "protocol": hit, "cost": hit,
        }
        # replayed from the cache, the report is the computed one
        assert [f["rule"] for f in first["findings"]] == ["REP002", "REP104"]
        for key in ("findings", "baselined", "suppressed", "summary"):
            assert first[key] == second[key]

    def test_rule_selection_and_cost_baseline_are_part_of_the_key(self, tree):
        lint(*self.ARGS, str(tree))
        before = set(Path("cache").rglob("*.json"))
        _, out, _ = lint(*self.ARGS, "--rule", "REP002", "--rule", "REP104",
                         str(tree))
        stats = json.loads(out)["cache"]["passes"]
        assert set(stats) == {"shallow", "deep"}  # filtered-out passes skipped
        assert all(s["hits"] == 0 for s in stats.values())
        Path("cost-baseline.json").write_text("{ }\n", encoding="utf-8")
        _, out, _ = lint(*self.ARGS, str(tree))
        stats = json.loads(out)["cache"]["passes"]
        assert stats["cost"]["misses"] == 1 and stats["protocol"]["hits"] == 1
        assert len(set(Path("cache").rglob("*.json")) - before) == 4


class TestLazyProject:
    """The call graph is built on the first whole-project cache miss (or
    emitter request), once, and the project digest is computed once."""

    ARGS = ("--all", "--no-baseline", "--cache-dir", "cache")

    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, int]:
        from repro.analysis import cli
        from repro.analysis.flow.project import Project

        counts = {"from_sources": 0, "project_digest": 0}
        build, digest = Project.from_sources, cli.project_digest

        def from_sources(sources):
            counts["from_sources"] += 1
            return build(sources)

        def project_digest(files):
            counts["project_digest"] += 1
            return digest(files)

        monkeypatch.setattr(Project, "from_sources", from_sources)
        monkeypatch.setattr(cli, "project_digest", project_digest)
        return counts

    def test_cold_run_builds_one_project_for_three_passes(self, tree, calls):
        lint(*self.ARGS, str(tree))
        assert calls == {"from_sources": 1, "project_digest": 1}

    def test_fully_cached_run_builds_no_project(self, tree, calls):
        lint(*self.ARGS, str(tree))
        calls.update(from_sources=0, project_digest=0)
        code, out, _ = lint(*self.ARGS, str(tree))
        assert code == EXIT_FINDINGS and "2 finding(s)" in out
        assert calls == {"from_sources": 0, "project_digest": 1}

    def test_single_pass_miss_builds_it_once(self, tree, calls):
        lint(*self.ARGS, str(tree))
        calls.update(from_sources=0, project_digest=0)
        Path("cost-baseline.json").write_text("{ }\n", encoding="utf-8")
        lint(*self.ARGS, str(tree))  # only the cost entry is stale
        assert calls == {"from_sources": 1, "project_digest": 1}

    def test_emitter_on_a_cached_run_builds_it_once(self, tree, calls):
        lint(*self.ARGS, str(tree))
        calls.update(from_sources=0, project_digest=0)
        lint(*self.ARGS, "--emit-schema", "schemas", "--emit-costs", "costs",
             str(tree))
        assert calls == {"from_sources": 1, "project_digest": 1}


class TestWriteCostBaseline:
    SOURCE = (
        "def _sort_impl(cluster, inputs, config):\n"
        "    with cluster.step('1:local-sort'):\n"
        "        for node, f in zip(cluster.nodes, inputs):\n"
        "            polyphase_sort(f, node.disk, node.mem)\n"
    )
    # REP305 alone: the one-step fixture is (rightly) full of dead bounds
    ARGS = ("--cost", "--rule", "REP305", "--no-cache", "--no-baseline")

    @pytest.fixture
    def entry(self, tmp_path, monkeypatch) -> str:
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "external_psrs.py").write_text(self.SOURCE, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return "repro"

    def test_writes_to_the_named_cost_baseline_and_lints_against_it(self, entry):
        code, out, err = lint(*self.ARGS, "--write-cost-baseline",
                              "--cost-baseline", "other.json", entry)
        assert (code, err) == (EXIT_CLEAN, "")
        assert out.startswith("wrote cost baseline other.json\n")
        assert not Path("cost-baseline.json").exists()
        pinned = json.loads(Path("other.json").read_text(encoding="utf-8"))
        assert list(pinned["algorithms"]["external_psrs"]) == ["1:local-sort"]

    def test_default_target_is_the_cwd_baseline(self, entry):
        code, out, err = lint(*self.ARGS, "--write-cost-baseline",
                              "--format", "json", entry)
        assert code == EXIT_CLEAN
        json.loads(out)  # the notice went to stderr
        assert err == "wrote cost baseline cost-baseline.json\n"
        assert Path("cost-baseline.json").is_file()

    def test_fresh_pin_is_what_rep305_compares_against(self, entry):
        args = (*self.ARGS, "--cost-baseline", "other.json", entry)
        lint("--write-cost-baseline", *args)
        # a second full pass over the step's data regresses past the pin
        Path("repro/core/external_psrs.py").write_text(
            self.SOURCE + "            polyphase_sort(f, node.disk, node.mem)\n",
            encoding="utf-8",
        )
        code, out, _ = lint(*args)
        assert code == EXIT_FINDINGS and "REP305" in out
        code, _, _ = lint("--write-cost-baseline", *args)  # re-pin: clean again
        assert code == EXIT_CLEAN
