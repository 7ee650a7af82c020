"""The protocol verifier: REP201..REP206 plus schema extraction.

One bad fixture per rule (each fires exactly the code under test), one
good counterpart per rule (fires nothing), the registry contract, and a
self-check that the real tree is protocol-clean — the acceptance bar of
``repro lint --protocol`` exiting 0.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.engine import AnalysisError
from repro.analysis.cli import select
from repro.analysis.protocol import KNOWN_ENTRIES, extract_schema
from repro.analysis.flow import analyze_project_source, load_project, run_project

PROTOCOL_RULES = select(None, {"protocol"})["protocol"]

PATH = "repro/core/mod.py"


def check(source: str, path: str = PATH):
    return analyze_project_source(textwrap.dedent(source), path, PROTOCOL_RULES)


def codes(report) -> list[str]:
    return [f.rule for f in report.findings]


# -- bad fixtures: one per rule ---------------------------------------------

BAD_201 = """
    def exchange(view, rank, leader, payloads, data):
        if rank != leader:
            view.comm.gather(payloads, root=0)
        else:
            view.comm.bcast(data, root=0)
"""

BAD_202 = """
    def distribute(view, parts):
        for i in range(view.p):
            parts[i] = parts[i] + 1
        view.comm.gather(parts, root=i)
"""

BAD_203 = """
    def stage(comm, data):
        comm.send(3, 3, data)
"""

BAD_204 = """
    def broadcast_each(view, data):
        for i in range(view.p):
            view.comm.bcast(data, root=0)
"""

BAD_205 = """
    def sync(view, rank, leader):
        if rank != leader:
            view.barrier()
"""

BAD_206 = """
    def regather(view, parts, config):
        view.comm.gather(parts, root=config.root)
"""

# -- good counterparts: the documented fixes --------------------------------

GOOD = """
    def orchestrate(view, config, parts, data):
        root = view.ranks.index(config.root)
        out = view.comm.gather(parts, root=root)
        view.comm.bcast(data, root=root)
        payload = [out[i] for i in range(view.p)]
        view.comm.scatter(payload, root=root)
        view.barrier()
        for src in range(view.p):
            dst = (src + 1) % view.p
            if src != dst:
                view.comm.send(src, dst, data)
"""


class TestBadFixtures:
    @pytest.mark.parametrize(
        "source,code",
        [
            (BAD_201, "REP201"),
            (BAD_202, "REP202"),
            (BAD_203, "REP203"),
            (BAD_204, "REP204"),
            (BAD_205, "REP205"),
            (BAD_206, "REP206"),
        ],
    )
    def test_each_rule_fires_on_its_fixture(self, source, code):
        assert code in codes(check(source))

    def test_fixtures_fire_only_their_rule(self):
        # REP201's divergent arms are otherwise well-formed, etc.: each
        # planted bug is a single defect, not a pile-up.
        assert codes(check(BAD_201)) == ["REP201"]
        assert codes(check(BAD_202)) == ["REP202"]
        assert codes(check(BAD_203)) == ["REP203"]
        assert codes(check(BAD_204)) == ["REP204"]
        assert codes(check(BAD_205)) == ["REP205"]
        assert codes(check(BAD_206)) == ["REP206"]

    def test_findings_name_the_function(self):
        report = check(BAD_203)
        assert "[in stage()]" in report.findings[0].message

    def test_view_result_indexed_by_global_rank(self):
        source = """
            def read_back(view, parts, config):
                pos = view.ranks.index(config.root)
                out = view.comm.gather(parts, root=pos)
                return out[config.root]
        """
        assert codes(check(source)) == ["REP206"]

    def test_out_of_scope_module_is_exempt(self):
        report = check(BAD_203, path="repro/obs/mod.py")
        assert report.findings == []

    def test_noqa_suppresses_with_reason(self):
        source = """
            def stage(comm, data):
                comm.send(3, 3, data)  # repro: noqa REP203(loopback model)
        """
        report = check(source)
        assert report.findings == []
        assert report.suppressed[0].reason == "loopback model"


class TestGoodFixtures:
    def test_orchestration_idiom_is_clean(self):
        assert codes(check(GOOD)) == []

    def test_guarded_self_send_is_clean(self):
        source = """
            def route(comm, src, dst, data):
                if src != dst:
                    comm.send(src, dst, data)
        """
        assert codes(check(source)) == []

    def test_collective_after_rank_loop_is_clean(self):
        source = """
            def plan(view, data):
                payloads = []
                for i in range(view.p):
                    payloads.append(data[i])
                view.comm.alltoallv(payloads)
        """
        assert codes(check(source)) == []

    def test_same_collectives_in_both_arms_is_clean(self):
        source = """
            def balanced(view, rank, leader, parts):
                if rank != leader:
                    view.comm.gather(parts, root=0)
                else:
                    view.comm.gather(parts, root=0)
        """
        assert codes(check(source)) == []


class TestRegistry:
    def test_codes_are_the_documented_range(self):
        assert [r.code for r in PROTOCOL_RULES] == [
            f"REP20{n}" for n in range(1, 7)
        ]

    def test_metadata_is_complete(self):
        for rule in PROTOCOL_RULES:
            assert rule.name and rule.summary and rule.fix_hint
            assert rule.scope  # every protocol rule is scoped

    def test_selection_resolves_case_insensitively(self):
        (rule,) = select(["rep204"], {"protocol"})["protocol"]
        assert rule.code == "REP204"

    def test_unknown_code_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            select(["REP999"], {"protocol"})


class TestRepoSelfCheck:
    def test_package_is_protocol_clean(self):
        pkg = Path(repro.__file__).parent
        report = run_project(load_project([pkg]), PROTOCOL_RULES)
        assert [f.render() for f in report.findings] == []


class TestCliIntegration:
    @staticmethod
    def lint(*argv: str) -> tuple[int, str, str]:
        import contextlib
        import io

        from repro.analysis.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def core_file(tmp_path: Path, source: str) -> Path:
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True, exist_ok=True)
        target = pkg / "mod.py"
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        return target

    def test_protocol_finding_exits_one(self, tmp_path):
        f = self.core_file(tmp_path, BAD_204)
        code, out, _ = self.lint("--no-baseline", "--no-cache",
                                 "--protocol", str(f))
        assert code == 1
        assert "REP204" in out

    def test_protocol_rule_requires_flag(self, tmp_path):
        f = self.core_file(tmp_path, BAD_204)
        code, _, err = self.lint("--no-baseline", "--no-cache",
                                 "--rule", "REP204", str(f))
        assert code == 2
        assert "--protocol" in err

    def test_rule_filter_within_protocol_pass(self, tmp_path):
        f = self.core_file(tmp_path, BAD_204 + BAD_203)
        code, out, _ = self.lint("--no-baseline", "--no-cache", "--protocol",
                                 "--rule", "REP203", str(f))
        assert code == 1
        assert "REP203" in out and "REP204" not in out

    def test_json_payload_reports_protocol_engine(self, tmp_path):
        import json

        f = self.core_file(tmp_path, "x = 1\n")
        code, out, _ = self.lint("--no-baseline", "--no-cache", "--protocol",
                                 "--format", "json", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload["protocol_engine_version"] == "1.0"

    def test_emit_schema_keeps_json_stdout_pure(self, tmp_path):
        import json

        schemas = tmp_path / "schemas"
        pkg = Path(repro.__file__).parent
        code, out, err = self.lint(
            "--no-baseline", "--no-cache", "--protocol", "--format", "json",
            "--emit-schema", str(schemas), str(pkg),
        )
        assert code == 0
        json.loads(out)  # no schema notices interleaved
        assert "wrote schema" in err
        assert (schemas / "protocol-external_psrs.json").is_file()

    def test_list_rules_tags_protocol_pass(self):
        code, out, _ = self.lint("--list-rules")
        assert code == 0
        for n in range(1, 7):
            assert f"REP20{n}" in out
        assert "[protocol]" in out


class TestSchemaExtraction:
    @pytest.fixture(scope="class")
    def project(self):
        return load_project([Path(repro.__file__).parent])

    def test_known_entries_resolve(self, project):
        for key in KNOWN_ENTRIES.values():
            assert key in project.functions, key

    def test_external_psrs_schema_shape(self, project):
        schema = extract_schema(project, "external_psrs")
        assert schema["algorithm"] == "external_psrs"
        names = [s["name"] for s in schema["steps"]]
        # the paper's step skeleton, in superstep order
        for expected in ("2:pivots", "3:partition", "4:redistribute"):
            assert expected in names
        assert names == sorted(names, key=names.index)  # stable order
        by_name = {s["name"]: s for s in schema["steps"]}
        assert by_name["2:pivots"]["ops"]  # quantile/sample traffic

    def test_all_entries_extract(self, project):
        for algorithm in KNOWN_ENTRIES:
            schema = extract_schema(project, algorithm)
            assert schema["version"] >= 1
            assert isinstance(schema["steps"], list)

    def test_unknown_algorithm_raises(self, project):
        with pytest.raises(AnalysisError):
            extract_schema(project, "bogosort")
