"""Per-rule positive/negative fixtures for the REP001..REP008 linter."""

from __future__ import annotations

import keyword
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisError,
    Baseline,
    analyze_source,
    fingerprint,
    package_relpath,
    parse_noqa,
)
from repro.analysis.cli import select

CORE = "repro/core/mod.py"
EXTSORT = "repro/extsort/mod.py"
PDM = "repro/pdm/mod.py"
OUTSIDE = "repro/metrics/mod.py"


def get_rules(codes=None):
    return select(codes, {"shallow"})["shallow"]


def run(src: str, path: str = CORE, codes=None):
    """Lint a snippet; return the (unsuppressed) finding list."""
    report = analyze_source(textwrap.dedent(src), path, get_rules(codes))
    return report.findings


def codes_of(findings):
    return sorted({f.rule for f in findings})


class TestScoping:
    def test_package_relpath_strips_prefix(self):
        assert package_relpath("/x/src/repro/core/a.py") == "core/a.py"
        assert package_relpath("repro/pdm/disk.py") == "pdm/disk.py"

    def test_core_scoped_rule_silent_outside_core(self):
        src = "x = sorted(items)\n"
        assert codes_of(run(src)) == ["REP002"]
        assert run(src, path=OUTSIDE) == []

    def test_exempt_module_is_skipped(self):
        src = "x = sorted(items)\n"
        assert run(src, path="repro/extsort/runs.py") == []
        assert codes_of(run(src, path=EXTSORT)) == ["REP002"]


class TestRawHostIO:
    def test_open_flagged_in_core(self):
        assert codes_of(run("f = open('x.bin', 'rb')\n")) == ["REP001"]

    def test_os_and_shutil_ops_flagged(self):
        src = """
            import os, shutil
            os.remove(p)
            shutil.copyfile(a, b)
        """
        fs = run(src, codes=["REP001"])
        assert len(fs) == 2

    def test_numpy_file_io_and_tofile_flagged(self):
        src = """
            np.save(path, arr)
            arr.tofile(path)
        """
        assert len(run(src, path=PDM, codes=["REP001"])) == 2

    def test_filestore_exempt_and_noncore_silent(self):
        src = "f = open('x.bin', 'rb')\n"
        assert run(src, path="repro/pdm/filestore.py") == []
        assert run(src, path="repro/workloads/mod.py", codes=["REP001"]) == []

    def test_plain_calls_not_flagged(self):
        assert run("y = os.path.join(a, b)\nz = compute(x)\n", codes=["REP001"]) == []


class TestInCoreSort:
    @pytest.mark.parametrize(
        "snippet",
        ["y = sorted(xs)\n", "y = np.sort(xs)\n", "xs.sort()\n", "i = np.argsort(xs)\n"],
    )
    def test_sorts_flagged(self, snippet):
        assert codes_of(run(snippet, codes=["REP002"])) == ["REP002"]

    def test_non_sort_calls_clean(self):
        assert run("y = np.searchsorted(xs, v)\nz = merge(xs)\n", codes=["REP002"]) == []


class TestNondeterminism:
    @pytest.mark.parametrize(
        "snippet",
        [
            "t = time.time()\n",
            "t = time.perf_counter()\n",
            "x = random.random()\n",
            "x = np.random.rand(3)\n",
            "rng = np.random.default_rng()\n",
            "u = uuid.uuid4()\n",
            "d = datetime.datetime.now()\n",
        ],
    )
    def test_nondeterministic_calls_flagged(self, snippet):
        assert codes_of(run(snippet, path=OUTSIDE, codes=["REP003"])) == ["REP003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "rng = np.random.default_rng(42)\n",
            "rng = np.random.default_rng(seed=seed)\n",
            "g = np.random.Generator(np.random.PCG64(1))\n",
            "t = node.clock.time\n",
        ],
    )
    def test_seeded_and_simulated_clean(self, snippet):
        assert run(snippet, path=OUTSIDE, codes=["REP003"]) == []


class TestMagicBlockSize:
    @pytest.mark.parametrize(
        "snippet",
        [
            "f = BlockFile(disk, 1024)\n",
            "f = disk.new_file(512, np.uint32)\n",
            "f = StripedFile(disks, B=256)\n",
        ],
    )
    def test_literal_b_flagged(self, snippet):
        assert codes_of(run(snippet, path=OUTSIDE, codes=["REP004"])) == ["REP004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "f = BlockFile(disk, config.block_items)\n",
            "f = disk.new_file(B, dtype)\n",
            "f = disk.new_file(src.B, src.dtype)\n",
        ],
    )
    def test_threaded_b_clean(self, snippet):
        assert run(snippet, path=OUTSIDE, codes=["REP004"]) == []


class TestNodeIsolation:
    def test_to_array_and_inspect_payload_flagged(self):
        src = """
            a = f.to_array()
            b = f.inspect_block(0)
        """
        assert len(run(src, codes=["REP005"])) == 2

    def test_size_metadata_access_allowed(self):
        assert run("n = f.block_items(i)\n", codes=["REP005"]) == []
        # Sizing through the payload accessor loads the block: flagged.
        assert len(run("n = f.inspect_block(i).size\n", codes=["REP005"])) == 1

    def test_foreign_private_state_flagged_but_self_allowed(self):
        src = """
            class F:
                def ok(self):
                    return self._blocks
                def bad(self, other):
                    return other._blocks
        """
        fs = run(src, codes=["REP005"])
        assert len(fs) == 1 and "_blocks" in fs[0].message

    def test_outside_core_and_extsort_silent(self):
        assert run("a = f.to_array()\n", path=OUTSIDE, codes=["REP005"]) == []


class TestMemoryBypass:
    def test_unbudgeted_data_sized_alloc_flagged(self):
        src = """
            def f(parts):
                return np.concatenate(parts)
        """
        fs = run(src, codes=["REP006"])
        assert len(fs) == 1 and "f()" in fs[0].message

    def test_function_with_memory_manager_clean(self):
        src = """
            def f(parts, mem):
                with mem.reserve(n):
                    return np.concatenate(parts)
        """
        assert run(src, codes=["REP006"]) == []

    def test_constant_sized_scratch_clean(self):
        src = """
            def f(parts):
                return np.empty(8, dtype=np.uint32)
        """
        assert run(src, codes=["REP006"]) == []


class TestSwallowedFault:
    def test_bare_except_flagged(self):
        src = """
            try:
                step()
            except:
                pass
        """
        assert codes_of(run(src, path=OUTSIDE, codes=["REP007"])) == ["REP007"]

    def test_broad_except_pass_flagged(self):
        src = """
            try:
                step()
            except Exception:
                pass
        """
        assert len(run(src, path=OUTSIDE, codes=["REP007"])) == 1

    def test_swallowed_fault_error_flagged(self):
        src = """
            try:
                step()
            except DiskFaultError:
                pass
        """
        assert len(run(src, path=OUTSIDE, codes=["REP007"])) == 1

    @pytest.mark.parametrize(
        "handler",
        [
            "except Exception as exc:\n    raise RuntimeError('x') from exc",
            "except Exception as exc:\n    log(exc)",
            "except ValueError:\n    pass",
        ],
    )
    def test_proper_handlers_clean(self, handler):
        src = "try:\n    step()\n" + handler + "\n"
        assert run(src, path=OUTSIDE, codes=["REP007"]) == []


class TestSharedMutableState:
    def test_mutable_default_flagged(self):
        src = """
            def f(x, acc=[]):
                return acc
        """
        assert len(run(src, path=OUTSIDE, codes=["REP008"])) == 1

    def test_module_level_mutable_flagged(self):
        src = "cache = {}\nitems = list()\n"
        assert len(run(src, path=OUTSIDE, codes=["REP008"])) == 2

    @pytest.mark.parametrize(
        "snippet",
        [
            "BENCHMARKS = {}\n",  # ALL_CAPS constant registry
            "__all__ = ['a', 'b']\n",  # list of str is fine for dunders
            "def f(x, acc=None):\n    acc = acc or []\n    return acc\n",
            "def f(x, opts=()):\n    return opts\n",
        ],
    )
    def test_sanctioned_patterns_clean(self, snippet):
        assert run(snippet, path=OUTSIDE, codes=["REP008"]) == []


class TestNoqa:
    def test_parse_noqa_with_codes_and_reasons(self):
        lines = [
            "x = sorted(a)  # repro: noqa REP002(bounded sample), REP006(scratch)",
            "y = 1",
            "z = open(p)  # repro: noqa",
        ]
        directives = parse_noqa(lines)
        assert set(directives[1]) == {"REP002", "REP006"}
        assert directives[1]["REP002"] == "bounded sample"
        assert 2 not in directives
        assert "*" in directives[3]

    def test_noqa_suppresses_matching_rule_only(self):
        src = "y = sorted(open(p))  # repro: noqa REP002(charged below)\n"
        report = analyze_source(src, CORE, get_rules())
        assert codes_of(report.findings) == ["REP001"]  # open() still reported
        assert [s.finding.rule for s in report.suppressed] == ["REP002"]
        assert report.suppressed[0].reason == "charged below"

    def test_blanket_noqa_suppresses_everything(self):
        src = "y = sorted(open(p))  # repro: noqa\n"
        report = analyze_source(src, CORE, get_rules())
        assert report.findings == []
        assert len(report.suppressed) == 2


class TestProjectRunner:
    def test_per_module_rules_run_through_the_project_runner_unchanged(self):
        from repro.analysis.flow import analyze_project_source

        src = "y = sorted(open(p))  # repro: noqa REP002(charged below)\n"
        for path in (CORE, OUTSIDE):  # scope matching included
            assert analyze_project_source(src, path, get_rules()) == (
                analyze_source(src, path, get_rules())
            )


class TestBaselineMatching:
    def _finding(self, src="y = sorted(xs)\n", path=CORE):
        (f,) = run(src, path=path, codes=["REP002"])
        return f

    def test_fingerprint_survives_line_drift(self):
        a = self._finding("y = sorted(xs)\n")
        b = self._finding("\n\n# moved down\ny = sorted(xs)\n")
        assert a.line != b.line
        assert fingerprint(a) == fingerprint(b)

    def test_fingerprint_changes_with_snippet_or_path(self):
        a = self._finding("y = sorted(xs)\n")
        b = self._finding("y = sorted(ys)\n")
        c = self._finding("y = sorted(xs)\n", path="repro/core/other.py")
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_split_is_multiset(self, tmp_path):
        one = self._finding("y = sorted(xs)\n")
        path = tmp_path / "baseline.json"
        Baseline.write(path, [one])
        baseline = Baseline.load(path)
        # Two identical occurrences against a count-1 baseline: 1 old, 1 new.
        pair = run("y = sorted(xs)\ny = sorted(xs)\n", codes=["REP002"])
        assert fingerprint(pair[0]) == fingerprint(pair[1]) == fingerprint(one)
        new, old = baseline.split(pair)
        assert len(old) == 1 and len(new) == 1

    def test_missing_baseline_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            Baseline.load(tmp_path / "nope.json")


class TestEngineErrors:
    def test_syntax_error_is_analysis_error(self):
        with pytest.raises(AnalysisError, match="cannot parse"):
            analyze_source("def f(:\n", CORE, get_rules())

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            get_rules(["REP999"])


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
)

_CLEAN_TEMPLATES = (
    "def fn_{n}({n}):\n    return {n} + 1\n",
    "{N}_TABLE = {{'a': 1}}\n",
    "rng = np.random.default_rng({i})\n",
    "def fn_{n}({n}, mem):\n    with mem.reserve({n}.size):\n"
    "        return np.concatenate([{n}])\n",
    "total = 0\nfor _x in range({i}):\n    total += _x\n",
)


class TestCleanSnippetsProperty:
    @given(
        name=_IDENT,
        seed=st.integers(min_value=0, max_value=2**31),
        template=st.sampled_from(_CLEAN_TEMPLATES),
    )
    def test_rule_clean_snippets_have_zero_findings(self, name, seed, template):
        src = template.format(n=name, N=name.upper(), i=seed)
        for path in (CORE, EXTSORT, PDM, OUTSIDE):
            assert run(src, path=path) == []
