"""The symbolic I/O-cost certifier: REP301..REP306 plus certification.

Four layers of assurance, mirroring the subpackage:

* the symbolic algebra (:mod:`repro.pdm.sym`): hypothesis
  properties that ``simplify`` and the JSON round-trip never change an
  expression's value over the sampled model domain;
* the abstract interpreter: golden rendered expressions for every step
  of all five registered algorithms (non-TOP everywhere — the
  acceptance bar), pinned so a derivation change is a visible diff;
* the rules: one bad fixture per code (each fires the code under
  test), a clean counterpart, and the self-check that the real tree is
  REP301..REP306-clean against the checked-in cost baseline;
* certification: unit cells, the recorded ``BENCH_sort.json`` audit
  blocks, and a fault-free fuzz-corpus replay all satisfy
  measured <= derived(static).
"""

from __future__ import annotations

import json
import math
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.cli import select
from repro.analysis.cost import (
    COST_BASELINE_NAME,
    baseline_payload,
    certify_bench,
    certify_cells,
    certify_corpus,
    derive_costs,
)
from repro.analysis.cost.rules import COST_BASELINE_KEY, BoundRegressionRule
from repro.pdm.sym import (
    SYMBOLS,
    BitLen,
    Ceil,
    Const,
    Div,
    Expr,
    MergeLevels,
    MergePasses,
    Sym,
    Top,
    add,
    ceil,
    dominates,
    emax,
    emin,
    find_tops,
    from_dict,
    mul,
    sample_envs,
    simplify,
)
from repro.analysis.engine import AnalysisError
from repro.analysis.flow import analyze_project_source, load_project, run_project
from repro.analysis.flow.project import Project
from repro.obs.audit import RunMeta, node_envs

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
ENTRY_PATH = "repro/core/external_psrs.py"


@pytest.fixture(scope="module")
def project() -> Project:
    return load_project([Path(repro.__file__).parent])


def get_cost_rules(codes=None):
    return select(codes, {"cost"})["cost"]


COST_RULES = get_cost_rules()


def check(source: str, rules=COST_RULES, path: str = ENTRY_PATH):
    return analyze_project_source(textwrap.dedent(source), path, rules)


def codes(report) -> list[str]:
    return [f.rule for f in report.findings]


# -- the registry contract ---------------------------------------------------


def test_registry_covers_rep301_to_306() -> None:
    assert [r.code for r in COST_RULES] == [
        "REP301", "REP302", "REP303", "REP304", "REP305", "REP306",
    ]
    for rule in COST_RULES:
        assert rule.summary and rule.rationale and rule.fix_hint
        assert rule.scope == ("core/",)


def test_get_cost_rules_selection_and_unknown() -> None:
    only = get_cost_rules(["rep303"])
    assert [r.code for r in only] == ["REP303"]
    with pytest.raises(AnalysisError):
        get_cost_rules(["REP999"])


# -- hypothesis: the algebra is sound ---------------------------------------

_ENVS = sample_envs()[::17]  # a spread of the grid, kept fast


def _exprs() -> st.SearchStrategy[Expr]:
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=64.0).map(Const),
        st.sampled_from(SYMBOLS).map(Sym),
    )

    def extend(children: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: add(ab[0], ab[1])),
            pair.map(lambda ab: mul(ab[0], ab[1])),
            pair.map(lambda ab: emax(ab[0], ab[1])),
            pair.map(lambda ab: emin(ab[0], ab[1])),
            children.map(ceil),
            # positive denominators only: the model's divisors (B, p, G)
            # are all >= 1, and Div does not guard zero
            st.tuples(children, st.sampled_from(("B", "p", "G"))).map(
                lambda ad: Div(ad[0], Sym(ad[1]))
            ),
            children.map(BitLen),
            children.map(MergePasses),
            children.map(MergeLevels),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _agree(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(expr=_exprs())
def test_simplify_preserves_value(expr: Expr) -> None:
    simplified = simplify(expr)
    for env in _ENVS:
        assert _agree(expr.eval(env), simplified.eval(env)), (
            f"{expr.render()} -> {simplified.render()} diverges at {env}"
        )


@settings(max_examples=60, deadline=None)
@given(expr=_exprs())
def test_json_round_trip_preserves_value(expr: Expr) -> None:
    back = from_dict(json.loads(json.dumps(expr.to_dict())))
    for env in _ENVS:
        assert _agree(expr.eval(env), back.eval(env))


def test_dominates_reflexive_and_witness() -> None:
    e = add(mul(Const(2.0), Sym("l")), Sym("d"))
    assert dominates(e, e) is None
    assert dominates(e, add(e, Const(1.0))) is None
    witness = dominates(add(e, Const(1.0)), e)
    assert witness is not None and "l" in witness


def test_top_poisons_and_is_found() -> None:
    t = Top("unknown payload")
    assert math.isinf(t.eval(sample_envs()[0]))
    assert find_tops(add(Sym("l"), t)) == [t]
    assert find_tops(Sym("l")) == []


# -- the interpreter: golden derivations over the real tree ------------------

GOLDEN = {
    "dewitt": {
        "1:splitters": "max(min(ceil(l/B), max(ceil(max(c*(p + -1)*g, 1)/B), 1))*B, 0)",
        "2:route": "(ceil(l/B)*B + r)",
        "3:merge-runs": "(1.3*max(2*r*(1 + passes(r)), 2*r*max(1, levels((ceil(r/max(1, min(cm, (M + -2*B)/p))) + p)))) + (ceil(r/max(1, min(cm, (M + -2*B)/p))) + p)*B)",
    },
    "external_psrs": {
        "1:local-sort": "1.3*max(2*l*(passes(l) + 1), 4*l)",
        "2:pivots": "c*(p + -1)*g*B",
        "3:partition": "((p + -1)*(bitlen(max(ceil(l/B), 1)) + 1)*B + 2*l + (p + -1)*B)",
        "4:redistribute": "(l + 2*l + d + p*B)",
        "5:final-merge": "(1.3*max(2*(2*l + d)*(passes((2*l + d)) + 1), 2*(2*l + d)*max(levels(p), 1)) + p*B)",
        "recover:remerge": "(1.3*max(2*n*(1 + passes(n)), 2*n*max(1, levels(2))) + 2*B)",
        "recover:salvage": "(2*l + 2*B)",
    },
    "hyperquicksort": {
        "1:local-sort": "0",
        "level-*": "0",
    },
    "in_core_psrs": {
        "1:local-sort": "0",
        "2:pivots": "0",
        "3:partition": "0",
        "4:exchange": "0",
        "5:merge": "0",
    },
    "overpartition": {
        "1:sample-pivots": "0",
        "2:bucketize": "0",
        "3:assign": "0",
        "4:exchange": "0",
        "5:sort-buckets": "0",
    },
}


def test_golden_derived_expressions(project: Project) -> None:
    derived = derive_costs(project)
    assert set(derived) == set(GOLDEN)
    rendered = {
        algo: {name: sc.expr.render() for name, sc in costs.steps.items()}
        for algo, costs in derived.items()
    }
    assert rendered == GOLDEN


def test_every_step_of_every_algorithm_is_bounded(project: Project) -> None:
    """The acceptance bar: non-TOP bounds everywhere, outside included."""
    for algo, costs in derive_costs(project).items():
        assert not find_tops(costs.outside.expr), algo
        for name, sc in costs.steps.items():
            assert sc.bounded, f"{algo} {name}"
            assert not find_tops(sc.expr), f"{algo} {name}"
            assert not sc.unbounded, f"{algo} {name}"


def test_external_psrs_derived_dominated_by_paper(project: Project) -> None:
    """REP301's invariant, asserted directly: derived <= paper per step."""
    from repro.core.theory import step_bounds

    costs = derive_costs(project)["external_psrs"]
    for name, paper in step_bounds().items():
        assert dominates(costs.steps[name].expr, paper) is None, name


def test_costs_md_renders_the_one_table() -> None:
    """docs/COSTS.md's external_psrs table is ``render()`` output: the
    paper column of ``step_bounds()``, the derived column of GOLDEN."""
    from repro.core.theory import step_bounds

    doc = (REPO_ROOT / "docs" / "COSTS.md").read_text(encoding="utf-8")
    section = doc.split("## external_psrs", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1].strip("`"), cells[2].strip("`"))
    assert set(rows) == set(GOLDEN["external_psrs"])
    for step, (derived, paper) in rows.items():
        assert derived == GOLDEN["external_psrs"][step], step
    for step, expr in step_bounds().items():
        assert rows[step][1] == expr.render(), step


# -- the rules: one bad fixture per code -------------------------------------

BAD_301 = """
def _sort_impl(cluster, inputs, config):
    with cluster.step("1:local-sort"):
        for node, f in zip(cluster.nodes, inputs):
            polyphase_sort(f, node.disk, node.mem)
            polyphase_sort(f, node.disk, node.mem)
"""

BAD_302 = """
def _sort_impl(cluster, inputs, config):
    with cluster.step("1:local-sort"):
        for node in cluster.nodes:
            chunk = node.scratch.take_upto(4)
"""

BAD_303 = BAD_301  # two polyphase sorts = 4 sweeps, over the paper's 3

BAD_304 = """
def _sort_impl(cluster, inputs, config):
    with cluster.step("1:local-sort"):
        for node, run in zip(cluster.nodes, inputs):
            while node.busy():
                block = run.read_block()
"""

BAD_306 = """
def _sort_impl(cluster, inputs, config):
    with cluster.step("1:local-sort"):
        x = 1
"""

GOOD_IN_CORE = """
def sort_in_core(cluster, inputs, config):
    with cluster.step("1:local-sort"):
        x = 1
"""


def test_rep301_derived_exceeds_paper() -> None:
    report = check(BAD_301, rules=get_cost_rules(["REP301"]))
    assert codes(report) == ["REP301"]
    # the counterexample environment is part of the message
    assert "exceeds" in report.findings[0].message


def test_rep302_unbounded_io_in_step() -> None:
    report = check(BAD_302, rules=get_cost_rules(["REP302"]))
    assert codes(report) == ["REP302"]
    assert "cursor read" in report.findings[0].message


def test_rep303_extra_pass() -> None:
    report = check(BAD_303, rules=get_cost_rules(["REP303"]))
    assert codes(report) == ["REP303"]
    assert "4 passes" in report.findings[0].message


def test_rep304_io_outside_derivable_loop_bound() -> None:
    report = check(BAD_304, rules=get_cost_rules(["REP304"]))
    assert codes(report) == ["REP304"]


def test_rep305_bound_regression_via_injected_baseline() -> None:
    source = textwrap.dedent("""
    def _sort_impl(cluster, inputs, config):
        with cluster.step("1:local-sort"):
            for node, f in zip(cluster.nodes, inputs):
                polyphase_sort(f, node.disk, node.mem)
    """)
    project = Project.from_sources([(source, ENTRY_PATH, ENTRY_PATH)])
    project.cache[COST_BASELINE_KEY] = {
        "algorithms": {
            "external_psrs": {"1:local-sort": {"expr": Const(1.0).to_dict()}}
        }
    }
    findings = list(BoundRegressionRule().check_project(project))
    assert [f.rule for f in findings] == ["REP305"]
    assert "regressed" in findings[0].message
    # same derivation, baseline matching the derived bound: clean
    project2 = Project.from_sources([(source, ENTRY_PATH, ENTRY_PATH)])
    derived = derive_costs(project2)["external_psrs"].steps["1:local-sort"]
    project2.cache[COST_BASELINE_KEY] = {
        "algorithms": {
            "external_psrs": {"1:local-sort": {"expr": derived.expr.to_dict()}}
        }
    }
    assert list(BoundRegressionRule().check_project(project2)) == []


def test_rep306_dead_bound() -> None:
    report = check(BAD_306, rules=get_cost_rules(["REP306"]))
    assert codes(report) and set(codes(report)) == {"REP306"}
    assert any("no charge site" in f.message for f in report.findings)


def test_rep306_reachability_sees_every_charged_method() -> None:
    """``write_one`` charges a disk (REP105 has always said so): a
    contracted primitive whose only charge site it is is not dead."""
    source = """
    def merge_many(runs, w):
        for x in runs:
            w.{method}(x)
    """
    rules = get_cost_rules(["REP306"])
    for method in ("write_one", "write", "take_upto"):
        report = check(source.format(method=method), rules, "repro/core/mod.py")
        assert codes(report) == [], method
    report = check(source.format(method="peek"), rules, "repro/core/mod.py")
    assert codes(report) == ["REP306"]


def test_noqa_suppresses_cost_findings() -> None:
    source = BAD_304.replace(
        'with cluster.step("1:local-sort"):',
        'with cluster.step("1:local-sort"):  '
        "# repro: noqa=REP304 -- retry loop bounded by fault budget",
    )
    report = check(source, rules=get_cost_rules(["REP304"]))
    assert codes(report) == []
    assert [s.finding.rule for s in report.suppressed] == ["REP304"]


def test_zero_io_in_core_fixture_is_clean() -> None:
    report = check(GOOD_IN_CORE, path="repro/core/in_core_psrs.py")
    assert codes(report) == []


def test_real_tree_is_cost_clean(project: Project) -> None:
    """The repo self-check: REP301..306 clean vs the checked-in baseline."""
    baseline = REPO_ROOT / COST_BASELINE_NAME
    assert baseline.is_file(), "cost-baseline.json must be checked in"
    project.cache[COST_BASELINE_KEY] = json.loads(
        baseline.read_text(encoding="utf-8")
    )
    assert run_project(project, COST_RULES).findings == []


def test_checked_in_baseline_matches_current_derivation(
    project: Project,
) -> None:
    on_disk = json.loads(
        (REPO_ROOT / COST_BASELINE_NAME).read_text(encoding="utf-8")
    )
    assert on_disk == json.loads(json.dumps(baseline_payload(project)))


# -- certification: measured <= derived(static) ------------------------------


def _meta(**overrides) -> RunMeta:
    base = dict(
        n_items=4096,
        perf=(1, 1, 2),
        memory_items=1024,
        block_items=64,
        oversample=4,
        d_duplicates=0,
        pivot_method="regular",
    )
    base.update(overrides)
    return RunMeta(**base)


def test_node_env_l_covers_portion_and_optimal_share() -> None:
    """The derived side's ``l`` covers the actual and the ideal share."""
    from repro.core.perf import PerfVector

    meta = _meta(n_items=4099)  # not a multiple of sum(perf)
    perf = PerfVector(list(meta.perf))
    portions = perf.portions(meta.n_items)
    for node, env in enumerate(node_envs(meta, cover_share=True)):
        assert env["l"] >= portions[node]
        assert env["l"] >= perf.optimal_share(meta.n_items, node)
        assert env["g"] == float(perf[node])


def test_node_env_auditor_side_binds_actual_portion() -> None:
    """The paper side's ``l`` is the portion; ``n*g/G`` is the share."""
    from repro.core.perf import PerfVector
    from repro.core.theory import IDEAL_SHARE

    meta = _meta(n_items=4099)
    perf = PerfVector(list(meta.perf))
    portions = perf.portions(meta.n_items)
    for node, env in enumerate(node_envs(meta)):
        assert env["l"] == portions[node]
        assert IDEAL_SHARE.eval(env) == perf.optimal_share(meta.n_items, node)


def test_certify_cells_verdicts() -> None:
    meta = _meta()
    exprs = {"1:local-sort": mul(Const(2.0), Sym("l"))}
    env = node_envs(meta, cover_share=True)[0]
    bound = 2.0 * env["l"]
    rounded = math.ceil(bound / meta.block_items) * meta.block_items
    ok_report = certify_cells(
        [("1:local-sort", 0, int(rounded))], meta, exprs=exprs
    )
    assert ok_report.ok and ok_report.rows[0].bound_items == rounded
    bad_report = certify_cells(
        [("1:local-sort", 0, int(rounded) + 1)], meta, exprs=exprs
    )
    assert not bad_report.ok and len(bad_report.violations) == 1


def test_certify_cells_missing_numbered_step_fails() -> None:
    """Missing or TOP: one ``missing_steps`` entry, no per-node rows."""
    cells = [("3:partition", node, 10) for node in range(3)]
    for exprs in ({}, {"3:partition": Top("no bound")}):
        report = certify_cells(cells, _meta(), exprs=exprs)
        assert report.missing_steps == ["3:partition"] and not report.ok
        assert report.rows == []
        assert "NO STATIC BOUND" in report.table().render()


def test_certify_cells_informational_rows() -> None:
    meta = _meta(pivot_method="quantile")
    exprs = {"1:local-sort": Sym("l")}
    report = certify_cells(
        [("2:pivots", 0, 5), ("1:local-sort", 99, 5)], meta, exprs=exprs
    )
    # quantile pivots and out-of-range nodes are info rows, not verdicts
    assert report.ok
    assert all(r.bound_items is None for r in report.rows)


def test_certify_bench_recorded_runs() -> None:
    results = certify_bench(REPO_ROOT / "BENCH_sort.json")
    assert results, "BENCH_sort.json must have runs"
    assert all(r.ok for r in results)
    certified = [r for r in results if r.report is not None]
    assert len(certified) >= 2  # the audited sizes certify, rest skip
    for r in certified:
        assert r.report.ok and r.report.rows


def test_certify_fuzz_corpus() -> None:
    results = certify_corpus(REPO_ROOT / "tests" / "data" / "fuzz_corpus")
    by_name = {r.name: r for r in results}
    assert all(r.ok for r in results)
    # fault-free replays certify; faulted/violation replays are skipped
    assert by_name["all-equal-tight-memory"].report is not None
    assert by_name["zipf-extreme-perf"].report is not None
    assert by_name["kill-step4-degraded"].skipped is not None
    assert by_name["tightened-slack-polyphase"].skipped is not None
