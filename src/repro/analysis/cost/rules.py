"""REP301..REP304 and REP306: symbolic I/O-cost certification rules.

All five rules are queries over the derived per-(algorithm, step) cost
model (:func:`repro.analysis.cost.interp.derive_costs`): the abstract
interpreter turns each registered entry point into symbolic per-step
item-I/O bounds, and the rules compare those bounds against the paper's
formulas (:mod:`repro.analysis.cost.paper`) and the three-pass
discipline.  REP305 (bound regression against a checked-in baseline) is
retired and its code is not reused: the derived bounds are pinned by
``tests/data/emitted_artifacts_golden.json``.

Findings anchor at the entry function (or the step's registration site)
in the algorithm's own module, so ``# noqa: REP30x`` directives work
exactly like every other lint pass.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.engine import Finding
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.flow.typestate import DeepRule

from repro.analysis.cost.charges import CONTRACTS, STEP_CONTRACTS
from repro.analysis.cost.interp import AlgorithmCosts, StepCost, derive_costs
from repro.analysis.cost.paper import PAPER_STEP_BOUNDS, paper_bound_for
from repro.pdm.sym import Const, dominates, sample_envs

#: Algorithm 1 allows at most this many full passes over a step's data.
MAX_SWEEPS = 3

#: Contracts that are intentionally I/O-free (or intentionally TOP) —
#: exempt from the REP306 dead-bound check on contracted functions.
_DEAD_BOUND_EXEMPT = frozenset({"partition_refs", "exact_quantile_pivots"})


def _fmt_env(env: dict[str, float]) -> str:
    keys = ("n", "p", "B", "M", "g", "G", "c", "d", "l", "r", "cm")
    return ", ".join(f"{k}={env[k]:g}" for k in keys if k in env)


class CostRule(DeepRule):
    """Base: derive (cached) costs once, iterate per algorithm."""

    scope = ("core/",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for costs in derive_costs(project).values():
            if not self.applies_to(costs.entry.module.relpath):
                continue
            yield from self.check_costs(project, costs)

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover

    def _finding(
        self, costs: AlgorithmCosts, step: Optional[StepCost], message: str
    ) -> Finding:
        node = step.node if step is not None else costs.entry.node
        return costs.entry.module.finding(
            self,
            node,
            f"{message} [{costs.algorithm}]",
        )


class DerivedExceedsPaperRule(CostRule):
    code = "REP301"
    name = "derived-bound-exceeds-paper-bound"
    summary = "a step's derived I/O bound exceeds the paper's formula"
    rationale = (
        "The certifier's contract is derived <= paper: the bound the "
        "abstract interpreter extracts from the code must be dominated "
        "by the formula the paper states for that step (checked "
        "numerically over the model-parameter sample grid).  A "
        "violation means the implementation performs more I/O than "
        "Algorithm 1's analysis allows — a cost bug the dynamic auditor "
        "only catches on inputs that happen to trigger it."
    )
    fix_hint = (
        "Remove the extra I/O (or tighten the loop that multiplies it); "
        "if the paper formula itself is being refined, update "
        "core/theory.py::step_bounds in the same change and say why."
    )

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        envs = sample_envs()
        for name, step in costs.steps.items():
            paper = paper_bound_for(costs.algorithm, name)
            if paper is None or not step.bounded:
                continue
            witness = dominates(step.expr, paper, envs)
            if witness is not None:
                yield self._finding(
                    costs,
                    step,
                    f"step {name!r}: derived bound {step.expr.render()} "
                    f"exceeds the paper bound {paper.render()} at "
                    f"({_fmt_env(witness)})",
                )


class UnboundedIORule(CostRule):
    code = "REP302"
    name = "unbounded-io-in-step"
    summary = "a TOP (unbounded) term escaped to a step's I/O bound"
    rationale = (
        "TOP is the interpreter's honest 'I cannot bound this': an "
        "underivable write size, a cursor read outside a contracted "
        "step, a guarded call that can charge I/O.  A step bound "
        "containing TOP certifies nothing — the step's I/O is "
        "statically unbounded until the code is restructured or a "
        "documented contract covers it."
    )
    fix_hint = (
        "Funnel the I/O through a contracted primitive "
        "(analysis/cost/charges.py), or make the charged size derivable "
        "(pass the payload straight from a tracked collection)."
    )

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        for name, step in list(costs.steps.items()) + [
            ("<outside>", costs.outside)
        ]:
            for line, reason in step.escapes:
                where = (
                    f"step {name!r}" if name != "<outside>"
                    else "outside any step"
                )
                yield self._finding(
                    costs, step, f"{where}: unbounded I/O at line {line}: "
                    f"{reason}",
                )


class ExtraPassRule(CostRule):
    code = "REP303"
    name = "extra-pass"
    summary = "a step makes more than three passes over its data"
    rationale = (
        "The paper's constant-factor claim is that no step reads+writes "
        "its data more than three times (run formation, one merge "
        "sweep, and a materialising copy are the budget).  Sweep counts "
        "come from the contracts' documented pass counts, so an excess "
        "here means a step composes more full-data primitives than "
        "Algorithm 1 performs."
    )
    fix_hint = (
        "Fuse passes (partition during the final merge sweep, stream "
        "instead of materialising) or split the work across steps."
    )

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        for name, step in costs.steps.items():
            if step.sweeps > MAX_SWEEPS:
                yield self._finding(
                    costs,
                    step,
                    f"step {name!r} makes {step.sweeps} passes over its "
                    f"data (the paper allows {MAX_SWEEPS})",
                )


class UnboundedLoopIORule(CostRule):
    code = "REP304"
    name = "io-outside-derivable-loop-bound"
    summary = "an I/O charge sits in a loop with no derivable bound"
    rationale = (
        "Every charge site must be covered by a derivable loop bound "
        "(over nodes, blocks, runs or samples) for the product to be a "
        "closed form.  A charge under a while-loop or a data-dependent "
        "iterable the range analysis cannot bound silently widens the "
        "whole step to TOP."
    )
    fix_hint = (
        "Loop over a counted range (blocks = ceil(l/B), runs, nodes), "
        "or cover the loop with a step contract documenting why its "
        "receiver-driven bound is sound."
    )

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        for name, step in list(costs.steps.items()) + [
            ("<outside>", costs.outside)
        ]:
            for line, reason in step.unbounded:
                where = (
                    f"step {name!r}" if name != "<outside>"
                    else "outside any step"
                )
                yield self._finding(
                    costs,
                    step,
                    f"{where}: I/O charge at line {line} is not covered "
                    f"by a derivable loop bound ({reason})",
                )


class DeadBoundRule(CostRule):
    code = "REP306"
    name = "dead-bound"
    summary = "a cost formula has no corresponding charge site (vacuous)"
    rationale = (
        "A bound proves nothing if the code it describes performs no "
        "accountable I/O: a paper formula for a step that never reaches "
        "a charge site, a numbered step that vanished from the entry "
        "point, or a contracted primitive whose body no longer touches "
        "the block layer all certify vacuously — usually a sign the "
        "charge sites moved and the trusted base went stale."
    )
    fix_hint = (
        "Re-point the contract/paper table at the real charge sites, or "
        "delete the stale formula so the certifier's trusted base stays "
        "minimal."
    )

    def check_costs(
        self, project: Project, costs: AlgorithmCosts
    ) -> Iterator[Finding]:
        table = PAPER_STEP_BOUNDS.get(costs.algorithm)
        if table is not None:
            for name, paper in table.items():
                is_zero = isinstance(paper, Const) and paper.value == 0.0
                if not is_zero:
                    step = costs.steps.get(name)
                    if step is None:
                        yield self._finding(
                            costs,
                            None,
                            f"paper formula for step {name!r} but the "
                            "entry point registers no such step",
                        )
                    elif not step.reaches_charge:
                        yield self._finding(
                            costs,
                            step,
                            f"step {name!r} has a paper formula but its "
                            "body reaches no charge site (vacuous bound)",
                        )
        for (algo, name), _contract in STEP_CONTRACTS.items():
            if algo != costs.algorithm:
                continue
            step = costs.steps.get(name)
            if step is not None and not step.reaches_charge:
                yield self._finding(
                    costs,
                    step,
                    f"step contract for {name!r} but the step body "
                    "reaches no charge site (vacuous bound)",
                )

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from super().check_project(project)
        yield from self._dead_contracts(project)

    def _dead_contracts(self, project: Project) -> Iterator[Finding]:
        by_tail: dict[str, list[FunctionInfo]] = {}
        for fn in project.functions.values():
            by_tail.setdefault(fn.qualname.split(".")[-1], []).append(fn)
        for cname in sorted(CONTRACTS):
            if cname in _DEAD_BOUND_EXEMPT:
                continue
            for fn in by_tail.get(cname, ()):
                if not self.applies_to(fn.module.relpath):
                    continue
                if not project.fn_reaches_charge(fn):
                    yield fn.module.finding(
                        self,
                        fn.node,
                        f"contracted primitive {cname}() reaches no "
                        "charge site; its cost formula is vacuous",
                    )
