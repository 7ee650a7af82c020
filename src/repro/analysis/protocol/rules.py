"""REP201..REP206: static communication-protocol conformance rules.

All six rules are queries over the per-function
:class:`~repro.analysis.protocol.extract.FunctionSummary` model: the
extractor maps the centralized simulation's per-rank loops and
rank-dependent branches back onto the SPMD execution each rank would
perform, and the rules flag the shapes that deadlock (or address the
wrong node) once the lockstep barrier loop is replaced by an
event-driven scheduler or a real MPI backend.

Point-to-point ``send`` is exempt from the order rules (REP201/REP204):
in an SPMD program sends legitimately run on a sender-dependent subset
of ranks; what must match everywhere is the *collective* schedule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding
from repro.analysis.flow.typestate import DeepRule
from repro.analysis.protocol.extract import (
    COLLECTIVES,
    CommOp,
    FunctionSummary,
    Project,
    protocol_summaries,
)

#: Modules whose communication schedule the verifier polices.
PROTOCOL_SCOPE = ("core/", "extsort/", "faults/")


def _cond_text(op_or_test: "CommOp | ast.expr") -> str:
    if isinstance(op_or_test, CommOp):
        return ", ".join(ast.unparse(c) for c in op_or_test.rank_conds)
    return ast.unparse(op_or_test)


class ProtocolRule(DeepRule):
    """Base: iterate in-scope function summaries."""

    scope = PROTOCOL_SCOPE

    def check_project(self, project: Project) -> Iterator[Finding]:
        for summary in protocol_summaries(project):
            if not self.applies_to(summary.fn.module.relpath):
                continue
            yield from self.check_summary(summary)

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover

    def _finding(self, summary: FunctionSummary, node: ast.AST, message: str) -> Finding:
        return summary.fn.module.finding(
            self,
            node,
            f"{message} [in {summary.fn.qualname}()]",
        )


class CollectiveOrderRule(ProtocolRule):
    code = "REP201"
    name = "collective-order-divergence"
    summary = "rank-dependent branch arms issue different collective sequences"
    rationale = (
        "A collective is a rendezvous of every rank.  If a branch whose "
        "condition differs across ranks (e.g. `if i != leader`) issues "
        "gather/bcast/scatter/alltoallv in one arm but not (or in a "
        "different order) in the other, some ranks arrive at a collective "
        "the others never post — a deadlock under asynchronous execution, "
        "silently absorbed today only by the centralized BSP simulation."
    )
    fix_hint = (
        "Hoist collectives out of rank-dependent branches; keep only "
        "per-rank payload preparation (and point-to-point sends) inside."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        for branch in summary.branches:
            then_seq = self._arm(summary, branch.node, True)
            else_seq = self._arm(summary, branch.node, False)
            if then_seq != else_seq:
                yield self._finding(
                    summary,
                    branch.node,
                    f"branch on rank-dependent `{_cond_text(branch.test)}` "
                    f"issues collectives {then_seq or ['<none>']} in one arm "
                    f"vs {else_seq or ['<none>']} in the other",
                )

    @staticmethod
    def _arm(summary: FunctionSummary, if_node: ast.If, arm: bool) -> list[str]:
        key = (id(if_node), arm)
        return [
            op.kind
            for op in summary.ops
            if op.kind in COLLECTIVES and key in op.branch_path
        ]


class RootMismatchRule(ProtocolRule):
    code = "REP202"
    name = "root-mismatch"
    summary = "collective root argument can differ across ranks"
    rationale = (
        "gather/bcast/scatter must name the same root on every rank.  A "
        "root expression derived from a per-rank loop variable (or any "
        "SPMD-divergent value) means different ranks would address "
        "different roots — in MPI that is undefined behaviour; here it "
        "charges the wrong links and converges only by accident."
    )
    fix_hint = (
        "Compute the root once from shared state (e.g. "
        "`view.ranks.index(config.root)`) before any per-rank loop."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        for op in summary.ops:
            if op.kind not in ("gather", "bcast", "scatter") or op.root is None:
                continue
            if summary.env.is_rank_expr(op.root):
                yield self._finding(
                    summary,
                    op.node,
                    f"{op.kind} root `{ast.unparse(op.root)}` is "
                    "rank-dependent; every rank must name the same root",
                )


class SelfSendRule(ProtocolRule):
    code = "REP203"
    name = "unmatched-send"
    summary = "point-to-point send with no distinct receiver (self-send)"
    rationale = (
        "comm.send(src, dst) models a rendezvous between two *different* "
        "ranks.  A definite self-send (src == dst syntactically or as "
        "constants) transfers nothing in the network model (same-host "
        "moves are free) — the code believes data crossed the network "
        "when it did not, and on a real backend it deadlocks a "
        "synchronous send.  (The converse unmatched case — a receiver "
        "copy that is dropped — is REP104's cross-node-escape check.)"
    )
    fix_hint = (
        "Guard the send with `if src != dst:` (use the local array "
        "directly on the self path), or compute a distinct destination."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        for op in summary.ops:
            if op.kind != "send" or op.src is None or op.dst is None:
                continue
            if self._definitely_equal(op.src, op.dst):
                # a self-send guarded by `if src != dst` is unreachable
                guard = any(
                    self._guards_inequality(c, op.src, op.dst)
                    for c in op.rank_conds
                )
                if not guard:
                    yield self._finding(
                        summary,
                        op.node,
                        f"send from `{ast.unparse(op.src)}` to "
                        f"`{ast.unparse(op.dst)}` is a definite self-send",
                    )

    @staticmethod
    def _definitely_equal(a: ast.expr, b: ast.expr) -> bool:
        if (
            isinstance(a, ast.Constant)
            and isinstance(b, ast.Constant)
            and isinstance(a.value, int)
            and isinstance(b.value, int)
        ):
            return a.value == b.value
        return ast.unparse(a) == ast.unparse(b)

    @staticmethod
    def _guards_inequality(cond: ast.expr, a: ast.expr, b: ast.expr) -> bool:
        """True for an enclosing ``a != b`` / ``b != a`` test."""
        if not (isinstance(cond, ast.Compare) and len(cond.ops) == 1):
            return False
        if not isinstance(cond.ops[0], ast.NotEq):
            return False
        left, right = ast.unparse(cond.left), ast.unparse(cond.comparators[0])
        sa, sb = ast.unparse(a), ast.unparse(b)
        return {left, right} == {sa, sb}


class CollectiveInRankLoopRule(ProtocolRule):
    code = "REP204"
    name = "collective-in-rank-loop"
    summary = "collective issued inside a per-rank (or rank-trip-count) loop"
    rationale = (
        "A loop over ranks is the SPMD expansion of 'each rank does X'; "
        "a collective inside it executes p times globally but would "
        "execute a *rank-dependent* number of times per rank in a real "
        "SPMD program (each rank only iterates once as itself) — the "
        "schedules cannot line up.  The same holds for any loop whose "
        "trip count is rank-dependent."
    )
    fix_hint = (
        "Build per-rank payload lists inside the loop and issue one "
        "collective after it (gather/alltoallv take the whole list)."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        for op in summary.ops:
            if op.kind not in COLLECTIVES:
                continue
            if op.per_rank_loop is not None:
                yield self._finding(
                    summary, op.node,
                    f"{op.kind} inside a per-rank loop runs once per rank "
                    "instead of once per superstep",
                )
            elif op.tainted_loop is not None:
                yield self._finding(
                    summary, op.node,
                    f"{op.kind} inside a loop with a rank-dependent trip "
                    "count gives each rank a different collective schedule",
                )


class BarrierConsistencyRule(ProtocolRule):
    code = "REP205"
    name = "barrier-inconsistency"
    summary = "barrier or step boundary reachable on a rank-dependent subset"
    rationale = (
        "Barriers and step boundaries are the superstep skeleton: every "
        "rank must reach every one of them, in the same order.  A "
        "barrier (or `with x.step(...)` / `runner.run(...)`) under a "
        "rank-dependent condition or inside a per-rank loop means some "
        "ranks wait at a barrier the others never enter."
    )
    fix_hint = (
        "Move the barrier/step boundary to straight-line orchestration "
        "code; branch only on shared (rank-independent) state."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        for op in summary.ops:
            if op.kind not in ("barrier", "step"):
                continue
            what = "barrier" if op.kind == "barrier" else (
                f"step boundary {op.step_name!r}" if op.step_name
                else "step boundary"
            )
            if op.rank_conds:
                yield self._finding(
                    summary, op.node,
                    f"{what} is conditional on rank-dependent "
                    f"`{_cond_text(op)}`",
                )
            elif op.per_rank_loop is not None or op.tainted_loop is not None:
                yield self._finding(
                    summary, op.node,
                    f"{what} inside a per-rank loop is entered a "
                    "rank-dependent number of times",
                )


class DegradedViewRankRule(ProtocolRule):
    code = "REP206"
    name = "degraded-view-rank"
    summary = "view communication addressed by a global (pre-degradation) rank"
    rationale = (
        "A ClusterView's communicator numbers ranks by *position* in its "
        "survivor list, while nodes keep their global ranks.  Passing a "
        "global rank (a `.rank` attribute, a survivor-set element, a "
        "config constant) as a view collective's root/src/dst — or "
        "indexing a view-collective result with one — addresses the "
        "wrong node as soon as the view is degraded.  PR 4 and PR 5 "
        "each found one of these dynamically; this rule is the static "
        "generalization."
    )
    fix_hint = (
        "Translate with `view.ranks.index(global_rank)` first (or "
        "enumerate positions directly and keep global ranks out of "
        "communicator arguments)."
    )

    def check_summary(self, summary: FunctionSummary) -> Iterator[Finding]:
        env = summary.env
        for op in summary.ops:
            if not op.on_view or op.kind not in ("send", "gather", "bcast", "scatter"):
                continue
            for label, arg in (("root", op.root), ("src", op.src), ("dst", op.dst)):
                if arg is not None and env.is_grank_expr(arg):
                    yield self._finding(
                        summary, op.node,
                        f"{op.kind} {label} `{ast.unparse(arg)}` is a "
                        "global rank, but a view communicator indexes by "
                        "position in the survivor list",
                    )
        for sub in summary.view_index_sites:
            yield self._finding(
                summary, sub,
                f"view-collective result indexed by global rank "
                f"`{ast.unparse(sub.slice)}`; results are ordered by "
                "view position",
            )
