"""Per-function communication summaries for the protocol rules.

The simulation is *centralized*: one orchestrating function calls each
SimComm collective once with every rank's payload, and the SPMD "each
rank executes" structure shows up as per-rank loops (``for i in
range(p)``, ``for node in view.nodes``) and as rank-dependent branches
(``if i != leader``).  The extractor abstract-interprets each function
body into exactly that structure:

* a **rank-taint** environment (:class:`TaintEnv`): which names hold
  per-rank (SPMD-divergent) values, which hold *global* ranks (the
  pre-degradation constants REP206 cares about), which are view-like
  communicators, and which are rank collections;
* an ordered list of :class:`CommOp` — every
  ``send/gather/bcast/scatter/alltoallv/barrier`` call, every
  ``network.transfer``, and every step boundary (``with x.step(...)``
  or ``runner.run(view, "name", ...)``) — each annotated with its
  enclosing step name, rank-dependent branch conditions, branch path
  (for REP201's arm-sequence comparison) and enclosing per-rank /
  rank-trip-count loops;
* the rank-dependent branches themselves (:class:`RankBranch`) and any
  subscript of a view-collective result by a global-rank expression
  (the dynamic bug PR 5 found, generalized by REP206).

The rules in :mod:`repro.analysis.protocol.rules` are pure queries over
these summaries; the schema builder in
:mod:`repro.analysis.protocol.schema` re-uses the same op detection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from repro.analysis.flow.project import (
    COMM_OPS,
    FunctionInfo,
    Project,
    _is_runner_run,
    _is_step_with_item,
    call_root,
    name_chain,
)

#: Collectives proper (every rank participates; order must match).
COLLECTIVES = frozenset({"gather", "bcast", "scatter", "alltoallv"})

#: Conventional names for collections of *global* ranks (survivor sets).
_GRANK_COLLECTION_NAMES = frozenset(
    {"ranks", "active", "survivors", "active_ranks", "surviving"}
)

#: Conventional names for per-rank iterables in *position* space.
_RANK_COLLECTION_NAMES = frozenset({"group", "nodes", "positions"})


def comm_call_chain(call: ast.Call) -> Optional[list[str]]:
    """``["view", "comm", "gather"]`` for a SimComm op call, else None."""
    chain = name_chain(call.func)
    if (
        len(chain) >= 2
        and chain[-1] in COMM_OPS
        and any("comm" in part for part in chain[:-1])
    ):
        return chain
    return None


def barrier_call_chain(call: ast.Call) -> Optional[list[str]]:
    """``["view", "barrier"]`` for a barrier call with a receiver."""
    chain = name_chain(call.func)
    if len(chain) >= 2 and chain[-1] == "barrier":
        return chain
    return None


def transfer_call_chain(call: ast.Call) -> Optional[list[str]]:
    """``["cluster", "network", "transfer"]`` for a raw network charge."""
    chain = name_chain(call.func)
    if (
        len(chain) >= 2
        and chain[-1] == "transfer"
        and any("network" in part for part in chain[:-1])
    ):
        return chain
    return None


def step_literal(call: ast.Call) -> str:
    """Literal step name of a ``.step("x")`` / ``runner.run(v, "x", f)``."""
    args = call.args
    chain = name_chain(call.func)
    if chain and chain[-1] == "step":
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            return args[0].value
        return ""
    if len(args) >= 2 and isinstance(args[1], ast.Constant) and isinstance(args[1].value, str):
        return args[1].value
    return ""


# --------------------------------------------------------------------------
# Rank-taint environment
# --------------------------------------------------------------------------


def _scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` confined to one function scope (lambdas included,
    nested def/class bodies excluded)."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


@dataclass
class TaintEnv:
    """Which names hold what, inside one function body.

    ``rank_vars`` are SPMD-divergent values (per-rank loop variables and
    anything derived from them); ``grank_vars`` additionally hold
    *global* rank numbers, which are only safe communicator arguments on
    the full cluster — a degraded view indexes by position
    (``view.ranks.index(r)`` launders one into the other).
    """

    rank_vars: set[str] = field(default_factory=set)
    grank_vars: set[str] = field(default_factory=set)
    rank_collections: set[str] = field(default_factory=set)
    grank_collections: set[str] = field(default_factory=set)
    view_vars: set[str] = field(default_factory=set)
    view_comm_results: set[str] = field(default_factory=set)

    # -- classification ----------------------------------------------------

    def iter_kind(self, expr: ast.expr) -> str:
        """Classify an iterable: ``"rank"`` (positions), ``"grank"``
        (global ranks), or ``"other"``."""
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            if expr.generators:
                return self.iter_kind(expr.generators[0].iter)
            return "other"
        if isinstance(expr, ast.Name):
            if expr.id in self.grank_collections or expr.id in _GRANK_COLLECTION_NAMES:
                return "grank"
            if expr.id in self.rank_collections or expr.id in _RANK_COLLECTION_NAMES:
                return "rank"
            return "other"
        if isinstance(expr, ast.Call):
            fchain = name_chain(expr.func)
            tail = fchain[-1] if fchain else ""
            if tail == "range" and len(expr.args) == 1:
                arg = expr.args[0]
                achain = name_chain(arg)
                if achain and achain[-1] == "p":
                    return "rank"
                if (
                    isinstance(arg, ast.Call)
                    and name_chain(arg.func) == ["len"]
                    and arg.args
                    and self.iter_kind(arg.args[0]) != "other"
                ):
                    return "rank"
                return "other"
            if tail in ("enumerate", "zip", "sorted", "list", "tuple", "reversed", "set"):
                kinds = [self.iter_kind(a) for a in expr.args]
                if "grank" in kinds:
                    return "grank"
                if "rank" in kinds:
                    return "rank"
                return "other"
            return "other"
        chain = name_chain(expr)
        if chain:
            if chain[-1] == "ranks":
                return "grank"
            if chain[-1] == "nodes":
                return "rank"
        return "other"

    def is_rank_expr(self, expr: ast.expr) -> bool:
        """SPMD-divergent: differs across ranks at the same program point."""
        for node in _scope_nodes(expr):
            if isinstance(node, ast.Name) and node.id in self.rank_vars:
                return True
            if isinstance(node, ast.Attribute) and node.attr == "rank":
                return True
        return False

    def is_grank_expr(self, expr: ast.expr) -> bool:
        """Holds a *global* rank number (pre-degradation constant)."""
        if isinstance(expr, ast.Call):
            fchain = name_chain(expr.func)
            if fchain and fchain[-1] == "index":
                return False  # `.index(r)` launders a rank into a position
            return any(self.is_grank_expr(a) for a in expr.args)
        if isinstance(expr, ast.Name):
            return expr.id in self.grank_vars
        if isinstance(expr, ast.Attribute):
            if expr.attr == "rank":
                return True
            if expr.attr == "root":
                base = name_chain(expr.value)
                return bool(base) and any(
                    "config" in part or "cfg" in part for part in base
                )
            return False
        if isinstance(expr, ast.Subscript):
            base = expr.value
            return isinstance(base, ast.Name) and (
                base.id in self.grank_collections
                or base.id in _GRANK_COLLECTION_NAMES
            )
        if isinstance(expr, ast.IfExp):
            return self.is_grank_expr(expr.body) or self.is_grank_expr(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            return any(self.is_grank_expr(v) for v in expr.values)
        if isinstance(expr, ast.BinOp):
            return self.is_grank_expr(expr.left) or self.is_grank_expr(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.is_grank_expr(expr.operand)
        return False

    def is_view_receiver(self, chain: list[str]) -> bool:
        """True when a comm/barrier chain hangs off a degradable view."""
        return any(
            part in self.view_vars or "view" in part for part in chain[:-1]
        )


class _EnvBuilder:
    """Bounded fixpoint computing the taint sets for one function."""

    _MAX_PASSES = 5

    def __init__(self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.fn_node = fn_node
        self.env = TaintEnv()

    def build(self) -> TaintEnv:
        self._seed_params()
        for _ in range(self._MAX_PASSES):
            before = self._snapshot()
            for node in _scope_nodes(self.fn_node):
                self._visit(node)
            if self._snapshot() == before:
                break
        return self.env

    def _snapshot(self) -> tuple[frozenset[str], ...]:
        e = self.env
        return (
            frozenset(e.rank_vars),
            frozenset(e.grank_vars),
            frozenset(e.rank_collections),
            frozenset(e.grank_collections),
            frozenset(e.view_vars),
            frozenset(e.view_comm_results),
        )

    def _seed_params(self) -> None:
        a = self.fn_node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
        if a.vararg is not None:
            params.append(a.vararg)
        if a.kwarg is not None:
            params.append(a.kwarg)
        for p in params:
            nm = p.arg
            ann = ast.unparse(p.annotation) if p.annotation is not None else ""
            if nm == "view" or "View" in ann:
                self.env.view_vars.add(nm)
            if nm == "rank" or nm.endswith("_rank"):
                self.env.grank_vars.add(nm)
                self.env.rank_vars.add(nm)
            if nm in _GRANK_COLLECTION_NAMES or nm.endswith("_ranks"):
                self.env.grank_collections.add(nm)

    # -- one fixpoint pass ---------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind_loop(node.target, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                self._bind_loop(gen.target, gen.iter)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind_assign(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind_assign(node.target, node.value)
        elif isinstance(node, ast.NamedExpr):
            self._bind_assign(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            self._bind_assign(node.target, node.value)

    def _bind_loop(self, target: ast.expr, iter_expr: ast.expr) -> None:
        kind = self.env.iter_kind(iter_expr)
        if kind == "other":
            if self.env.is_rank_expr(iter_expr):
                self._bind_names(target, "rank")
            return
        fchain = name_chain(iter_expr.func) if isinstance(iter_expr, ast.Call) else []
        if (
            fchain
            and fchain[-1] == "enumerate"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            # `for pos, x in enumerate(ranks)`: the counter is a position.
            self._bind_names(target.elts[0], "rank")
            self._bind_names(target.elts[1], kind)
            return
        self._bind_names(target, kind)

    def _bind_names(self, target: ast.expr, kind: str) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.env.rank_vars.add(node.id)
                if kind == "grank":
                    self.env.grank_vars.add(node.id)

    def _bind_assign(self, target: ast.expr, value: ast.expr) -> None:
        names = [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        if not names:
            return
        if isinstance(value, ast.Call):
            chain = comm_call_chain(value)
            if chain is not None:
                # Collective results are the *shared* rendezvous values —
                # identical on every rank, so they clear nothing and taint
                # nothing; but a view-collective result is position-indexed.
                if self.env.is_view_receiver(chain):
                    self.env.view_comm_results.update(names)
                return
            fchain = name_chain(value.func)
            if len(fchain) >= 2 and fchain[-1] == "view":
                self.env.view_vars.update(names)
                return
        kind = self.env.iter_kind(value)
        if kind == "grank":
            self.env.grank_collections.update(names)
        elif kind == "rank":
            self.env.rank_collections.update(names)
        if self.env.is_grank_expr(value):
            self.env.grank_vars.update(names)
            self.env.rank_vars.update(names)
        elif self.env.is_rank_expr(value):
            self.env.rank_vars.update(names)


# --------------------------------------------------------------------------
# Communication ops and the summary walker
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _OpContext:
    """Lexical context flowing down the op walk."""

    step: Optional[str] = None  # innermost step name ("" = non-literal)
    rank_conds: tuple[ast.expr, ...] = ()
    branch_path: tuple[tuple[int, bool], ...] = ()
    per_rank_loop: Optional[ast.AST] = None
    tainted_loop: Optional[ast.AST] = None


@dataclass
class CommOp:
    """One communication operation (or step boundary) at a call site."""

    kind: str  # send|gather|bcast|scatter|alltoallv|barrier|transfer|step
    node: ast.AST
    chain: tuple[str, ...]
    on_view: bool
    step: Optional[str]
    step_name: Optional[str] = None  # for kind == "step"
    root: Optional[ast.expr] = None
    src: Optional[ast.expr] = None
    dst: Optional[ast.expr] = None
    rank_conds: tuple[ast.expr, ...] = ()
    branch_path: tuple[tuple[int, bool], ...] = ()
    per_rank_loop: Optional[ast.AST] = None
    tainted_loop: Optional[ast.AST] = None


@dataclass
class RankBranch:
    """An ``if`` whose test is rank-dependent (SPMD-divergent)."""

    node: ast.If
    test: ast.expr


@dataclass
class FunctionSummary:
    """The extracted communication protocol of one function."""

    fn: FunctionInfo
    env: TaintEnv
    ops: list[CommOp] = field(default_factory=list)
    branches: list[RankBranch] = field(default_factory=list)
    #: subscripts of a view-collective result by a global-rank expression
    view_index_sites: list[ast.Subscript] = field(default_factory=list)


class _OpWalker:
    """Collect :class:`CommOp` in source order with lexical context."""

    def __init__(self, summary: FunctionSummary) -> None:
        self.summary = summary
        self.env = summary.env

    def walk_function(self) -> None:
        ctx = _OpContext()
        for stmt in self.summary.fn.node.body:
            self._walk(stmt, ctx)

    def _walk_body(self, stmts: list[ast.stmt], ctx: _OpContext) -> None:
        for stmt in stmts:
            self._walk(stmt, ctx)

    def _walk(self, node: ast.AST, ctx: _OpContext) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarized on their own
        if isinstance(node, ast.Lambda):
            self._walk(node.body, ctx)
            return
        if isinstance(node, ast.If):
            self._walk(node.test, ctx)
            if self.env.is_rank_expr(node.test):
                self.summary.branches.append(RankBranch(node=node, test=node.test))
                then_ctx = replace(
                    ctx,
                    rank_conds=(*ctx.rank_conds, node.test),
                    branch_path=(*ctx.branch_path, (id(node), True)),
                )
                else_ctx = replace(
                    ctx,
                    rank_conds=(*ctx.rank_conds, node.test),
                    branch_path=(*ctx.branch_path, (id(node), False)),
                )
                self._walk_body(node.body, then_ctx)
                self._walk_body(node.orelse, else_ctx)
            else:
                self._walk_body(node.body, ctx)
                self._walk_body(node.orelse, ctx)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._walk(node.iter, ctx)
            body_ctx = ctx
            if self.env.iter_kind(node.iter) != "other":
                body_ctx = replace(ctx, per_rank_loop=node)
            elif self.env.is_rank_expr(node.iter):
                body_ctx = replace(ctx, tainted_loop=node)
            self._walk_body(node.body, body_ctx)
            self._walk_body(node.orelse, ctx)
            return
        if isinstance(node, ast.While):
            self._walk(node.test, ctx)
            body_ctx = (
                replace(ctx, tainted_loop=node)
                if self.env.is_rank_expr(node.test)
                else ctx
            )
            self._walk_body(node.body, body_ctx)
            self._walk_body(node.orelse, ctx)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            body_ctx = ctx
            for item in node.items:
                if _is_step_with_item(item) and isinstance(item.context_expr, ast.Call):
                    name = step_literal(item.context_expr)
                    self._emit_step(item.context_expr, name, ctx)
                    body_ctx = replace(body_ctx, step=name)
                self._walk(item.context_expr, ctx)
            self._walk_body(node.body, body_ctx)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, ctx)
            return
        if isinstance(node, ast.Subscript):
            self._check_view_index(node, ctx)
        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx)

    # -- call handling -------------------------------------------------------

    def _emit_step(self, node: ast.AST, name: str, ctx: _OpContext) -> None:
        self.summary.ops.append(
            CommOp(
                kind="step",
                node=node,
                chain=(),
                on_view=False,
                step=ctx.step,
                step_name=name,
                rank_conds=ctx.rank_conds,
                branch_path=ctx.branch_path,
                per_rank_loop=ctx.per_rank_loop,
                tainted_loop=ctx.tainted_loop,
            )
        )

    def _emit(self, kind: str, node: ast.Call, chain: list[str], ctx: _OpContext,
              *, root: Optional[ast.expr] = None, src: Optional[ast.expr] = None,
              dst: Optional[ast.expr] = None) -> None:
        self.summary.ops.append(
            CommOp(
                kind=kind,
                node=node,
                chain=tuple(chain),
                on_view=self.env.is_view_receiver(chain),
                step=ctx.step,
                root=root,
                src=src,
                dst=dst,
                rank_conds=ctx.rank_conds,
                branch_path=ctx.branch_path,
                per_rank_loop=ctx.per_rank_loop,
                tainted_loop=ctx.tainted_loop,
            )
        )

    def _visit_call(self, node: ast.Call, ctx: _OpContext) -> None:
        chain = comm_call_chain(node)
        if chain is not None:
            op = chain[-1]
            if op == "send":
                src = node.args[0] if len(node.args) >= 1 else None
                dst = node.args[1] if len(node.args) >= 2 else None
                self._emit("send", node, chain, ctx, src=src, dst=dst)
            else:
                self._emit(op, node, chain, ctx, root=call_root(node))
        elif barrier_call_chain(node) is not None:
            self._emit("barrier", node, barrier_call_chain(node), ctx)
        elif transfer_call_chain(node) is not None:
            src = node.args[0] if len(node.args) >= 1 else None
            dst = node.args[1] if len(node.args) >= 2 else None
            self._emit("transfer", node, transfer_call_chain(node), ctx,
                       src=src, dst=dst)
        elif _is_runner_run(node):
            name = step_literal(node)
            self._emit_step(node, name, ctx)
            step_ctx = replace(ctx, step=name)
            for i, arg in enumerate(node.args):
                # the runner executes its callable args inside the step
                self._walk(arg, step_ctx if i >= 2 else ctx)
            for kw in node.keywords:
                self._walk(kw.value, step_ctx)
            return
        for arg in node.args:
            self._walk(arg, ctx)
        for kw in node.keywords:
            self._walk(kw.value, ctx)
        if not isinstance(node.func, ast.Name):
            for child in ast.iter_child_nodes(node.func):
                self._walk(child, ctx)

    def _check_view_index(self, node: ast.Subscript, ctx: _OpContext) -> None:
        base = node.value
        base_is_view_result = (
            isinstance(base, ast.Name) and base.id in self.env.view_comm_results
        )
        if isinstance(base, ast.Call):
            chain = comm_call_chain(base)
            base_is_view_result = chain is not None and self.env.is_view_receiver(chain)
        if base_is_view_result and self.env.is_grank_expr(node.slice):
            self.summary.view_index_sites.append(node)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def summarize_function(fn: FunctionInfo) -> FunctionSummary:
    """Extract the communication summary of one function."""
    env = _EnvBuilder(fn.node).build()
    summary = FunctionSummary(fn=fn, env=env)
    _OpWalker(summary).walk_function()
    return summary


_CACHE_KEY = "protocol-summaries"


def protocol_summaries(project: Project) -> list[FunctionSummary]:
    """Summaries for every function in the project (cached on it)."""
    cached = project.cache.get(_CACHE_KEY)
    if cached is None:
        cached = [summarize_function(fn) for fn in project.functions.values()]
        project.cache[_CACHE_KEY] = cached
    return cached  # type: ignore[return-value]
