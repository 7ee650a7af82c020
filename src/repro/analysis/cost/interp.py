"""Abstract interpreter: symbolic per-(step, node) I/O bounds.

:class:`CostInterpreter` symbolically executes one registered algorithm
entry point (the same ``KNOWN_ENTRIES`` the protocol schema extractor
uses) over the flow engine's :class:`~repro.analysis.flow.project.Project`
call graph, and derives a closed-form upper bound on charged item I/O
per (step, node) in the model symbols of :mod:`repro.pdm.sym`.

The derivation is a single forward walk of the entry function:

* **values** — scalar locals (``p = cluster.p``, ``want = max(1, ...)``)
  are tracked as symbolic expressions, so loop counts like DeWitt's
  sampled-block bound come straight out of the code;
* **sizes** — collection-typed locals carry a symbolic *per-node
  payload* (``inputs`` starts at ``l``, redistribution's ``size_out``
  turns it into ``2l + d``), threaded through assignments,
  comprehensions, subscripts and ``.append``;
* **loops** — a loop over the node list contributes its body once (the
  derived bound is the per-node view); a counted loop multiplies by its
  derived count; a loop with no derivable count and a non-zero body
  widens to :class:`~repro.pdm.sym.Top` and records the REP304
  anchors;
* **charges** — calls to the sanctioned block-I/O primitives
  (:data:`~repro.analysis.flow.project.CHARGED_METHODS`) charge
  directly; calls to contracted engine primitives
  (:data:`~repro.analysis.cost.charges.CONTRACTS`) charge their
  documented formula; a few receiver-driven steps take a whole-step
  contract (:data:`~repro.analysis.cost.charges.STEP_CONTRACTS`);
* **steps** — ``with cluster.step("...")`` bodies and callables
  registered through a ``StepRunner.run(view, "...", fn)`` call are
  attributed to their step name (f-string names widen to a ``*``
  wildcard, e.g. hyperquicksort's ``level-*``).

Branches that fold under the default configuration
(:data:`_CONFIG_DEFAULTS`) take only the live arm; symbolic branches
take the ``max`` of both arms and mark steps registered inside them
``optional``.  Call inlining is depth- and recursion-guarded: a guarded
call that can transitively reach a charge site widens to ``Top``
(recorded as a REP302 escape), one that cannot costs zero.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.analysis.engine import AnalysisError
from repro.analysis.flow.project import (
    CHARGED_METHODS,
    FunctionInfo,
    ModuleInfo,
    Project,
    _is_runner_run,
    _is_step_with_item,
    name_chain,
)
from repro.analysis.protocol.schema import KNOWN_ENTRIES

from repro.analysis.cost.charges import contract_for, step_contract_for
from repro.pdm.sym import (
    ONE,
    ZERO,
    Const,
    Div,
    Expr,
    Sym,
    Top,
    add,
    ceil,
    emax,
    emin,
    find_tops,
    mul,
    simplify,
)

#: Inline depth guard (parity with the schema extractor's discovery depth).
MAX_DEPTH = 8

#: Default configuration the certifier derives under — the paper-faithful
#: settings of ``PSRSConfig``/``DeWittConfig``.  Branches testing these
#: attributes fold to the live arm; anything else stays symbolic.
_CONFIG_DEFAULTS: dict[str, object] = {
    "pivot_method": "regular",
    "materialize_partitions": True,
    "run_policy": "load",
}


def _is_zero(expr: Expr) -> bool:
    return isinstance(expr, Const) and expr.value == 0.0


@dataclass
class VarInfo:
    """What the interpreter knows about one bound name.

    ``size`` is the symbolic per-node payload of a collection (items),
    ``count`` its element count, ``value`` a scalar's symbolic value.
    ``kind`` tags the handful of structurally special objects (the
    cluster/view, the perf vector, the node list, zip/enumerate/range
    values); ``parts`` carries per-position element info for tuple-ish
    values; ``fn``/``closure`` bind locally defined functions.
    """

    size: Optional[Expr] = None
    count: Optional[Expr] = None
    value: Optional[Expr] = None
    kind: str = ""
    fn: Optional[FunctionInfo] = None
    closure: Optional["Frame"] = None
    parts: Optional[list["VarInfo"]] = None


class Frame:
    """A lexical scope: name -> :class:`VarInfo`, chained to its parent."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Frame"] = None) -> None:
        self.vars: dict[str, VarInfo] = {}
        self.parent = parent

    def lookup(self, name: str) -> Optional[VarInfo]:
        frame: Optional[Frame] = self
        while frame is not None:
            if name in frame.vars:
                return frame.vars[name]
            frame = frame.parent
        return None

    def bind(self, name: str, info: VarInfo) -> None:
        self.vars[name] = info


@dataclass
class _IterSpec:
    """How a loop iterable behaves: element shape, node-ness, count."""

    element: VarInfo
    per_node: bool = False
    count: Optional[Expr] = None


@dataclass
class _Ctx:
    """Accumulator for one step (or the outside-any-step remainder)."""

    name: str
    lineno: int
    sweeps: int = 0
    charge_lines: list[int] = field(default_factory=list)
    unbounded: list[tuple[int, str]] = field(default_factory=list)
    escapes: list[tuple[int, str]] = field(default_factory=list)
    contracts_used: list[str] = field(default_factory=list)
    contracted: bool = False
    note: str = ""


@dataclass(frozen=True)
class StepCost:
    """The derived bound and provenance for one (algorithm, step)."""

    name: str
    expr: Expr
    sweeps: int
    lineno: int
    module: ModuleInfo
    node: ast.AST
    contracted: bool
    contracts_used: tuple[str, ...]
    charge_lines: tuple[int, ...]
    unbounded: tuple[tuple[int, str], ...]
    escapes: tuple[tuple[int, str], ...]
    may_repeat: bool
    optional: bool
    reaches_charge: bool
    note: str = ""

    @property
    def bounded(self) -> bool:
        """True when the derived expression contains no ``Top``."""
        return not find_tops(self.expr)

    def to_dict(self) -> dict[str, object]:
        return {
            "step": self.name,
            "expr": self.expr.to_dict(),
            "rendered": self.expr.render(),
            "sweeps": self.sweeps,
            "line": self.lineno,
            "contracted": self.contracted,
            "contracts": list(self.contracts_used),
            "charge_lines": list(self.charge_lines),
            "may_repeat": self.may_repeat,
            "optional": self.optional,
            "reaches_charge": self.reaches_charge,
            "note": self.note,
        }


@dataclass(frozen=True)
class AlgorithmCosts:
    """All derived step bounds of one registered entry algorithm."""

    algorithm: str
    entry_key: str
    entry: FunctionInfo
    steps: dict[str, StepCost]
    outside: StepCost

    def to_dict(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "entry": self.entry_key,
            "steps": {name: sc.to_dict() for name, sc in self.steps.items()},
            "outside": self.outside.to_dict(),
        }


@dataclass(frozen=True)
class _Walk:
    """Immutable walk state threaded through the interpreter."""

    frame: Frame
    ctx: _Ctx
    depth: int
    visited: frozenset[str]
    ret: tuple[list[VarInfo], ...]  # one-slot mutable return holder
    in_loop: bool = False
    per_node: bool = False
    optional: bool = False


def _literal_step_name(node: ast.expr) -> str:
    """Step-name literal; f-string holes widen to ``*`` (``level-*``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return "*"


def _seed_param(name: str) -> VarInfo:
    """Symbolic binding for an entry-point parameter, by name."""
    if name in ("cluster", "view"):
        return VarInfo(kind="cluster")
    if name in ("perf", "aperf"):
        return VarInfo(kind="perf")
    if name == "portions":
        return VarInfo(size=Sym("l"), count=Sym("p"), kind="portions")
    if name in ("inputs", "files", "sorted_files", "data"):
        return VarInfo(size=Sym("l"), count=Sym("p"), kind="files")
    if name in ("config", "cfg"):
        return VarInfo(kind="config")
    if name == "oversample":
        return VarInfo(value=Sym("c"))
    if name == "block_items":
        return VarInfo(value=Sym("B"))
    if name == "message_items":
        return VarInfo(value=Sym("cm"))
    if name == "rng":
        return VarInfo(kind="rng")
    if name == "runner":
        return VarInfo(kind="runner")
    return VarInfo()


class CostInterpreter:
    """Derive :class:`AlgorithmCosts` for one registered entry point."""

    def __init__(self, project: Project, algorithm: str, entry_key: str) -> None:
        entry = project.functions.get(entry_key)
        if entry is None:
            raise AnalysisError(
                f"cost entry {entry_key!r} ({algorithm}) not found in project"
            )
        self.project = project
        self.algorithm = algorithm
        self.entry_key = entry_key
        self.entry = entry
        self.steps: dict[str, StepCost] = {}
        self._callee_by_node = project.callee_map
        self._fn_by_def: dict[int, FunctionInfo] = {
            id(fn.node): fn for fn in project.functions.values()
        }

    # -- public entry ---------------------------------------------------------

    def derive(self) -> AlgorithmCosts:
        frame = Frame()
        args = self.entry.node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            frame.bind(a.arg, _seed_param(a.arg))
        outside = _Ctx(name="<outside>", lineno=self.entry.node.lineno)
        w = _Walk(
            frame=frame,
            ctx=outside,
            depth=0,
            visited=frozenset({self.entry.key}),
            ret=([VarInfo()],),
        )
        cost = self._stmts(self.entry.node.body, w)
        outside_cost = self._finish(
            outside, simplify(cost), self.entry.node, may_repeat=False,
            optional=False, reaches=bool(outside.charge_lines),
        )
        return AlgorithmCosts(
            algorithm=self.algorithm,
            entry_key=self.entry_key,
            entry=self.entry,
            steps=self.steps,
            outside=outside_cost,
        )

    # -- statements -----------------------------------------------------------

    def _stmts(self, body: Sequence[ast.stmt], w: _Walk) -> Expr:
        parts = [self._stmt(stmt, w) for stmt in body]
        return add(*parts) if parts else ZERO

    def _stmt(self, node: ast.stmt, w: _Walk) -> Expr:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = self._fn_by_def.get(id(node))
            if fn is not None:
                w.frame.bind(
                    node.name, VarInfo(kind="function", fn=fn, closure=w.frame)
                )
            return ZERO
        if isinstance(node, ast.Return):
            if node.value is None:
                return ZERO
            cost, info = self._eval(node.value, w)
            w.ret[0][0] = info
            return cost
        if isinstance(node, ast.Assign):
            cost, info = self._eval(node.value, w)
            for target in node.targets:
                self._bind_target(target, info, w.frame)
            return cost
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return ZERO
            cost, info = self._eval(node.value, w)
            self._bind_target(node.target, info, w.frame)
            return cost
        if isinstance(node, ast.AugAssign):
            cost, _info = self._eval(node.value, w)
            if isinstance(node.target, ast.Name):
                prev = w.frame.lookup(node.target.id)
                val = self._value_of(node.value, w.frame)
                if (
                    prev is not None
                    and prev.value is not None
                    and val is not None
                    and isinstance(node.op, ast.Add)
                ):
                    w.frame.bind(
                        node.target.id, VarInfo(value=add(prev.value, val))
                    )
                else:
                    w.frame.bind(node.target.id, VarInfo())
            return cost
        if isinstance(node, ast.Expr):
            return self._eval(node.value, w)[0]
        if isinstance(node, ast.If):
            return self._if(node, w)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(node, w)
        if isinstance(node, ast.While):
            return self._while(node, w)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, w)
        if isinstance(node, ast.Try):
            cost = self._stmts(node.body, w)
            wopt = replace(w, optional=True)
            for handler in node.handlers:
                cost = add(cost, self._stmts(handler.body, wopt))
            cost = add(cost, self._stmts(node.orelse, w))
            return add(cost, self._stmts(node.finalbody, w))
        if isinstance(node, ast.Raise):
            return self._eval(node.exc, w)[0] if node.exc is not None else ZERO
        if isinstance(node, ast.Assert):
            return self._eval(node.test, w)[0]
        if isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    w.frame.bind(t.id, VarInfo())
            return ZERO
        # ClassDef, Import, Pass, Break, Continue, Global, Nonlocal, ...
        return ZERO

    def _if(self, node: ast.If, w: _Walk) -> Expr:
        test_cost = self._eval(node.test, w)[0]
        folded = self._fold_test(node.test, w.frame)
        if folded is True:
            return add(test_cost, self._stmts(node.body, w))
        if folded is False:
            return add(test_cost, self._stmts(node.orelse, w))
        wopt = replace(w, optional=True)
        then_cost = self._stmts(node.body, wopt)
        else_cost = self._stmts(node.orelse, wopt)
        return add(test_cost, emax(then_cost, else_cost))

    def _for(self, node: "ast.For | ast.AsyncFor", w: _Walk) -> Expr:
        iter_cost, iter_info = self._eval(node.iter, w)
        spec = self._spec_of_info(iter_info)
        self._bind_target(node.target, spec.element, w.frame)
        mark = len(w.ctx.charge_lines)
        inner = replace(w, in_loop=True, per_node=w.per_node or spec.per_node)
        body = add(self._stmts(node.body, inner), self._stmts(node.orelse, inner))
        return add(iter_cost, self._multiply(body, spec, node, w, mark))

    def _multiply(
        self,
        body: Expr,
        spec: _IterSpec,
        node: ast.stmt,
        w: _Walk,
        mark: int,
    ) -> Expr:
        if _is_zero(body):
            return ZERO
        if spec.per_node and not w.per_node:
            # Looping over the node list IS the per-(step, node) view.
            return body
        count = spec.count
        if count is not None:
            return mul(count, body)
        reason = f"loop at line {node.lineno} has no derivable bound"
        anchors = w.ctx.charge_lines[mark:] or [node.lineno]
        for line in anchors:
            w.ctx.unbounded.append((line, reason))
        return Top(reason)

    def _while(self, node: ast.While, w: _Walk) -> Expr:
        test_cost = self._eval(node.test, w)[0]
        mark = len(w.ctx.charge_lines)
        inner = replace(w, in_loop=True)
        body = add(self._stmts(node.body, inner), self._stmts(node.orelse, inner))
        if _is_zero(body):
            return test_cost
        reason = f"while-loop at line {node.lineno} has no derivable bound"
        anchors = w.ctx.charge_lines[mark:] or [node.lineno]
        for line in anchors:
            w.ctx.unbounded.append((line, reason))
        return add(test_cost, Top(reason))

    def _with(self, node: "ast.With | ast.AsyncWith", w: _Walk) -> Expr:
        step_item = next(
            (it for it in node.items if _is_step_with_item(it)), None
        )
        cost = ZERO
        for item in node.items:
            if item is step_item:
                continue
            item_cost, item_info = self._eval(item.context_expr, w)
            cost = add(cost, item_cost)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, item_info, w.frame)
        if step_item is None:
            return add(cost, self._stmts(node.body, w))
        ctx_expr = step_item.context_expr
        assert isinstance(ctx_expr, ast.Call)
        name = (
            _literal_step_name(ctx_expr.args[0]) if ctx_expr.args else "*"
        )

        def walker(ws: _Walk) -> Expr:
            # step bodies bind into the enclosing frame on purpose:
            # later steps read names the earlier steps defined.
            return self._stmts(node.body, ws)

        self._register_step(name, node, w, walker, list(node.body))
        return cost

    # -- step registration ----------------------------------------------------

    def _register_step(
        self,
        name: str,
        anchor: ast.AST,
        w: _Walk,
        walker: Callable[[_Walk], Expr],
        body_nodes: Sequence[ast.AST],
    ) -> None:
        ctx = _Ctx(name=name, lineno=getattr(anchor, "lineno", 0))
        contract = step_contract_for(self.algorithm, name)
        if contract is not None:
            expr = contract.expr
            ctx.sweeps = contract.sweeps
            ctx.contracted = True
            ctx.note = contract.doc
            for top in find_tops(expr):
                ctx.escapes.append((ctx.lineno, top.reason or name))
        else:
            wstep = replace(w, ctx=ctx, per_node=False, in_loop=False)
            expr = simplify(walker(wstep))
        reaches = self._nodes_reach_charge(body_nodes, w.frame)
        step = self._finish(
            ctx, expr, anchor, may_repeat=w.in_loop, optional=w.optional,
            reaches=reaches,
        )
        prev = self.steps.get(name)
        if prev is None:
            self.steps[name] = step
        else:
            self.steps[name] = replace(
                prev,
                expr=emax(prev.expr, step.expr),
                sweeps=max(prev.sweeps, step.sweeps),
                charge_lines=prev.charge_lines + step.charge_lines,
                unbounded=prev.unbounded + step.unbounded,
                escapes=prev.escapes + step.escapes,
                contracts_used=prev.contracts_used + step.contracts_used,
                may_repeat=True,
                optional=prev.optional and step.optional,
                reaches_charge=prev.reaches_charge or step.reaches_charge,
            )

    def _finish(
        self,
        ctx: _Ctx,
        expr: Expr,
        anchor: ast.AST,
        *,
        may_repeat: bool,
        optional: bool,
        reaches: bool,
    ) -> StepCost:
        return StepCost(
            name=ctx.name,
            expr=expr,
            sweeps=ctx.sweeps,
            lineno=ctx.lineno,
            module=self.entry.module,
            node=anchor,
            contracted=ctx.contracted,
            contracts_used=tuple(ctx.contracts_used),
            charge_lines=tuple(ctx.charge_lines),
            unbounded=tuple(ctx.unbounded),
            escapes=tuple(ctx.escapes),
            may_repeat=may_repeat,
            optional=optional,
            reaches_charge=reaches,
            note=ctx.note,
        )

    # -- expressions ----------------------------------------------------------

    def _eval(self, node: ast.expr, w: _Walk) -> tuple[Expr, VarInfo]:
        if isinstance(node, ast.Call):
            return self._call(node, w)
        if isinstance(node, ast.Name):
            info = w.frame.lookup(node.id)
            return ZERO, info if info is not None else VarInfo()
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return ZERO, VarInfo()
            return ZERO, VarInfo(value=Const(float(node.value)))
        if isinstance(node, ast.Attribute):
            cost, base = self._eval(node.value, w)
            return cost, self._attr_info(node, base, w.frame)
        if isinstance(node, ast.Subscript):
            cost, base = self._eval(node.value, w)
            cost = add(cost, self._eval_slice(node.slice, w))
            value = self._value_of(node, w.frame)
            if value is not None:
                return cost, VarInfo(value=value)
            return cost, VarInfo(size=base.size, count=base.count)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            operands = (
                [node.left, node.right]
                if isinstance(node, ast.BinOp)
                else [node.operand]
            )
            cost = add(*[self._eval(op, w)[0] for op in operands])
            value = self._value_of(node, w.frame)
            return cost, VarInfo(value=value)
        if isinstance(node, ast.BoolOp):
            return add(*[self._eval(v, w)[0] for v in node.values]), VarInfo()
        if isinstance(node, ast.Compare):
            cost = add(
                self._eval(node.left, w)[0],
                *[self._eval(c, w)[0] for c in node.comparators],
            )
            return cost, VarInfo()
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            costs, parts = [], []
            for elt in node.elts:
                c, i = self._eval(elt, w)
                costs.append(c)
                parts.append(i)
            info = VarInfo(parts=parts, count=Const(float(len(parts))))
            if isinstance(node, ast.List) and not parts:
                info.kind = "list"
                info.count = Const(0.0)
            return add(*costs) if costs else ZERO, info
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp(node, node.elt, w)
        if isinstance(node, ast.DictComp):
            return self._comp(node, node.value, w)
        if isinstance(node, ast.Dict):
            costs = [
                self._eval(v, w)[0]
                for v in [*node.keys, *node.values]
                if v is not None
            ]
            return add(*costs) if costs else ZERO, VarInfo()
        if isinstance(node, ast.IfExp):
            folded = self._fold_test(node.test, w.frame)
            test_cost = self._eval(node.test, w)[0]
            if folded is True:
                cost, info = self._eval(node.body, w)
                return add(test_cost, cost), info
            if folded is False:
                cost, info = self._eval(node.orelse, w)
                return add(test_cost, cost), info
            bc, bi = self._eval(node.body, w)
            oc, oi = self._eval(node.orelse, w)
            value = (
                emax(bi.value, oi.value)
                if bi.value is not None and oi.value is not None
                else None
            )
            return add(test_cost, bc, oc), VarInfo(value=value)
        if isinstance(node, ast.Lambda):
            return ZERO, VarInfo(kind="lambda")
        if isinstance(node, ast.Starred):
            return self._eval(node.value, w)
        if isinstance(node, ast.JoinedStr):
            costs = [
                self._eval(v.value, w)[0]
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            ]
            return add(*costs) if costs else ZERO, VarInfo()
        # Slices, await, etc. — evaluate child expressions for cost only.
        costs = [
            self._eval(child, w)[0]
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return add(*costs) if costs else ZERO, VarInfo()

    def _eval_slice(self, node: ast.expr, w: _Walk) -> Expr:
        if isinstance(node, ast.Slice):
            parts = [
                self._eval(part, w)[0]
                for part in (node.lower, node.upper, node.step)
                if part is not None
            ]
            return add(*parts) if parts else ZERO
        return self._eval(node, w)[0]

    def _comp(
        self,
        node: "ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp",
        elt: ast.expr,
        w: _Walk,
    ) -> tuple[Expr, VarInfo]:
        gen = node.generators[0]
        iter_cost, iter_info = self._eval(gen.iter, w)
        spec = self._spec_of_info(iter_info)
        self._bind_target(gen.target, spec.element, w.frame)
        mark = len(w.ctx.charge_lines)
        inner = replace(w, in_loop=True, per_node=w.per_node or spec.per_node)
        body_costs = [self._eval(cond, inner)[0] for cond in gen.ifs]
        elt_cost, elt_info = self._eval(elt, inner)
        body_costs.append(elt_cost)
        for extra in node.generators[1:]:
            body_costs.append(self._eval(extra.iter, inner)[0])
        body = add(*body_costs)
        total = self._multiply(body, spec, node, w, mark)  # type: ignore[arg-type]
        info = VarInfo(
            size=elt_info.size if elt_info.size is not None else spec.element.size,
            count=spec.count,
        )
        return add(iter_cost, total), info

    # -- calls ----------------------------------------------------------------

    def _call(self, node: ast.Call, w: _Walk) -> tuple[Expr, VarInfo]:
        if _is_runner_run(node):
            return self._runner_run(node, w)
        chain = name_chain(node.func)

        arg_costs: list[Expr] = []
        arg_infos: list[VarInfo] = []
        for arg in node.args:
            c, i = self._eval(arg, w)
            arg_costs.append(c)
            arg_infos.append(i)
        kw_infos: dict[str, VarInfo] = {}
        for kw in node.keywords:
            c, i = self._eval(kw.value, w)
            arg_costs.append(c)
            if kw.arg is not None:
                kw_infos[kw.arg] = i
        args_cost = add(*arg_costs) if arg_costs else ZERO

        # 1. Direct charge sites.
        if len(chain) >= 2 and chain[-1] in CHARGED_METHODS:
            charge, info = self._charge(node, chain[-1], arg_infos, w)
            return add(args_cost, charge), info

        # 2. Contracted engine primitives.
        callee = self._callee_by_node.get(id(node))
        callee_name = (
            callee.qualname.split(".")[-1]
            if callee is not None
            else (chain[-1] if chain else "")
        )
        contract = contract_for(callee_name)
        if contract is not None:
            size: Expr
            count: Optional[Expr] = None
            if contract.arg_index < len(arg_infos):
                arg = arg_infos[contract.arg_index]
                size = (
                    arg.size
                    if arg.size is not None
                    else (
                        arg.value
                        if arg.value is not None
                        else Top(f"unknown payload for {callee_name}")
                    )
                )
                count = arg.count
            else:
                size = Top(f"unknown payload for {callee_name}")
            cost = simplify(contract.expr(size, count))
            w.ctx.sweeps += contract.sweeps
            w.ctx.contracts_used.append(callee_name)
            w.ctx.charge_lines.append(node.lineno)
            for top in find_tops(cost):
                w.ctx.escapes.append(
                    (node.lineno, top.reason or callee_name)
                )
            out = VarInfo(
                size=contract.size_out(size) if contract.size_out else None,
                count=contract.count_out,
            )
            return add(args_cost, cost), out

        # 3. Inline resolvable project functions.
        if callee is not None:
            return self._inline(
                node, callee, arg_infos, kw_infos, args_cost, w
            )

        # 4. Structural builtins / known-shape helpers.
        return args_cost, self._opaque_info(node, chain, arg_infos, kw_infos, w)

    def _charge(
        self,
        node: ast.Call,
        method: str,
        arg_infos: list[VarInfo],
        w: _Walk,
    ) -> tuple[Expr, VarInfo]:
        w.ctx.charge_lines.append(node.lineno)
        if method in ("read_block", "append_block"):
            return Sym("B"), VarInfo(size=Sym("B"))
        if method == "read_all":
            assert isinstance(node.func, ast.Attribute)
            recv = self._pure_info(node.func.value, w.frame)
            if recv is not None and recv.size is not None:
                return recv.size, VarInfo(size=recv.size)
            reason = "read_all of a file with underivable size"
            w.ctx.escapes.append((node.lineno, reason))
            return Top(reason), VarInfo()
        if method == "take_upto":
            reason = "cursor read outside a contracted step"
            w.ctx.escapes.append((node.lineno, reason))
            return Top(reason), VarInfo()
        if method == "write_one":
            return ONE, VarInfo()
        # method == "write"
        if arg_infos:
            arg = arg_infos[0]
            amount = arg.size if arg.size is not None else arg.value
            if amount is not None:
                return amount, VarInfo()
        reason = "write of a chunk with underivable size"
        w.ctx.escapes.append((node.lineno, reason))
        return Top(reason), VarInfo()

    def _inline(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_infos: list[VarInfo],
        kw_infos: dict[str, VarInfo],
        args_cost: Expr,
        w: _Walk,
    ) -> tuple[Expr, VarInfo]:
        if callee.key in w.visited or w.depth >= MAX_DEPTH:
            if self.project.fn_reaches_charge(callee):
                reason = (
                    f"recursion/depth guard hit at {callee.qualname} "
                    "(which can charge I/O)"
                )
                w.ctx.escapes.append((node.lineno, reason))
                return add(args_cost, Top(reason)), VarInfo()
            return args_cost, VarInfo()
        closure: Optional[Frame] = None
        if isinstance(node.func, ast.Name):
            bound = w.frame.lookup(node.func.id)
            if bound is not None and bound.fn is not None:
                closure = bound.closure
                callee = bound.fn
        child = Frame(parent=closure)
        params = callee.node.args
        names = [a.arg for a in [*params.posonlyargs, *params.args]]
        if callee.is_method and names and names[0] == "self":
            names = names[1:]
        for name, info in zip(names, arg_infos):
            child.bind(name, info)
        for name, info in kw_infos.items():
            child.bind(name, info)
        defaults = params.defaults
        for name, default in zip(names[len(names) - len(defaults):], defaults):
            if child.lookup(name) is None:
                value = self._value_of(default, child)
                child.bind(name, VarInfo(value=value))
        for kwarg, default2 in zip(params.kwonlyargs, params.kw_defaults):
            if child.lookup(kwarg.arg) is None and default2 is not None:
                value = self._value_of(default2, child)
                child.bind(kwarg.arg, VarInfo(value=value))
        wchild = replace(
            w,
            frame=child,
            depth=w.depth + 1,
            visited=w.visited | {callee.key},
            ret=([VarInfo()],),
        )
        body_cost = self._stmts(callee.node.body, wchild)
        return add(args_cost, body_cost), wchild.ret[0][0]

    def _opaque_info(
        self,
        node: ast.Call,
        chain: list[str],
        arg_infos: list[VarInfo],
        kw_infos: dict[str, VarInfo],
        w: _Walk,
    ) -> VarInfo:
        tail = chain[-1] if chain else ""
        if tail == "zip":
            return VarInfo(kind="zip", parts=arg_infos)
        if tail == "enumerate" and arg_infos:
            return VarInfo(kind="enumerate", parts=[VarInfo(), arg_infos[0]])
        if tail == "range":
            count: Optional[Expr] = None
            values = [self._value_of(a, w.frame) for a in node.args]
            if len(node.args) == 1 and values[0] is not None:
                count = values[0]
            elif (
                len(node.args) == 2
                and values[0] is not None
                and values[1] is not None
            ):
                count = add(values[1], mul(Const(-1.0), values[0]))
            return VarInfo(kind="range", count=count)
        if tail in ("list", "tuple", "sorted", "reversed", "set", "int", "float"):
            return arg_infos[0] if arg_infos else VarInfo()
        if tail == "dict" and arg_infos:
            first = arg_infos[0]
            if first.kind == "zip" and first.parts:
                return first.parts[-1]
            return first
        if tail in ("len",):
            if arg_infos and arg_infos[0].count is not None:
                return VarInfo(value=arg_infos[0].count)
            return VarInfo()
        if tail in ("max", "min"):
            values = [self._value_of(a, w.frame) for a in node.args]
            if values and all(v is not None for v in values) and not node.keywords:
                op = emax if tail == "max" else emin
                return VarInfo(value=op(*[v for v in values if v is not None]))
            return VarInfo()
        if tail == "choice":
            # rng.choice(pool, size=k): k draws.
            if "size" in kw_infos and kw_infos["size"].value is not None:
                return VarInfo(count=kw_infos["size"].value)
            if len(arg_infos) >= 2 and arg_infos[1].value is not None:
                return VarInfo(count=arg_infos[1].value)
            return VarInfo()
        if tail == "pop" and isinstance(node.func, ast.Attribute):
            base = self._pure_info(node.func.value, w.frame)
            if base is not None:
                return VarInfo(size=base.size)
            return VarInfo()
        if tail in ("append", "extend") and isinstance(node.func, ast.Attribute):
            base = self._pure_info(node.func.value, w.frame)
            if base is not None and arg_infos:
                arg = arg_infos[0]
                if arg.size is not None:
                    base.size = arg.size
                elif tail == "append" and arg.value is not None and base.size is None:
                    base.size = arg.value
                base.count = None  # growth beyond the derivable shape
            return VarInfo()
        if tail == "view":
            base = self._pure_info(
                node.func.value, w.frame
            ) if isinstance(node.func, ast.Attribute) else None
            if base is not None and base.kind == "cluster":
                return VarInfo(kind="cluster")
            return VarInfo()
        if tail == "subset":
            base = self._pure_info(
                node.func.value, w.frame
            ) if isinstance(node.func, ast.Attribute) else None
            if base is not None and base.kind == "perf":
                return VarInfo(kind="perf")
            return VarInfo()
        return VarInfo()

    def _runner_run(self, node: ast.Call, w: _Walk) -> tuple[Expr, VarInfo]:
        pre = add(
            *[self._eval(a, w)[0] for a in node.args[:2]]
        ) if node.args else ZERO
        name = (
            _literal_step_name(node.args[1]) if len(node.args) >= 2 else "*"
        )
        target = node.args[2] if len(node.args) >= 3 else None
        ret_holder = [VarInfo()]
        body_nodes: list[ast.AST] = []
        walker: Callable[[_Walk], Expr]
        if isinstance(target, ast.Lambda):
            lam = target

            def walker(ws: _Walk) -> Expr:
                wlam = replace(
                    ws, frame=Frame(parent=w.frame), ret=(ret_holder,)
                )
                cost, info = self._eval(lam.body, wlam)
                ret_holder[0] = info
                return cost

            body_nodes = [lam.body]
        elif isinstance(target, ast.Name):
            bound = w.frame.lookup(target.id)
            fn = bound.fn if bound is not None else None
            if fn is None:
                fn = self.project.resolve_name(
                    self.entry.module, [self.entry], target.id
                )
            if fn is not None:
                closure = bound.closure if bound is not None else None
                registered = fn

                def walker(ws: _Walk) -> Expr:
                    child = Frame(parent=closure)
                    wch = replace(
                        ws,
                        frame=child,
                        depth=ws.depth + 1,
                        visited=ws.visited | {registered.key},
                        ret=([VarInfo()],),
                    )
                    cost = self._stmts(registered.node.body, wch)
                    ret_holder[0] = wch.ret[0][0]
                    return cost

                body_nodes = list(fn.node.body)
            else:

                def walker(ws: _Walk) -> Expr:
                    return ZERO

        else:

            def walker(ws: _Walk) -> Expr:
                return ZERO

        self._register_step(name, node, w, walker, body_nodes)
        return pre, ret_holder[0]

    # -- iterable shape -------------------------------------------------------

    def _spec_of_info(self, info: VarInfo) -> _IterSpec:
        if info.kind == "nodes":
            return _IterSpec(
                element=VarInfo(kind="node"), per_node=True, count=Sym("p")
            )
        if info.kind == "zip" and info.parts is not None:
            subs = [self._spec_of_info(part) for part in info.parts]
            per_node = any(s.per_node for s in subs)
            if per_node:
                count: Optional[Expr] = Sym("p")
            else:
                counts = [s.count for s in subs if s.count is not None]
                count = emin(*counts) if counts else None
            element = VarInfo(parts=[s.element for s in subs])
            return _IterSpec(element=element, per_node=per_node, count=count)
        if info.kind == "enumerate" and info.parts is not None:
            inner = self._spec_of_info(info.parts[1])
            element = VarInfo(parts=[VarInfo(), inner.element])
            return _IterSpec(
                element=element, per_node=inner.per_node, count=inner.count
            )
        if info.kind == "range":
            return _IterSpec(element=VarInfo(), count=info.count)
        if info.kind == "cluster":
            # iterating the cluster/view object itself is not a shape we
            # model — leave it unbounded.
            return _IterSpec(element=VarInfo())
        return _IterSpec(
            element=VarInfo(size=info.size), per_node=False, count=info.count
        )

    def _bind_target(
        self, target: ast.expr, info: VarInfo, frame: Frame
    ) -> None:
        if isinstance(target, ast.Name):
            frame.bind(target.id, info)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            parts = info.parts
            if parts is not None and len(parts) == len(target.elts):
                for elt, part in zip(target.elts, parts):
                    self._bind_target(elt, part, frame)
            else:
                for elt in target.elts:
                    self._bind_target(
                        elt, VarInfo(size=info.size, count=info.count), frame
                    )
            return
        if isinstance(target, ast.Starred):
            self._bind_target(target.value, VarInfo(), frame)
        # subscript/attribute targets: no binding

    # -- scalar values --------------------------------------------------------

    def _pure_info(self, node: ast.expr, frame: Frame) -> Optional[VarInfo]:
        if isinstance(node, ast.Name):
            return frame.lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = self._pure_info(node.value, frame)
            if base is None:
                return None
            return self._attr_info(node, base, frame)
        if isinstance(node, ast.Subscript):
            base = self._pure_info(node.value, frame)
            if base is None:
                return None
            return VarInfo(size=base.size, count=base.count)
        return None

    def _attr_info(
        self, node: ast.Attribute, base: VarInfo, frame: Frame
    ) -> VarInfo:
        value = self._value_of(node, frame)
        if value is not None:
            return VarInfo(value=value)
        if node.attr == "nodes" and base.kind == "cluster":
            return VarInfo(kind="nodes", count=Sym("p"))
        return VarInfo(size=base.size)

    def _value_of(self, node: ast.expr, frame: Frame) -> Optional[Expr]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return Const(float(node.value))
        if isinstance(node, ast.Name):
            info = frame.lookup(node.id)
            return info.value if info is not None else None
        if isinstance(node, ast.Attribute):
            base = self._pure_info(node.value, frame)
            attr = node.attr
            if attr == "p" and base is not None and base.kind == "cluster":
                return Sym("p")
            if attr == "total" and base is not None and base.kind == "perf":
                return Sym("G")
            if base is not None and base.kind == "config":
                table = {
                    "oversample": Sym("c"),
                    "block_items": Sym("B"),
                    "message_items": Sym("cm"),
                }
                if attr in table:
                    return table[attr]
                return None
            if attr == "B":
                return Sym("B")
            if attr == "n_items" and base is not None and base.size is not None:
                return base.size
            if attr == "n_blocks" and base is not None and base.size is not None:
                return ceil(Div(base.size, Sym("B")))
            return None
        if isinstance(node, ast.Subscript):
            base = self._pure_info(node.value, frame)
            if base is not None and base.kind == "perf":
                return Sym("g")
            if base is not None and base.kind == "portions":
                return Sym("l")
            return None
        if isinstance(node, ast.BinOp):
            left = self._value_of(node.left, frame)
            right = self._value_of(node.right, frame)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return add(left, right)
            if isinstance(node.op, ast.Sub):
                return add(left, mul(Const(-1.0), right))
            if isinstance(node.op, ast.Mult):
                return mul(left, right)
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                # floor(a/b) <= a/b: Div is the sound upper bound for the
                # loop counts these values feed.
                return simplify(Div(left, right))
            return None
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = node.operand
                if (
                    isinstance(operand, ast.BinOp)
                    and isinstance(operand.op, ast.FloorDiv)
                    and isinstance(operand.left, ast.UnaryOp)
                    and isinstance(operand.left.op, ast.USub)
                ):
                    # -(-a // b) is the ceil-division idiom.
                    num = self._value_of(operand.left.operand, frame)
                    den = self._value_of(operand.right, frame)
                    if num is not None and den is not None:
                        return ceil(Div(num, den))
                inner = self._value_of(operand, frame)
                return mul(Const(-1.0), inner) if inner is not None else None
            if isinstance(node.op, ast.UAdd):
                return self._value_of(node.operand, frame)
            return None
        if isinstance(node, ast.Call):
            chain = name_chain(node.func)
            tail = chain[-1] if chain else ""
            if tail in ("max", "min") and node.args and not node.keywords:
                values = [self._value_of(a, frame) for a in node.args]
                if all(v is not None for v in values):
                    op = emax if tail == "max" else emin
                    return op(*[v for v in values if v is not None])
                return None
            if tail == "len" and len(node.args) == 1:
                info = self._pure_info(node.args[0], frame)
                if info is not None:
                    return info.count
                return None
            if tail in ("int", "float", "abs") and len(node.args) == 1:
                return self._value_of(node.args[0], frame)
            return None
        if isinstance(node, ast.IfExp):
            body = self._value_of(node.body, frame)
            orelse = self._value_of(node.orelse, frame)
            if body is not None and orelse is not None:
                return emax(body, orelse)
            return None
        return None

    # -- branch folding -------------------------------------------------------

    def _fold_test(self, test: ast.expr, frame: Frame) -> Optional[bool]:
        if isinstance(test, ast.Constant):
            return bool(test.value)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._fold_test(test.operand, frame)
            return None if inner is None else not inner
        if isinstance(test, ast.BoolOp):
            folded = [self._fold_test(v, frame) for v in test.values]
            if isinstance(test.op, ast.And):
                if any(f is False for f in folded):
                    return False
                if all(f is True for f in folded):
                    return True
                return None
            if any(f is True for f in folded):
                return True
            if all(f is False for f in folded):
                return False
            return None
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.NotEq))
            and isinstance(test.comparators[0], ast.Constant)
        ):
            default = self._config_default(test.left, frame)
            if default is not None:
                result = default == test.comparators[0].value
                if isinstance(test.ops[0], ast.NotEq):
                    result = not result
                return result
            return None
        default = self._config_default(test, frame)
        if isinstance(default, bool):
            return default
        return None

    def _config_default(
        self, node: ast.expr, frame: Frame
    ) -> Optional[object]:
        if not isinstance(node, ast.Attribute):
            return None
        base = self._pure_info(node.value, frame)
        if base is None or base.kind != "config":
            return None
        return _CONFIG_DEFAULTS.get(node.attr)

    # -- charge reachability (REP306 / guard widening) ------------------------

    def _nodes_reach_charge(
        self, nodes: Sequence[ast.AST], frame: Frame
    ) -> bool:
        if self.project.reaches_charge(nodes):
            return True
        # callables handed to a StepRunner are bound in the frame, not
        # resolved by the call graph
        for root in nodes:
            for sub in ast.walk(root):
                if isinstance(sub, ast.Call) and _is_runner_run(sub):
                    for arg in sub.args[2:]:
                        if isinstance(arg, ast.Name):
                            bound = frame.lookup(arg.id)
                            fn = bound.fn if bound is not None else None
                            if fn is not None and self.project.fn_reaches_charge(fn):
                                return True
        return False


def derive_costs(
    project: Project, entries: Optional[dict[str, str]] = None
) -> dict[str, AlgorithmCosts]:
    """Derive step bounds for every registered entry algorithm.

    With the default ``entries`` (:data:`KNOWN_ENTRIES`) the result is
    memoized on ``project.cache`` so the REP301–REP306 rules share one
    derivation.  Entries missing from the project are skipped — the
    rules treat an absent algorithm as out of scope, not as a finding.
    """
    if entries is None:
        cached = project.cache.get("cost:derived")
        if isinstance(cached, dict):
            return cached
    table = dict(KNOWN_ENTRIES) if entries is None else dict(entries)
    derived: dict[str, AlgorithmCosts] = {}
    for algorithm, key in table.items():
        if key not in project.functions:
            continue
        derived[algorithm] = CostInterpreter(project, algorithm, key).derive()
    if entries is None:
        project.cache["cost:derived"] = derived
    return derived
