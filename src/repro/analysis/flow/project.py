"""Package model for the flow engine: modules, functions, call graph.

The shallow rules (REP001..REP008) look at one statement at a time; the
flow rules need to know *who calls whom* and *under which step context*.
This module builds that model:

* every ``repro`` module is parsed once into a :class:`ModuleInfo`
  (tree + lines + import table);
* every function/method gets a :class:`FunctionInfo` keyed by
  ``"<relpath>::<qualname>"``, holding its outgoing call sites and the
  incoming call sites discovered across the whole package;
* call targets are resolved for plain names (including nested
  functions and ``self.`` methods), imported names (``from repro.x
  import f``) and module attributes (``import repro.x as m; m.f()``);
* every call site records whether it is *lexically under a step
  context*: inside ``with <obj>.step(...)`` or inside a lambda passed
  to a ``StepRunner``-style ``.run(...)`` call;
* a fixpoint pass then computes ``fully_attributed``: a function whose
  every (known) caller reaches it under a step context — the
  interprocedural fact REP105 is built on.

The model is deliberately conservative where Python is dynamic: a
function whose name is *address-taken* (referenced outside a direct
call or a runner registration) has unknown callers and is never marked
fully attributed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.analysis.engine import (
    AnalysisError,
    Finding,
    ModuleContext,
    Rule,
    package_relpath,
)

#: SimComm collective/point-to-point operations (receiver gets a copy).
COMM_OPS = frozenset({"send", "gather", "bcast", "scatter", "alltoallv"})


def name_chain(node: ast.expr) -> list[str]:
    """Dotted-name parts of a call target, skipping subscripts/calls.

    ``cluster.comm.send`` -> ``["cluster", "comm", "send"]``;
    ``cluster.nodes[i].disk.new_file`` -> ``["cluster", "nodes", "disk",
    "new_file"]``.  Returns ``[]`` for targets with no name at all.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            break
    parts.reverse()
    return parts


#: The SimComm collectives that name a root rank.
ROOTED_OPS = frozenset({"gather", "bcast", "scatter"})

#: Method names that charge disk I/O when called on a receiver: the
#: BlockFile primitives, ``BlockWriter.write``/``write_one`` and
#: ``RunCursor.take_upto``.  REP105 (charged I/O must sit under a step)
#: and the cost pass (what a step's bound must account for) read this one
#: set, so neither can miss a charge the other sees.
CHARGED_METHODS = frozenset(
    {"append_block", "read_block", "read_all", "take_upto", "write", "write_one"}
)

#: Constructor names whose mere use implies charged I/O downstream —
#: counted by charge reachability, not charged by the cost walker.
CHARGED_CONSTRUCTORS = frozenset({"BlockWriter", "BlockReader", "RunCursor"})


def call_root(call: ast.Call) -> ast.expr | None:
    """The root argument of a gather/bcast/scatter call (keyword or second
    positional); None for every other call."""
    chain = name_chain(call.func)
    if not chain or chain[-1] not in ROOTED_OPS:
        return None
    for kw in call.keywords:
        if kw.arg == "root":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _is_step_with_item(item: ast.withitem) -> bool:
    """True for ``with <obj>.step(...)`` items (any receiver)."""
    ctx = item.context_expr
    if not isinstance(ctx, ast.Call):
        return False
    chain = name_chain(ctx.func)
    return bool(chain) and chain[-1] == "step"


def _is_runner_run(call: ast.Call) -> bool:
    """True for ``<runner-ish>.run(...)`` — the StepRunner entry point."""
    chain = name_chain(call.func)
    return (
        len(chain) >= 2
        and chain[-1] == "run"
        and any("runner" in part.lower() for part in chain[:-1])
    )


@dataclass
class CallSite:
    """One resolved-or-not call expression inside a module."""

    module: "ModuleInfo"
    caller: "FunctionInfo | None"  # None at module level
    node: ast.Call
    callee: "FunctionInfo | None"  # None when unresolvable
    under_step: bool


@dataclass
class FunctionInfo:
    """One function or method and its interprocedural facts."""

    key: str  # "<relpath>::<qualname>"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    is_method: bool = False
    calls: list[CallSite] = field(default_factory=list)
    callers: list[CallSite] = field(default_factory=list)
    #: registered with a StepRunner-style ``.run(...)`` (by name or lambda)
    runner_attributed: bool = False
    #: name referenced outside direct calls — callers are unknowable
    address_taken: bool = False
    #: every known caller reaches this function under a step context
    fully_attributed: bool = False


@dataclass
class ModuleInfo:
    """One parsed module plus its import table and function map."""

    relpath: str  # package-relative ("core/external_psrs.py")
    display_path: str
    tree: ast.Module
    lines: list[str]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local name -> (module relpath, attr-or-None)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def context(self) -> ModuleContext:
        return ModuleContext(
            path=self.relpath,
            tree=self.tree,
            lines=self.lines,
            display_path=self.display_path,
        )

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        return self.context().finding(rule, node, message)


def _module_name_to_relpath(dotted: str) -> str | None:
    """``repro.core.partition`` -> ``core/partition.py`` (None if foreign)."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return None
    rel = parts[1:]
    if not rel:
        return "__init__.py"
    return "/".join(rel) + ".py"


class Project:
    """The whole-package model the deep rules run over."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # by relpath
        self.functions: dict[str, FunctionInfo] = {}  # by key
        #: scratch shared between deep rules (e.g. cached typestate runs)
        self.cache: dict[str, object] = {}
        self._reaches_charge: dict[str, bool] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Iterable[tuple[str, str, str]]) -> "Project":
        """Build from ``(source, path, display_path)`` triples."""
        project = cls()
        for source, path, display in sources:
            relpath = package_relpath(path)
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as exc:
                raise AnalysisError(f"{display}: cannot parse: {exc}") from exc
            module = ModuleInfo(
                relpath=relpath,
                display_path=display,
                tree=tree,
                lines=source.splitlines(),
            )
            project.modules[relpath] = module
        for module in project.modules.values():
            project._collect_defs(module)
        for module in project.modules.values():
            project._resolve_imports(module)
        for module in project.modules.values():
            _CallGraphWalker(project, module).walk_module()
        project._propagate_attribution()
        return project

    def _collect_defs(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    info = FunctionInfo(
                        key=f"{module.relpath}::{qualname}",
                        module=module,
                        node=child,
                        qualname=qualname,
                        is_method=in_class,
                    )
                    module.functions[qualname] = info
                    self.functions[info.key] = info
                    visit(child, f"{qualname}.", False)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", True)
                else:
                    visit(child, prefix, in_class)

        visit(module.tree, "", False)

    def _resolve_imports(self, module: ModuleInfo) -> None:
        pkg_parts = module.relpath.split("/")[:-1]  # for relative imports
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = _module_name_to_relpath(alias.name)
                    if rel is not None:
                        local = alias.asname or alias.name.split(".")[0]
                        if alias.asname or "." not in alias.name:
                            module.imports[local] = (rel, None)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                    dotted = ".".join(["repro", *base, node.module or ""]).rstrip(".")
                else:
                    dotted = node.module or ""
                rel = _module_name_to_relpath(dotted)
                if rel is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    submodule = _module_name_to_relpath(f"{dotted}.{alias.name}")
                    if submodule in self.modules:
                        module.imports[local] = (submodule, None)
                    else:
                        module.imports[local] = (rel, alias.name)

    # -- resolution helpers (used by the walker) ----------------------------

    def resolve_name(
        self, module: ModuleInfo, scopes: Sequence[FunctionInfo], name: str
    ) -> FunctionInfo | None:
        """Resolve a bare-name reference from inside ``scopes``."""
        for scope in reversed(scopes):
            nested = module.functions.get(f"{scope.qualname}.{name}")
            if nested is not None:
                return nested
        local = module.functions.get(name)
        if local is not None:
            return local
        target = module.imports.get(name)
        if target is not None:
            relpath, attr = target
            if attr is not None:
                other = self.modules.get(relpath)
                if other is not None:
                    return other.functions.get(attr)
        return None

    def resolve_attribute(
        self,
        module: ModuleInfo,
        scopes: Sequence[FunctionInfo],
        class_name: str | None,
        node: ast.Attribute,
    ) -> FunctionInfo | None:
        """Resolve ``m.f`` (imported module attr) and ``self.f`` (method)."""
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if base == "self" and class_name is not None:
                return module.functions.get(f"{class_name}.{node.attr}")
            target = module.imports.get(base)
            if target is not None and target[1] is None:
                other = self.modules.get(target[0])
                if other is not None:
                    return other.functions.get(node.attr)
        return None

    # -- attribution fixpoint -----------------------------------------------

    def _propagate_attribution(self) -> None:
        """Monotone fixpoint for :attr:`FunctionInfo.fully_attributed`.

        Starts everywhere-False and only ever flips False->True, so the
        iteration terminates in at most ``len(functions)`` rounds.
        """
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                if fn.fully_attributed:
                    continue
                if fn.runner_attributed:
                    fn.fully_attributed = True
                    changed = True
                    continue
                if fn.address_taken or not fn.callers:
                    continue
                if all(
                    site.under_step
                    or (site.caller is not None and site.caller.fully_attributed)
                    for site in fn.callers
                ):
                    fn.fully_attributed = True
                    changed = True

    # -- queries -------------------------------------------------------------

    def functions_in(self, prefixes: Sequence[str]) -> Iterator[FunctionInfo]:
        for fn in self.functions.values():
            if any(fn.module.relpath.startswith(p) for p in prefixes):
                yield fn

    @cached_property
    def callee_map(self) -> dict[int, FunctionInfo]:
        """``id(call node) -> resolved callee`` over the whole call graph."""
        return {
            id(site.node): fn
            for fn in self.functions.values()
            for site in fn.callers
        }

    def reaches_charge(self, roots: Iterable[ast.AST]) -> bool:
        """True when a call under ``roots`` (nested defs included) names a
        charged method or constructor, or resolves to a function that
        transitively does."""
        for root in roots:
            for sub in ast.walk(root):
                if not isinstance(sub, ast.Call):
                    continue
                chain = name_chain(sub.func)
                if chain and (
                    (len(chain) >= 2 and chain[-1] in CHARGED_METHODS)
                    or chain[-1] in CHARGED_CONSTRUCTORS
                ):
                    return True
                callee = self.callee_map.get(id(sub))
                if callee is not None and self.fn_reaches_charge(callee):
                    return True
        return False

    def fn_reaches_charge(self, fn: FunctionInfo) -> bool:
        """:meth:`reaches_charge` of one function, memoized with a cycle cut."""
        memo = self._reaches_charge
        if fn.key not in memo:
            memo[fn.key] = False  # cut cycles
            memo[fn.key] = self.reaches_charge([fn.node])
        return memo[fn.key]


class _CallGraphWalker:
    """One pass over a module: call sites, step contexts, registrations."""

    def __init__(self, project: Project, module: ModuleInfo) -> None:
        self.project = project
        self.module = module

    def walk_module(self) -> None:
        self._walk_body(self.module.tree.body, scopes=[], class_name=None,
                        under_step=False)

    # The walker is hand-rolled (not ast.NodeVisitor) because the three
    # context facts — enclosing function, enclosing class, step context —
    # must flow *down* specific edges only (e.g. a lambda argument of a
    # runner.run call is under-step; its sibling arguments are not).

    def _walk_body(
        self,
        stmts: Sequence[ast.stmt],
        scopes: list[FunctionInfo],
        class_name: str | None,
        under_step: bool,
    ) -> None:
        for stmt in stmts:
            self._walk(stmt, scopes, class_name, under_step)

    def _walk(
        self,
        node: ast.AST,
        scopes: list[FunctionInfo],
        class_name: str | None,
        under_step: bool,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            prefix = f"{scopes[-1].qualname}." if scopes else (
                f"{class_name}." if class_name else ""
            )
            info = self.module.functions.get(f"{prefix}{node.name}")
            if info is None:  # pragma: no cover - defensive
                return
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None:
                    self._walk(default, scopes, class_name, under_step)
            # a fresh function body starts outside any step context
            self._walk_body(node.body, [*scopes, info], None, False)
            return
        if isinstance(node, ast.ClassDef):
            self._walk_body(node.body, scopes, node.name, under_step)
            return
        if isinstance(node, ast.Lambda):
            self._walk(node.body, scopes, class_name, under_step)
            return
        if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
            steps_here = any(_is_step_with_item(item) for item in node.items)
            for item in node.items:
                self._walk(item.context_expr, scopes, class_name, under_step)
            self._walk_body(node.body, scopes, class_name,
                            under_step or steps_here)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, scopes, class_name, under_step)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            target = self.project.resolve_name(self.module, scopes, node.id)
            if target is not None:
                target.address_taken = True
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, scopes, class_name, under_step)

    def _visit_call(
        self,
        node: ast.Call,
        scopes: list[FunctionInfo],
        class_name: str | None,
        under_step: bool,
    ) -> None:
        callee = self._resolve_call_target(node.func, scopes, class_name)
        caller = scopes[-1] if scopes else None
        site = CallSite(
            module=self.module,
            caller=caller,
            node=node,
            callee=callee,
            under_step=under_step,
        )
        if caller is not None:
            caller.calls.append(site)
        if callee is not None:
            callee.callers.append(site)

        runner_call = _is_runner_run(node)
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if runner_call and isinstance(arg, ast.Name):
                # fn registered with a StepRunner: it runs under its step
                target = self.project.resolve_name(self.module, scopes, arg.id)
                if target is not None:
                    target.runner_attributed = True
                    continue
            if runner_call and isinstance(arg, ast.Lambda):
                # the lambda body executes inside the runner's step
                self._walk(arg.body, scopes, class_name, True)
                continue
            self._walk(arg, scopes, class_name, under_step)
        # attribute chains in the target may contain nested calls/names
        fn: ast.expr = node.func
        if not isinstance(fn, ast.Name):
            for child in ast.iter_child_nodes(fn):
                self._walk(child, scopes, class_name, under_step)

    def _resolve_call_target(
        self,
        fn: ast.expr,
        scopes: list[FunctionInfo],
        class_name: str | None,
    ) -> FunctionInfo | None:
        if isinstance(fn, ast.Name):
            return self.project.resolve_name(self.module, scopes, fn.id)
        if isinstance(fn, ast.Attribute):
            cls = class_name
            if cls is None and scopes:
                # inside a method, recover the class from the qualname
                head = scopes[0].qualname.split(".")[0]
                if head and head[0].isupper():
                    cls = head
            return self.project.resolve_attribute(self.module, scopes, cls, fn)
        return None
