"""Machine-readable per-step communication schemas.

The second half of the protocol verifier: walk an algorithm entry point
through the project call graph and emit, per step boundary, the *op
tree* of communication that step performs.  The tree grammar is small:

* ``{"kind": "gather"|"bcast"|"scatter"|"alltoallv"|"send"|"transfer",
  "root": <expr text or null>}`` — one primitive op;
* ``{"kind": "seq", "ops": [...], "repeat": bool, "optional": bool}`` —
  a sequence (a loop body when ``repeat``, a maybe-skipped region when
  ``optional``);
* ``{"kind": "alt", "arms": [[...], [...]]}`` — exactly one arm runs
  (an ``if``/``else`` or an early-``return`` split).

Branch conditions and loop bounds are erased (the schema describes every
run), which is exactly what makes the dynamic half checkable: the
trace-conformance matcher in :mod:`repro.obs.conformance` parses a
recorded run's per-step ``NetTransfer`` sequence against this grammar.

``barrier`` ops are recorded in the tree for documentation but produce
no network transfers (clock synchronisation is free), so the matcher
skips them.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.engine import AnalysisError
from repro.analysis.flow.project import (
    FunctionInfo,
    Project,
    _is_runner_run,
    _is_step_with_item,
    call_root,
)
from repro.analysis.protocol.extract import (
    barrier_call_chain,
    comm_call_chain,
    step_literal,
    transfer_call_chain,
)

#: Schema format version (the JSON ``version`` key).
PROTOCOL_SCHEMA_VERSION = 1

#: Algorithm entry points whose protocols ``--emit-schema`` extracts.
KNOWN_ENTRIES: dict[str, str] = {
    "external_psrs": "core/external_psrs.py::_sort_impl",
    "in_core_psrs": "core/in_core_psrs.py::sort_in_core",
    "overpartition": "core/overpartition.py::sort_overpartitioned",
    "dewitt": "core/dewitt.py::sort_dewitt_distributed",
    "hyperquicksort": "core/hyperquicksort.py::sort_hyperquicksort",
}

_MAX_DEPTH = 8


@dataclass
class _StepEntry:
    name: str
    optional: bool
    may_repeat: bool
    ops: list[dict] = field(default_factory=list)


def _prim(kind: str, root: Optional[ast.expr]) -> dict:
    return {"kind": kind, "root": ast.unparse(root) if root is not None else None}


def _seq(ops: list[dict], *, repeat: bool = False, optional: bool = False) -> dict:
    return {"kind": "seq", "ops": ops, "repeat": repeat, "optional": optional}


def _alt(arms: list[list[dict]]) -> Optional[dict]:
    """An alternation, simplified: identical arms collapse, empty is None."""
    if all(not arm for arm in arms):
        return None
    if len(arms) == 2 and arms[0] == arms[1]:
        ops = arms[0]
        return ops[0] if len(ops) == 1 else _seq(ops)
    return {"kind": "alt", "arms": arms}


def _normalize_list(ops: list[dict]) -> list[dict]:
    """Flatten transparent seqs and drop empty subtrees."""
    out: list[dict] = []
    for op in ops:
        norm = _normalize(op)
        if norm is None:
            continue
        if norm["kind"] == "seq" and not norm["repeat"] and not norm["optional"]:
            out.extend(norm["ops"])
        else:
            out.append(norm)
    return out


def _normalize(op: dict) -> Optional[dict]:
    """Canonicalize one op tree node (idempotent).

    ``alt([], [x])`` becomes an optional seq, single-arm alts inline,
    duplicate arms collapse, and a seq whose only child is a seq merges
    flags — keeping emitted schemas readable and matcher states small.
    """
    if op["kind"] == "seq":
        ops = _normalize_list(op["ops"])
        if not ops:
            return None
        if len(ops) == 1 and ops[0]["kind"] == "seq":
            inner = ops[0]
            return _seq(
                inner["ops"],
                repeat=op["repeat"] or inner["repeat"],
                optional=op["optional"] or inner["optional"],
            )
        return _seq(ops, repeat=op["repeat"], optional=op["optional"])
    if op["kind"] == "alt":
        uniq: list[list[dict]] = []
        for arm in op["arms"]:
            norm_arm = _normalize_list(arm)
            if norm_arm not in uniq:
                uniq.append(norm_arm)
        nonempty = [a for a in uniq if a]
        if not nonempty:
            return None
        if len(uniq) == 1:
            arm = uniq[0]
            return arm[0] if len(arm) == 1 else _seq(arm)
        if len(nonempty) == 1 and len(uniq) == 2:
            arm = nonempty[0]
            if len(arm) == 1 and arm[0]["kind"] == "seq":
                return _seq(
                    arm[0]["ops"],
                    repeat=arm[0]["repeat"],
                    optional=True,
                )
            return _seq(arm, optional=True)
        return {"kind": "alt", "arms": uniq}
    return op


def _terminates(stmts: list[ast.stmt]) -> bool:
    """True when control never falls off the end of ``stmts``."""
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.If):
        return _terminates(last.body) and _terminates(last.orelse)
    return False


class SchemaBuilder:
    """Extract one algorithm's per-step protocol from the project model."""

    def __init__(self, project: Project, entry_key: str, algorithm: str) -> None:
        entry = project.functions.get(entry_key)
        if entry is None:
            raise AnalysisError(f"schema entry point {entry_key!r} not found")
        self.project = project
        self.entry = entry
        self.algorithm = algorithm
        self.steps: dict[str, _StepEntry] = {}
        self._callee_by_node = project.callee_map

    def build(self) -> dict:
        self._discover(self.entry.node.body, optional=False, in_loop=False,
                       visited=frozenset({self.entry.key}), depth=0)
        return {
            "version": PROTOCOL_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "entry": self.entry.key,
            "steps": [
                {
                    "name": s.name,
                    "optional": s.optional,
                    "may_repeat": s.may_repeat,
                    "ops": s.ops,
                }
                for s in self.steps.values()
            ],
        }

    # -- step discovery (outside any step) -----------------------------------

    def _register(self, name: str, body_ops: list[dict], *, optional: bool,
                  in_loop: bool) -> None:
        entry = self.steps.get(name)
        if entry is None:
            self.steps[name] = _StepEntry(
                name=name,
                optional=optional,
                may_repeat=in_loop,
                ops=_normalize_list(body_ops),
            )
        else:
            entry.may_repeat = True  # reached from more than one site / a loop
            entry.optional = entry.optional and optional

    def _discover(self, stmts: list[ast.stmt], *, optional: bool, in_loop: bool,
                  visited: frozenset[str], depth: int) -> None:
        for stmt in stmts:
            self._discover_node(stmt, optional=optional, in_loop=in_loop,
                                visited=visited, depth=depth)

    def _discover_node(self, node: ast.AST, *, optional: bool, in_loop: bool,
                       visited: frozenset[str], depth: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            stepped = False
            for item in node.items:
                if _is_step_with_item(item) and isinstance(item.context_expr, ast.Call):
                    name = step_literal(item.context_expr)
                    if name:
                        self._register(
                            name,
                            self._build_ops(node.body, visited, depth),
                            optional=optional,
                            in_loop=in_loop,
                        )
                        stepped = True
            if not stepped:
                self._discover(node.body, optional=optional, in_loop=in_loop,
                               visited=visited, depth=depth)
            return
        if isinstance(node, ast.If):
            self._discover(node.body, optional=True, in_loop=in_loop,
                           visited=visited, depth=depth)
            self._discover(node.orelse, optional=True, in_loop=in_loop,
                           visited=visited, depth=depth)
            return
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            self._discover(node.body, optional=optional, in_loop=True,
                           visited=visited, depth=depth)
            self._discover(node.orelse, optional=True, in_loop=in_loop,
                           visited=visited, depth=depth)
            return
        if isinstance(node, ast.Try):
            self._discover(node.body, optional=optional, in_loop=in_loop,
                           visited=visited, depth=depth)
            for handler in node.handlers:
                self._discover(handler.body, optional=True, in_loop=in_loop,
                               visited=visited, depth=depth)
            self._discover(node.orelse, optional=True, in_loop=in_loop,
                           visited=visited, depth=depth)
            self._discover(node.finalbody, optional=optional, in_loop=in_loop,
                           visited=visited, depth=depth)
            return
        if isinstance(node, ast.Call):
            if _is_runner_run(node):
                name = step_literal(node)
                if name:
                    ops: list[dict] = []
                    for arg in node.args[2:]:
                        ops.extend(self._callable_ops(arg, visited, depth))
                    self._register(name, ops, optional=optional, in_loop=in_loop)
                    return
            callee = self._callee_by_node.get(id(node))
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                self._discover_node(arg, optional=optional, in_loop=in_loop,
                                    visited=visited, depth=depth)
            if callee is not None and callee.key not in visited and depth < _MAX_DEPTH:
                self._discover(callee.node.body, optional=optional,
                               in_loop=in_loop,
                               visited=visited | {callee.key}, depth=depth + 1)
            return
        for child in ast.iter_child_nodes(node):
            self._discover_node(child, optional=optional, in_loop=in_loop,
                                visited=visited, depth=depth)

    def _callable_ops(self, arg: ast.expr, visited: frozenset[str],
                      depth: int) -> list[dict]:
        """Ops of a callable passed to ``runner.run`` (lambda or name)."""
        if isinstance(arg, ast.Lambda):
            return self._expr_ops(arg.body, visited, depth)
        callee = None
        if isinstance(arg, (ast.Name, ast.Attribute)):
            # registered by reference: find the FunctionInfo by name
            if isinstance(arg, ast.Name):
                callee = self._resolve_by_name(arg.id)
        if callee is not None and callee.key not in visited and depth < _MAX_DEPTH:
            return self._build_ops(callee.node.body, visited | {callee.key},
                                   depth + 1)
        return []

    def _resolve_by_name(self, name: str) -> Optional[FunctionInfo]:
        module = self.entry.module
        for qualname, fn in module.functions.items():
            if qualname.split(".")[-1] == name:
                return fn
        return None

    # -- op-tree construction (inside a step) --------------------------------

    def _build_ops(self, stmts: list[ast.stmt], visited: frozenset[str],
                   depth: int) -> list[dict]:
        out: list[dict] = []
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If):
                then_ops = self._build_ops(stmt.body, visited, depth)
                else_ops = self._build_ops(stmt.orelse, visited, depth)
                rest = self._build_ops(stmts[i + 1:], visited, depth)
                if _terminates(stmt.body) and not _terminates(stmt.orelse):
                    alt = _alt([then_ops, else_ops + rest])
                elif _terminates(stmt.orelse) and not _terminates(stmt.body):
                    alt = _alt([then_ops + rest, else_ops])
                else:
                    alt = _alt([then_ops, else_ops])
                    if alt is not None:
                        out.append(alt)
                    out.extend(rest)
                    return out
                if alt is not None:
                    out.append(alt)
                return out
            out.extend(self._stmt_ops(stmt, visited, depth))
        return out

    def _stmt_ops(self, stmt: ast.stmt, visited: frozenset[str],
                  depth: int) -> list[dict]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            body = self._build_ops(stmt.body, visited, depth)
            body += self._build_ops(stmt.orelse, visited, depth)
            return [_seq(body, repeat=True, optional=True)] if body else []
        if isinstance(stmt, ast.While):
            body = self._build_ops(stmt.body, visited, depth)
            body += self._build_ops(stmt.orelse, visited, depth)
            return [_seq(body, repeat=True, optional=True)] if body else []
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if _is_step_with_item(item) and isinstance(item.context_expr, ast.Call):
                    name = step_literal(item.context_expr)
                    if name:
                        # a nested step: its transfers carry its own label
                        self._register(
                            name,
                            self._build_ops(stmt.body, visited, depth),
                            optional=True,
                            in_loop=True,
                        )
                        return []
            return self._build_ops(stmt.body, visited, depth)
        if isinstance(stmt, ast.Try):
            ops = self._build_ops(stmt.body, visited, depth)
            handler_arms = [self._build_ops(h.body, visited, depth)
                            for h in stmt.handlers]
            handler_ops = [op for arm in handler_arms for op in arm]
            if handler_ops:
                ops.append(_seq(handler_ops, optional=True))
            ops += self._build_ops(stmt.orelse, visited, depth)
            ops += self._build_ops(stmt.finalbody, visited, depth)
            return ops
        out: list[dict] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                out.extend(self._expr_ops(child, visited, depth))
        return out

    def _expr_ops(self, expr: ast.expr, visited: frozenset[str],
                  depth: int) -> list[dict]:
        if isinstance(expr, ast.Lambda):
            return self._expr_ops(expr.body, visited, depth)
        if isinstance(expr, ast.Call):
            out: list[dict] = []
            for arg in expr.args:
                out.extend(self._expr_ops(arg, visited, depth))
            for kw in expr.keywords:
                out.extend(self._expr_ops(kw.value, visited, depth))
            chain = comm_call_chain(expr)
            if chain is not None:
                out.append(_prim(chain[-1], call_root(expr)))
            elif barrier_call_chain(expr) is not None:
                out.append(_prim("barrier", None))
            elif transfer_call_chain(expr) is not None:
                out.append(_prim("transfer", None))
            else:
                if _is_runner_run(expr):
                    name = step_literal(expr)
                    if name:
                        ops: list[dict] = []
                        for arg in expr.args[2:]:
                            ops.extend(self._callable_ops(arg, visited, depth))
                        self._register(name, ops, optional=True, in_loop=True)
                        return out
                callee = self._callee_by_node.get(id(expr))
                if callee is not None and callee.key not in visited and depth < _MAX_DEPTH:
                    out.extend(
                        self._build_ops(callee.node.body,
                                        visited | {callee.key}, depth + 1)
                    )
            for child in ast.iter_child_nodes(expr.func):
                if isinstance(child, ast.expr):
                    out.extend(self._expr_ops(child, visited, depth))
            return out
        out = []
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out.extend(self._expr_ops(child, visited, depth))
        return out


def extract_schema(project: Project, algorithm: str,
                   entry_key: Optional[str] = None) -> dict:
    """Build the per-step protocol schema of one algorithm entry point."""
    from repro.analysis.protocol import PROTOCOL_ENGINE_VERSION

    key = entry_key if entry_key is not None else KNOWN_ENTRIES.get(algorithm)
    if key is None:
        raise AnalysisError(
            f"unknown algorithm {algorithm!r}; have {', '.join(sorted(KNOWN_ENTRIES))}"
        )
    schema = SchemaBuilder(project, key, algorithm).build()
    schema["protocol_engine_version"] = PROTOCOL_ENGINE_VERSION
    return schema


def emit_schemas(project: Project, out_dir: str | Path) -> list[Path]:
    """Write ``protocol-<algorithm>.json`` for every known entry present."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for algorithm, key in KNOWN_ENTRIES.items():
        if key not in project.functions:
            continue
        schema = extract_schema(project, algorithm, key)
        path = out / f"protocol-{algorithm}.json"
        path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
        written.append(path)
    return written
