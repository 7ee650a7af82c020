"""REP104: cross-node escape analysis for SimComm results.

Every :class:`~repro.cluster.comm.SimComm` operation (``send``,
``gather``, ``bcast``, ``scatter``, ``alltoallv``) returns the
*receiver-side copies* of the payload — that copy is the whole point:
on a real cluster the receiver can only ever see its own copy, never
the sender's array.  Code that **discards the result** and keeps using
the sender's array has silently aliased mutable state across the node
boundary: the charged transfer moved nothing, and any mutation on
either "side" is visible on both — the simulated analogue of a shared-
memory race the syntactic REP008 could never see.

Two dataflow patterns are flagged, both per containing function:

* the comm call is an expression statement (result thrown away);
* the result is bound to a name that is never subsequently loaded.

``Network.transfer`` is *not* flagged: it is the charge-only primitive
(it returns nothing by design); discarding a SimComm result while
separately reusing local state must instead cite why the charge-only
shape is correct — e.g. with ``# repro: noqa REP104(reason)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding
from repro.analysis.flow.project import COMM_OPS, Project, name_chain
from repro.analysis.flow.typestate import DeepRule


def _is_comm_call(node: ast.Call) -> bool:
    chain = name_chain(node.func)
    return (
        len(chain) >= 2
        and chain[-1] in COMM_OPS
        and any("comm" in part.lower() for part in chain[:-1])
    )


class CrossNodeEscapeRule(DeepRule):
    code = "REP104"
    name = "cross-node-escape"
    summary = "SimComm result discarded: sender state aliased across nodes"
    rationale = (
        "SimComm ops return the receiver-side copies; discarding them and "
        "continuing to use the sender's array aliases mutable state "
        "between nodes — the transfer was charged but nothing moved."
    )
    fix_hint = (
        "Bind the result and make the receiver operate on its own copy "
        "(e.g. `part = comm.send(src, dst, part)`); if the exchange is "
        "deliberately charge-only, record why with # repro: noqa REP104."
    )
    scope = ("core/", "extsort/")

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.modules.values():
            if not self.applies_to(module.relpath):
                continue
            for fn_node, comm_calls in _comm_calls_by_function(module.tree):
                loads = _name_loads(fn_node)
                for call, parent in comm_calls:
                    if isinstance(parent, ast.Expr):
                        yield module.finding(
                            self,
                            call,
                            f"result of {'.'.join(name_chain(call.func))}() "
                            "discarded: the receiver-side copy is lost and "
                            "sender state stays aliased across nodes",
                        )
                    elif (
                        isinstance(parent, ast.Assign)
                        and len(parent.targets) == 1
                        and isinstance(parent.targets[0], ast.Name)
                        and loads.get(parent.targets[0].id, 0) == 0
                    ):
                        yield module.finding(
                            self,
                            call,
                            f"result of {'.'.join(name_chain(call.func))}() "
                            f"bound to {parent.targets[0].id!r} but never "
                            "read: receivers never see their copies",
                        )


def _comm_calls_by_function(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[tuple[ast.Call, ast.AST]]]]:
    """Yield ``(function-or-module, [(comm_call, parent_stmt), ...])``."""
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def owner(node: ast.AST) -> ast.AST:
        cur = parents.get(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            cur = parents.get(cur)
        return cur if cur is not None else tree

    grouped: dict[int, tuple[ast.AST, list[tuple[ast.Call, ast.AST]]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_comm_call(node):
            fn = owner(node)
            grouped.setdefault(id(fn), (fn, []))[1].append(
                (node, parents.get(node, tree))
            )
    yield from grouped.values()


def _name_loads(fn: ast.AST) -> dict[str, int]:
    loads: dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] = loads.get(node.id, 0) + 1
    return loads
