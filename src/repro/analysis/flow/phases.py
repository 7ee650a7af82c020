"""REP105: phase attribution — accounted I/O must happen under a step.

The telemetry bounds auditor folds block-I/O events into per-(step,
node) counters and checks them against the paper's step 1–5 formulas
(see ``docs/OBSERVABILITY.md``).  I/O charged *outside* any
``step(...)`` context lands in no counter, so a bound can be violated
without the auditor ever seeing it.

This rule proves the property statically, using the call graph: a
charged primitive call site is acceptable iff

* it is lexically inside ``with <obj>.step(...)`` (or a lambda run by
  a :class:`~repro.faults.recovery.StepRunner`), **or**
* its containing function is *fully attributed* — every known caller,
  transitively, reaches it under a step context (the fixpoint computed
  by :class:`~repro.analysis.flow.project.Project`).

Functions with **no** in-package callers are public entry points
(``sort_array``-style APIs and result accessors): attribution there is
the caller's contract, and flagging them would punish every library
function — so they are skipped, as are functions whose name is
address-taken (unknowable callers).  Charged primitives:

* block I/O — the :data:`~repro.analysis.flow.project.CHARGED_METHODS`
  (``append_block(s)``, ``read_block(s)``, ``charge_blocks``,
  ``read_planned``, ``read_all``, ``take_upto``, ``write``,
  ``write_one``), the set the cost pass charges;
* network — ``<...>.network.transfer(...)``;
* comm — any SimComm operation (``send``/``gather``/``bcast``/
  ``scatter``/``alltoallv`` on a ``comm`` receiver).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding
from repro.analysis.flow.escape import _is_comm_call
from repro.analysis.flow.project import (
    CHARGED_METHODS,
    FunctionInfo,
    Project,
    name_chain,
)
from repro.analysis.flow.typestate import DeepRule


def _is_charged_primitive(call: ast.Call) -> str | None:
    """The charge kind of a call site, or None if it charges nothing."""
    chain = name_chain(call.func)
    if not chain:
        return None
    tail = chain[-1]
    if tail == "transfer" and any("network" in p.lower() for p in chain[:-1]):
        return "network transfer"
    if _is_comm_call(call):
        return "comm operation"
    if tail in CHARGED_METHODS and len(chain) >= 2:
        return "block I/O"
    return None


class PhaseAttributionRule(DeepRule):
    code = "REP105"
    name = "unattributed-io"
    summary = "charged I/O reachable outside any step(...) context"
    rationale = (
        "I/O charged outside a step context lands in no per-step counter, "
        "so the bounds auditor can miss a violated paper bound entirely."
    )
    fix_hint = (
        "Wrap the call (or every call chain into its function) in "
        "`with cluster.step(name):` / StepRunner.run; setup excluded from "
        "measurement records why with # repro: noqa REP105(reason)."
    )
    scope = ("core/",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in project.functions_in(self.scope):
            if not self.applies_to(fn.module.relpath):
                continue
            if fn.fully_attributed:
                continue
            if not fn.callers and not fn.address_taken:
                continue  # public entry point: attribution is the caller's
            if fn.address_taken and not fn.callers:
                continue  # callback with unknowable callers
            for site in fn.calls:
                if site.under_step:
                    continue
                kind = _is_charged_primitive(site.node)
                if kind is None:
                    continue
                target = ".".join(name_chain(site.node.func))
                yield fn.module.finding(
                    self,
                    site.node,
                    f"{kind} {target}() in {fn.qualname}() can execute "
                    "outside any step context (callers: "
                    f"{_caller_names(fn)}); the bounds auditor cannot "
                    "attribute it",
                )


def _caller_names(fn: FunctionInfo) -> str:
    names = sorted(
        {
            site.caller.qualname if site.caller is not None else "<module>"
            for site in fn.callers
            if not site.under_step
            and (site.caller is None or not site.caller.fully_attributed)
        }
    )
    return ", ".join(names) if names else "<none>"
