"""REP101..REP103: BlockFile/BlockWriter handle-lifecycle rules.

All three rules share one :class:`~repro.analysis.flow.intra.TypestateInterpreter`
run per function (cached on the project), and split its definite events
by kind:

* **REP101 handle-leak** — a writer still open at a normal function
  exit leaks its B-item memory reservation and silently drops its
  buffered tail (the file is short; every downstream count is wrong).
* **REP102 use-after-seal** — ``close()`` on a definitely-closed
  writer, or ``write``/``write_one`` on a definitely-sealed one (the
  latter raises ``ValueError`` at runtime; both mean the lifecycle
  bookkeeping around the call site is confused).
* **REP103 read-never-written** — constructing a ``BlockReader`` over,
  or ``read_block``/``read_all`` from, a file that is definitely empty
  and never had a writer attached: the read raises (or yields nothing)
  and usually indicates the write leg of a transfer was dropped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, Rule
from repro.analysis.flow.intra import TypestateEvent, TypestateInterpreter
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.rules import ACCOUNTED_CORE


class DeepRule(Rule):
    """A rule whose unit of analysis is the whole :class:`Project`.

    Same metadata, scope matching, findings and ``noqa`` handling as
    every :class:`~repro.analysis.engine.Rule`; it has no per-module
    :meth:`check`, only :meth:`check_project`.
    """

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover


_CACHE_KEY = "typestate-events"


def typestate_events(
    project: Project,
) -> list[tuple[FunctionInfo, TypestateEvent]]:
    """All definite lifecycle events in the project (cached on it)."""
    cached = project.cache.get(_CACHE_KEY)
    if cached is None:
        events: list[tuple[FunctionInfo, TypestateEvent]] = []
        for fn in project.functions.values():
            for event in TypestateInterpreter(fn.node).run():
                events.append((fn, event))
        project.cache[_CACHE_KEY] = events
        cached = events
    return cached  # type: ignore[return-value]


class _TypestateRule(DeepRule):
    """Shared plumbing: filter the cached events by kind and scope."""

    kinds: tuple[str, ...] = ()
    scope = ACCOUNTED_CORE

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn, event in typestate_events(project):
            if event.kind not in self.kinds:
                continue
            if not self.applies_to(fn.module.relpath):
                continue
            yield fn.module.finding(
                self,
                event.node,
                f"{event.obj_name}: {event.detail} [in {fn.qualname}()]",
            )


class HandleLeakRule(_TypestateRule):
    code = "REP101"
    name = "handle-leak"
    summary = "BlockWriter definitely open at function exit"
    rationale = (
        "An unclosed writer never flushes its buffered partial block (the "
        "file silently loses its tail) and never releases its B-item "
        "memory reservation, so I/O counts and the M budget both drift."
    )
    fix_hint = (
        "Use `with BlockWriter(f, mem) as w:` or close in a finally: "
        "block (for a writer list: close each, abandon each in the finally:)."
    )
    kinds = ("leak",)


class UseAfterSealRule(_TypestateRule):
    code = "REP102"
    name = "use-after-seal"
    summary = "write after close/abandon, or a definite double close"
    rationale = (
        "write()/write_one() on a sealed writer raises ValueError at "
        "runtime; a definite second close() is dead code that signals the "
        "surrounding lifecycle logic is confused."
    )
    fix_hint = (
        "Restructure so the writer is sealed exactly once, after the last "
        "write; use abandon() on error paths."
    )
    kinds = ("write_after_seal", "double_close")


class ReadNeverWrittenRule(_TypestateRule):
    code = "REP103"
    name = "read-never-written"
    summary = "reading a BlockFile that is definitely never written"
    rationale = (
        "A BlockReader/read_block over a provably-empty file raises or "
        "yields nothing — almost always a dropped write leg of a "
        "distribution/transfer, which under-counts I/O on the write side."
    )
    fix_hint = (
        "Write (and close) the file before reading it, or pass the "
        "populated file handle instead of a freshly created one."
    )
    kinds = ("read_never_written",)
