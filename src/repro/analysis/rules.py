"""The REP rule set: codified simulation invariants.

Each rule is a syntactic approximation of a semantic invariant of the
cost model (see ``docs/ANALYSIS.md`` for the catalogue with bad/good
examples).  Approximations are deliberately conservative-but-auditable:
where a rule cannot see intent (a ``sorted()`` over an O(p) metadata
list vs. over record data), the inline ``# repro: noqa REPxxx(reason)``
hatch records the human judgement in place.

Scopes use package-relative path prefixes: the *accounted core* is
``core/``, ``extsort/`` and ``pdm/`` — code whose every data movement
must be charged; determinism and state rules apply package-wide.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: The subpackages whose data plane must be fully accounted.
ACCOUNTED_CORE = ("core/", "extsort/", "pdm/")

_NUMPY_NAMES = {"np", "numpy"}


def _terminal_name(node: ast.expr) -> str:
    """Last dotted component of a call target (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _module_attr(node: ast.expr, modules: set[str]) -> tuple[str, str] | None:
    """``(module, attr)`` when ``node`` is ``<module>.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return node.value.id, node.attr
    return None


class RawHostIORule(Rule):
    """REP001: raw host file I/O inside the accounted core.

    ``open()`` / ``os`` / ``shutil`` / ``tempfile`` / numpy file I/O in
    ``core``/``extsort``/``pdm`` moves bytes the :class:`SimDisk`
    counters never see, so the PDM block-I/O counts — the paper's
    result — silently under-report.  All storage must go through
    :class:`~repro.pdm.blockfile.BlockFile` on a :class:`SimDisk`.
    ``pdm/filestore.py`` is exempt: it *is* the sanctioned spill
    backend where simulated blocks meet the host filesystem.
    """

    code = "REP001"
    name = "raw-host-io"
    summary = "raw host file I/O bypasses SimDisk accounting"
    rationale = (
        "Bytes moved through open()/os/shutil/tempfile/numpy file I/O are "
        "invisible to IOStats, so measured block-I/O counts under-report."
    )
    fix_hint = (
        "Route data through BlockFile on a SimDisk (disk.new_file + "
        "BlockWriter/BlockReader); for host spill use pdm.filestore."
    )
    scope = ACCOUNTED_CORE
    exempt = ("pdm/filestore.py",)

    _OS_FILE_OPS = {
        "open", "read", "write", "close", "remove", "unlink", "rename",
        "replace", "mkdir", "makedirs", "rmdir", "truncate", "ftruncate",
        "mkstemp", "mkdtemp", "copy", "copyfile", "copytree", "move",
        "rmtree", "NamedTemporaryFile", "TemporaryFile", "TemporaryDirectory",
    }
    _NP_FILE_OPS = {"save", "load", "savez", "savez_compressed", "savetxt",
                    "loadtxt", "memmap", "fromfile"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            host = _module_attr(fn, {"os", "shutil", "tempfile", "io"})
            np_io = _module_attr(fn, _NUMPY_NAMES)
            if isinstance(fn, ast.Name) and fn.id == "open":
                yield ctx.finding(self, node, "raw open() in accounted core; "
                                  "route bytes through SimDisk/BlockFile")
            elif host is not None and host[1] in self._OS_FILE_OPS:
                yield ctx.finding(
                    self, node,
                    f"host file operation {host[0]}.{host[1]}() "
                    "bypasses SimDisk accounting",
                )
            elif np_io is not None and np_io[1] in self._NP_FILE_OPS:
                yield ctx.finding(
                    self, node,
                    f"numpy file I/O .{np_io[1]}() bypasses SimDisk accounting",
                )
            elif isinstance(fn, ast.Attribute) and fn.attr in {"tofile", "fromfile"}:
                yield ctx.finding(
                    self, node,
                    f".{fn.attr}() moves bytes outside the SimDisk cost model",
                )


class InCoreSortRule(Rule):
    """REP002: in-memory sort outside the sanctioned run-formation sites.

    An unbounded ``sorted()`` / ``.sort()`` / ``np.sort`` over record
    data defeats the point of the out-of-core algorithm: it can exceed
    the memory budget M and its comparisons dodge the CPU cost model.
    Sanctioned sorts either live in ``extsort/runs.py`` (run formation
    sorts exactly one M-sized memory load) or carry a ``# repro: noqa
    REP002(...)`` stating how the sort is bounded and charged.
    """

    code = "REP002"
    name = "incore-sort"
    summary = "in-memory sort outside sanctioned run-formation sites"
    rationale = (
        "A full in-memory sort can exceed the simulated memory budget M and "
        "performs comparisons the CPU cost model never charges."
    )
    fix_hint = (
        "Form bounded runs via extsort.runs and merge externally; if the "
        "sort is genuinely bounded (a sample, O(p) metadata) and charged, "
        "annotate it with # repro: noqa REP002(reason)."
    )
    scope = ACCOUNTED_CORE
    # runs.py is run formation (sorts exactly one M-sized load);
    # incore.py is the bounded, charged helper module the in-core
    # comparison engines are required to route their sorts through.
    exempt = ("extsort/runs.py", "core/incore.py")

    _NP_SORTS = {"sort", "argsort", "lexsort", "msort", "sort_complex",
                 "partition", "argpartition"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            np_sort = _module_attr(fn, _NUMPY_NAMES)
            if isinstance(fn, ast.Name) and fn.id == "sorted":
                if node.args and self._is_metadata_expr(node.args[0]):
                    continue  # provably O(p) metadata, not record data
                yield ctx.finding(
                    self, node,
                    "sorted() in accounted core; bound and charge it or use "
                    "the external-sort machinery",
                )
            elif np_sort is not None and np_sort[1] in self._NP_SORTS:
                yield ctx.finding(
                    self, node,
                    f"np.{np_sort[1]}() sorts in memory; unbounded input "
                    "breaks the M budget and dodges the CPU cost model",
                )
            elif isinstance(fn, ast.Attribute) and fn.attr in {"sort", "argsort"}:
                yield ctx.finding(
                    self, node,
                    f".{fn.attr}() sorts in memory; unbounded input breaks "
                    "the M budget and dodges the CPU cost model",
                )

    @classmethod
    def _is_metadata_expr(cls, node: ast.expr) -> bool:
        """True when the sorted() argument is provably O(p) metadata.

        Index/label orderings — ``range``/``enumerate``/``zip`` calls,
        dict views (``.items()``/``.keys()``/``.values()``), ``set()`` of
        one of those, or a comprehension iterating over one — are bounded
        by the cluster/step count, never by record data, so charging them
        is not required by the cost model.
        """
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and name in {"range", "enumerate", "zip"}:
                return True
            if isinstance(node.func, ast.Attribute) and name in {"items", "keys", "values"}:
                return True
            if isinstance(node.func, ast.Name) and name == "set" and node.args:
                return cls._is_metadata_expr(node.args[0])
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return cls._is_metadata_expr(node.generators[0].iter)
        return False


class NondeterminismRule(Rule):
    """REP003: unseeded randomness or wall-clock reads in simulation code.

    Runs must be bit-reproducible from their seeds — fault-plan replay,
    the determinism regression tests and every Table regeneration depend
    on it.  Wall-clock reads and global/unseeded RNGs make behaviour
    depend on the host instead of the seed.
    """

    code = "REP003"
    name = "nondeterminism"
    summary = "unseeded randomness or wall-clock time in simulation code"
    rationale = (
        "Fault-plan replay and the determinism regression suite require "
        "runs to be a pure function of their seeds; wall-clock and global "
        "RNG state make them a function of the host instead."
    )
    fix_hint = (
        "Thread an explicitly seeded np.random.Generator "
        "(np.random.default_rng(seed)) through the call chain; take time "
        "from the simulated clocks, never the host."
    )

    _TIME_FNS = {"time", "monotonic", "perf_counter", "process_time",
                 "time_ns", "monotonic_ns", "perf_counter_ns"}
    _DATETIME_FNS = {"now", "utcnow", "today"}
    _SEEDED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence",
                         "BitGenerator", "PCG64", "Philox"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            wall = _module_attr(fn, {"time"})
            glob = _module_attr(fn, {"random", "secrets"})
            if wall is not None and wall[1] in self._TIME_FNS:
                yield ctx.finding(
                    self, node,
                    f"wall-clock time.{wall[1]}() in simulation code; "
                    "use the simulated clocks",
                )
            elif (
                isinstance(fn, ast.Attribute)
                and fn.attr in self._DATETIME_FNS
                and _terminal_name(fn.value) in {"datetime", "date"}
            ):
                yield ctx.finding(
                    self, node,
                    f"wall-clock {_terminal_name(fn.value)}.{fn.attr}() "
                    "breaks determinism",
                )
            elif glob is not None:
                yield ctx.finding(
                    self, node,
                    f"global {glob[0]}.{glob[1]}() RNG; "
                    "thread a seeded np.random.Generator instead",
                )
            elif (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Attribute)
                and fn.value.attr == "random"
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id in _NUMPY_NAMES
                and fn.attr not in self._SEEDED_NP_RANDOM
            ):
                yield ctx.finding(
                    self, node,
                    f"legacy global np.random.{fn.attr}(); use a seeded "
                    "np.random.default_rng(seed) Generator",
                )
            elif isinstance(fn, ast.Attribute) and fn.attr == "uuid4":
                yield ctx.finding(self, node, "uuid4() is nondeterministic")
            if self._is_unseeded_default_rng(node):
                yield ctx.finding(
                    self, node,
                    "default_rng() without a seed is entropy-seeded and "
                    "breaks replay; pass an explicit seed",
                )

    @staticmethod
    def _is_unseeded_default_rng(node: ast.Call) -> bool:
        if _terminal_name(node.func) != "default_rng":
            return False
        if node.args or any(kw.arg == "seed" for kw in node.keywords):
            return False
        return True


class MagicBlockSizeRule(Rule):
    """REP004: hard-coded block size at a BlockFile construction site.

    Block size B is a PDM parameter (:class:`~repro.pdm.model.PDMConfig`
    / ``PSRSConfig.block_items``); a literal B frozen into a call site
    silently desynchronises from the configured geometry, producing
    files whose block counts no longer match the theoretical bounds.
    """

    code = "REP004"
    name = "magic-block-size"
    summary = "hard-coded block size instead of configured B"
    rationale = (
        "Files created with a literal B ignore the configured PDM geometry, "
        "so measured block-I/O counts stop matching the bounds under test."
    )
    fix_hint = (
        "Thread B from PDMConfig / PSRSConfig.block_items (or the sibling "
        "file's .B) into the construction site."
    )

    _FILE_CTORS_B_AT = {"BlockFile": 1, "DiskBackedBlockFile": 1,
                        "StripedFile": 1, "new_file": 0}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal_name(node.func)
            if name not in self._FILE_CTORS_B_AT:
                continue
            pos = self._FILE_CTORS_B_AT[name]
            b_arg: ast.expr | None = None
            if len(node.args) > pos:
                b_arg = node.args[pos]
            for kw in node.keywords:
                if kw.arg == "B":
                    b_arg = kw.value
            if (
                b_arg is not None
                and isinstance(b_arg, ast.Constant)
                and isinstance(b_arg.value, int)
            ):
                yield ctx.finding(
                    self, node,
                    f"literal block size {b_arg.value} passed to {name}(); "
                    "thread B from the configured PDM geometry",
                )


class NodeIsolationRule(Rule):
    """REP005: unaccounted state access crossing the simulation boundary.

    ``inspect_block`` / ``to_array`` / private ``_blocks`` payload access
    read data without charging any disk and without a
    :meth:`~repro.cluster.network.Network.transfer` — in a real cluster
    that data does not exist on the reading node.  Inside ``core`` and
    ``extsort`` these are simulated races on node state.  Block sizes
    are directory metadata, free in the model: ``block_items(i)`` reads
    them without touching the payload.  The runtime half of this rule (the
    sanitizer's dead-node and foreign-write checks) covers what syntax
    cannot see.
    """

    code = "REP005"
    name = "node-isolation"
    summary = "charge-free payload access crosses the node/accounting boundary"
    rationale = (
        "Payload read through inspect_block/to_array/_blocks is neither "
        "charged to a disk nor moved through the Network, so a node can "
        "observe data it could never hold — a simulated race."
    )
    fix_hint = (
        "Use read_block/BlockReader (charged) and Network.transfer for "
        "cross-node movement; block_items(i) metadata access is free and legal."
    )
    scope = ("core/", "extsort/")
    # obs/ is the observation plane: it reads event metadata only (never
    # payload) and sits outside the simulated node boundary by design.
    exempt = ("obs/",)

    _PRIVATE_STATE = {"_blocks", "_store_load", "_store_append", "_block_sizes"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name == "to_array":
                    yield ctx.finding(
                        self, node,
                        "to_array() reads the whole file charge-free; "
                        "algorithms must use charged block reads",
                    )
                elif name == "inspect_block":
                    yield ctx.finding(
                        self, node,
                        "inspect_block() payload read is charge-free; only "
                        "block_items() metadata access is free in the model",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self._PRIVATE_STATE
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                yield ctx.finding(
                    self, node,
                    f"private storage access .{node.attr} bypasses the "
                    "accounted BlockFile interface",
                )


class MemoryBypassRule(Rule):
    """REP006: data-dependent allocation in a function that never touches
    a MemoryManager.

    Every buffer the engines hold in core must be pinned against the M
    budget.  A function that allocates arrays of *data-dependent* size
    but never references a memory manager (no ``mem`` parameter, no
    ``reserve``/``acquire``/``release`` call) has no way to be budgeted.
    Fixed-size literal allocations are ignored (they are O(1) scratch).
    """

    code = "REP006"
    name = "memory-bypass"
    summary = "data-sized allocation in a function with no MemoryManager"
    rationale = (
        "Buffers never pinned via MemoryManager.reserve can exceed the "
        "simulated M, making 'out-of-core' execution silently in-core."
    )
    fix_hint = (
        "Accept a MemoryManager and wrap the allocation's lifetime in "
        "mem.reserve(n); or bound the size and note it with a noqa reason."
    )
    scope = ("core/", "extsort/")

    _NP_ALLOCS = {"empty", "zeros", "ones", "full", "concatenate", "tile",
                  "repeat", "arange"}
    _MEM_MARKERS = {"reserve", "acquire", "release", "mem", "memory"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if self._touches_memory_manager(fn):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                alloc = _module_attr(node.func, _NUMPY_NAMES)
                if alloc is None or alloc[1] not in self._NP_ALLOCS:
                    continue
                if node.args and isinstance(node.args[0], ast.Constant):
                    continue  # fixed-size scratch is O(1), not data-sized
                yield ctx.finding(
                    self, node,
                    f"np.{alloc[1]}() of data-dependent size in "
                    f"{fn.name}(), which never touches a MemoryManager",
                )

    @classmethod
    def _touches_memory_manager(cls, fn: ast.AST) -> bool:
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = fn.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg:
            all_args.append(args.vararg)
        if args.kwarg:
            all_args.append(args.kwarg)
        if any(a.arg in cls._MEM_MARKERS for a in all_args):
            return True
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in cls._MEM_MARKERS:
                return True
            if isinstance(node, ast.Name) and node.id in cls._MEM_MARKERS:
                return True
        return False


class SwallowedFaultRule(Rule):
    """REP007: exception handling that defeats the fault-recovery layer.

    Bare ``except:``, broad ``except Exception:`` that neither re-raises
    nor uses the exception, and ``FaultError`` handlers that silently
    ``pass`` all absorb the very signals
    :class:`~repro.faults.recovery.StepRunner` needs to checkpoint,
    retry or degrade.  A swallowed fault turns injected failures into
    silent corruption.
    """

    code = "REP007"
    name = "swallowed-fault"
    summary = "bare/broad except or silently swallowed FaultError"
    rationale = (
        "The recovery layer routes every injected failure through "
        "FaultError subclasses; a handler that swallows them converts a "
        "recoverable fault into silent corruption."
    )
    fix_hint = (
        "Catch the narrowest exception that can actually occur, re-raise "
        "what you cannot handle, and never blanket-swallow FaultError."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self, node,
                    "bare except: swallows FaultError and kills recovery; "
                    "name the exceptions you can actually handle",
                )
                continue
            for exc_type in self._handler_types(node.type):
                tname = _terminal_name(exc_type)
                if tname in {"Exception", "BaseException"}:
                    if not self._handles_properly(node):
                        yield ctx.finding(
                            self, node,
                            f"except {tname} that neither re-raises nor uses "
                            "the exception swallows injected faults",
                        )
                elif tname.endswith("FaultError") or tname == "NodeKilledError":
                    if not self._handles_properly(node):
                        yield ctx.finding(
                            self, node,
                            f"{tname} swallowed without re-raise defeats "
                            "the recovery layer",
                        )

    @staticmethod
    def _handler_types(node: ast.expr) -> list[ast.expr]:
        if isinstance(node, ast.Tuple):
            return list(node.elts)
        return [node]

    @staticmethod
    def _handles_properly(handler: ast.ExceptHandler) -> bool:
        """True if the handler re-raises or meaningfully uses the exception."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False


class SharedMutableStateRule(Rule):
    """REP008: mutable default arguments and module-level mutable state.

    The simulation runs p nodes inside one process; any module-level
    mutable object or mutable default argument is *shared across every
    simulated node*, the in-process analogue of a data race.  ALL_CAPS
    names are treated as declared constant registries and skipped;
    intentional process-global state (e.g. the sanitizer stack) carries
    a noqa reason.
    """

    code = "REP008"
    name = "shared-mutable-state"
    summary = "mutable default arg or module-level mutable state"
    rationale = (
        "With p nodes simulated in one process, module-level mutables and "
        "mutable defaults are implicitly shared across nodes and across "
        "repeated runs — hidden cross-node channels and replay hazards."
    )
    fix_hint = (
        "Use None defaults materialised inside the function; hold per-node "
        "state on SimNode; declare genuine constants in ALL_CAPS."
    )
    # obs/ deliberately aggregates cross-node state: the per-cluster
    # telemetry bus is the one sanctioned shared observer.
    exempt = ("obs/",)

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                      "Counter", "deque"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for default in [*args.defaults, *args.kw_defaults]:
                    if default is not None and self._is_mutable(default):
                        yield ctx.finding(
                            self, default,
                            "mutable default argument is shared across every "
                            "call and every simulated node",
                        )
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.isupper() or (name.startswith("__") and name.endswith("__")):
                    continue  # declared constant registry / dunder
                yield ctx.finding(
                    self, stmt,
                    f"module-level mutable {name!r} is shared across all "
                    "simulated nodes and runs",
                )

    @classmethod
    def _is_mutable(cls, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in cls._MUTABLE_CALLS
        return False
