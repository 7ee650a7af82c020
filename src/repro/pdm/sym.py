"""Small symbolic algebra for I/O-cost expressions.

One expression language serves both sides of the cost model: the
paper's Algorithm-1 step bounds are stated in it once
(:func:`repro.core.theory.step_bounds`, on the PDM-level builders at
the bottom of this module) and evaluated per node by the runtime
auditor (:mod:`repro.obs.audit`), and the cost interpreter
(:mod:`repro.analysis.cost.interp`) derives, per (algorithm, step), a
closed-form upper bound on charged item I/O per node in the same
symbols.  Expressions are trees over the model symbols

=======  ====================================================================
symbol   meaning
=======  ====================================================================
``n``    total input size, in items
``p``    number of cluster nodes
``B``    PDM block size, in items
``M``    per-node internal memory, in items
``c``    the oversampling factor (``PSRSConfig.oversample``)
``g``    this node's perf value ``perf[i]``
``G``    the perf-vector total ``sum(perf)``
``d``    the duplicate count (multiplicity of the most duplicated key)
``l``    this node's portion ``l_i``, the items it holds after the
         performance-proportional split (its *ideal* share is ``n*g/G``)
``r``    items received by this node in a routing step (``<= n``)
``cm``   the redistribution message size, in items
=======  ====================================================================

plus ``ceil``, ``max``/``min``, ``bitlen`` (``int.bit_length``), and two
model-aware operators that close over ``M`` and ``B`` at evaluation
time: ``passes(x)`` — the polyphase/multiway merge pass count
:func:`repro.pdm.model.merge_passes` — and ``levels(x)`` — the k-way
merge depth over ``x`` runs, :func:`repro.pdm.model.merge_levels`.

``Top`` is the explicit unbounded element: it absorbs through ``+``,
``*`` (except by a literal zero) and ``max``, evaluates to ``inf``, and
carries the provenance the REP302/REP304 rules report.

The algebra is intentionally tiny: :func:`simplify` does flattening,
constant folding and absorption only — enough to make emitted
expressions readable and stable — and ordering questions are settled
numerically by :func:`dominates`, which compares two expressions over a
deterministic grid of valid model instantiations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from repro.pdm.model import merge_levels, merge_order, merge_passes

#: Names every evaluation environment must bind (see the table above).
SYMBOLS: tuple[str, ...] = (
    "n", "p", "B", "M", "c", "g", "G", "d", "l", "r", "cm",
)


class CostExprError(ValueError):
    """Malformed expression (bad symbol, bad serialized form)."""


@dataclass(frozen=True)
class Expr:
    """Base class of all cost-expression nodes."""

    def eval(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def children(self) -> tuple["Expr", ...]:
        return ()

    def render(self) -> str:
        raise NotImplementedError  # pragma: no cover - abstract

    def to_dict(self) -> dict[str, object]:
        raise NotImplementedError  # pragma: no cover - abstract


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, env: Mapping[str, float]) -> float:
        return float(self.value)

    def render(self) -> str:
        v = self.value
        if float(v).is_integer():
            return str(int(v))
        return f"{v:g}"

    def to_dict(self) -> dict[str, object]:
        return {"op": "const", "value": self.value}


@dataclass(frozen=True)
class Sym(Expr):
    name: str

    def __post_init__(self) -> None:
        if self.name not in SYMBOLS:
            raise CostExprError(f"unknown cost symbol {self.name!r}")

    def eval(self, env: Mapping[str, float]) -> float:
        try:
            return float(env[self.name])
        except KeyError as exc:
            raise CostExprError(f"environment lacks symbol {self.name!r}") from exc

    def render(self) -> str:
        return self.name

    def to_dict(self) -> dict[str, object]:
        return {"op": "sym", "name": self.name}


@dataclass(frozen=True)
class Top(Expr):
    """The unbounded element, with provenance for REP302/REP304."""

    reason: str = ""

    def eval(self, env: Mapping[str, float]) -> float:
        return math.inf

    def render(self) -> str:
        return "TOP" if not self.reason else f"TOP({self.reason})"

    def to_dict(self) -> dict[str, object]:
        return {"op": "top", "reason": self.reason}


def _render_args(args: Sequence[Expr], sep: str) -> str:
    return sep.join(a.render() for a in args)


@dataclass(frozen=True)
class Add(Expr):
    args: tuple[Expr, ...]

    def eval(self, env: Mapping[str, float]) -> float:
        return sum(a.eval(env) for a in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def render(self) -> str:
        return "(" + _render_args(self.args, " + ") + ")"

    def to_dict(self) -> dict[str, object]:
        return {"op": "add", "args": [a.to_dict() for a in self.args]}


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple[Expr, ...]

    def eval(self, env: Mapping[str, float]) -> float:
        out = 1.0
        for a in self.args:
            out *= a.eval(env)
        return out

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def render(self) -> str:
        return _render_args(self.args, "*")

    def to_dict(self) -> dict[str, object]:
        return {"op": "mul", "args": [a.to_dict() for a in self.args]}


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr

    def eval(self, env: Mapping[str, float]) -> float:
        return self.num.eval(env) / self.den.eval(env)

    def children(self) -> tuple[Expr, ...]:
        return (self.num, self.den)

    def render(self) -> str:
        return f"{self.num.render()}/{self.den.render()}"

    def to_dict(self) -> dict[str, object]:
        return {"op": "div", "num": self.num.to_dict(), "den": self.den.to_dict()}


@dataclass(frozen=True)
class Ceil(Expr):
    arg: Expr

    def eval(self, env: Mapping[str, float]) -> float:
        v = self.arg.eval(env)
        if math.isinf(v):
            return v
        return float(math.ceil(v))

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def render(self) -> str:
        return f"ceil({self.arg.render()})"

    def to_dict(self) -> dict[str, object]:
        return {"op": "ceil", "arg": self.arg.to_dict()}


@dataclass(frozen=True)
class Max(Expr):
    args: tuple[Expr, ...]

    def eval(self, env: Mapping[str, float]) -> float:
        return max(a.eval(env) for a in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def render(self) -> str:
        return "max(" + _render_args(self.args, ", ") + ")"

    def to_dict(self) -> dict[str, object]:
        return {"op": "max", "args": [a.to_dict() for a in self.args]}


@dataclass(frozen=True)
class Min(Expr):
    args: tuple[Expr, ...]

    def eval(self, env: Mapping[str, float]) -> float:
        return min(a.eval(env) for a in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def render(self) -> str:
        return "min(" + _render_args(self.args, ", ") + ")"

    def to_dict(self) -> dict[str, object]:
        return {"op": "min", "args": [a.to_dict() for a in self.args]}


@dataclass(frozen=True)
class BitLen(Expr):
    """``int(x).bit_length()`` — the step-3 binary-search probe depth."""

    arg: Expr

    def eval(self, env: Mapping[str, float]) -> float:
        v = self.arg.eval(env)
        if math.isinf(v):
            return v
        return float(int(max(0.0, v)).bit_length())

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def render(self) -> str:
        return f"bitlen({self.arg.render()})"

    def to_dict(self) -> dict[str, object]:
        return {"op": "bitlen", "arg": self.arg.to_dict()}


@dataclass(frozen=True)
class MergePasses(Expr):
    """Merge passes over ``x`` items: :meth:`PDMConfig.merge_passes`.

    Zero when ``x <= M``; otherwise ``max(1, ceil(log_k(ceil(x / M))))``
    with ``k = merge_order(M, B)``.
    """

    arg: Expr

    def eval(self, env: Mapping[str, float]) -> float:
        v = self.arg.eval(env)
        if math.isinf(v):
            return v
        return float(merge_passes(v, int(env["M"]), int(env["B"])))

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def render(self) -> str:
        return f"passes({self.arg.render()})"

    def to_dict(self) -> dict[str, object]:
        return {"op": "passes", "arg": self.arg.to_dict()}


@dataclass(frozen=True)
class MergeLevels(Expr):
    """k-way merge depth over ``x`` runs: :func:`repro.pdm.model.merge_levels`."""

    arg: Expr

    def eval(self, env: Mapping[str, float]) -> float:
        v = self.arg.eval(env)
        if math.isinf(v):
            return v
        return float(merge_levels(v, merge_order(int(env["M"]), int(env["B"]))))

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def render(self) -> str:
        return f"levels({self.arg.render()})"

    def to_dict(self) -> dict[str, object]:
        return {"op": "levels", "arg": self.arg.to_dict()}


#: Convenience zero/one.
ZERO = Const(0.0)
ONE = Const(1.0)


def add(*args: Expr) -> Expr:
    return simplify(Add(tuple(args)))


def mul(*args: Expr) -> Expr:
    return simplify(Mul(tuple(args)))


def emax(*args: Expr) -> Expr:
    return simplify(Max(tuple(args)))


def emin(*args: Expr) -> Expr:
    return simplify(Min(tuple(args)))


def ceil(arg: Expr) -> Expr:
    return simplify(Ceil(arg))


# --------------------------------------------------------------------------
# Simplification
# --------------------------------------------------------------------------


def _flatten(kind: type, args: Sequence[Expr]) -> list[Expr]:
    out: list[Expr] = []
    for a in args:
        if isinstance(a, kind):
            out.extend(a.args)  # type: ignore[attr-defined]
        else:
            out.append(a)
    return out


def simplify(expr: Expr) -> Expr:
    """Flatten/fold/absorb, preserving the value on every environment.

    The transformation set is deliberately conservative: nested
    ``Add``/``Mul``/``Max``/``Min`` flatten, literal constants fold,
    identity elements drop, ``Top`` absorbs (except under a literal
    zero factor), ``ceil`` collapses over ``ceil``.  The hypothesis
    soundness property in ``tests/test_analysis_cost.py`` checks
    ``simplify(e)`` and ``e`` agree on random substitutions.
    """
    if isinstance(expr, Add):
        args = [simplify(a) for a in _flatten(Add, [simplify(a) for a in expr.args])]
        if any(isinstance(a, Top) for a in args):
            return next(a for a in args if isinstance(a, Top))
        const = sum(a.value for a in args if isinstance(a, Const))
        rest = [a for a in args if not isinstance(a, Const)]
        if const != 0.0:
            rest.append(Const(const))
        if not rest:
            return ZERO
        if len(rest) == 1:
            return rest[0]
        return Add(tuple(rest))
    if isinstance(expr, Mul):
        args = [simplify(a) for a in _flatten(Mul, [simplify(a) for a in expr.args])]
        if any(isinstance(a, Const) and a.value == 0.0 for a in args):
            return ZERO
        if any(isinstance(a, Top) for a in args):
            return next(a for a in args if isinstance(a, Top))
        const = 1.0
        rest = []
        for a in args:
            if isinstance(a, Const):
                const *= a.value
            else:
                rest.append(a)
        if const != 1.0:
            rest.insert(0, Const(const))
        if not rest:
            return ONE
        if len(rest) == 1:
            return rest[0]
        return Mul(tuple(rest))
    if isinstance(expr, Div):
        num, den = simplify(expr.num), simplify(expr.den)
        if isinstance(num, Top):
            return num
        if isinstance(num, Const) and num.value == 0.0:
            return ZERO
        if isinstance(den, Const) and den.value == 1.0:
            return num
        if isinstance(num, Const) and isinstance(den, Const) and den.value != 0.0:
            return Const(num.value / den.value)
        return Div(num, den)
    if isinstance(expr, Ceil):
        arg = simplify(expr.arg)
        if isinstance(arg, Top):
            return arg
        if isinstance(arg, Const):
            return Const(float(math.ceil(arg.value)))
        if isinstance(arg, Ceil):
            return arg
        return Ceil(arg)
    if isinstance(expr, (Max, Min)):
        kind = type(expr)
        args = [simplify(a) for a in _flatten(kind, [simplify(a) for a in expr.args])]
        if isinstance(expr, Max) and any(isinstance(a, Top) for a in args):
            return next(a for a in args if isinstance(a, Top))
        if isinstance(expr, Min):
            args = [a for a in args if not isinstance(a, Top)] or args
        consts = [a for a in args if isinstance(a, Const)]
        rest = [a for a in args if not isinstance(a, Const)]
        if consts:
            fold = max(c.value for c in consts) if kind is Max else min(
                c.value for c in consts
            )
            rest.append(Const(fold))
        uniq: list[Expr] = []
        for a in rest:
            if a not in uniq:
                uniq.append(a)
        if not uniq:
            return ZERO
        if len(uniq) == 1:
            return uniq[0]
        return kind(tuple(uniq))
    if isinstance(expr, BitLen):
        arg = simplify(expr.arg)
        if isinstance(arg, Top):
            return arg
        if isinstance(arg, Const):
            return Const(float(int(max(0.0, arg.value)).bit_length()))
        return BitLen(arg)
    if isinstance(expr, MergePasses):
        return MergePasses(simplify(expr.arg))
    if isinstance(expr, MergeLevels):
        return MergeLevels(simplify(expr.arg))
    return expr


def iter_nodes(expr: Expr) -> Iterator[Expr]:
    """Pre-order walk of an expression tree."""
    yield expr
    for child in expr.children():
        yield from iter_nodes(child)


def find_tops(expr: Expr) -> list[Top]:
    """All ``Top`` leaves of an expression (empty = bounded)."""
    return [node for node in iter_nodes(expr) if isinstance(node, Top)]


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

_ExprDict = Mapping[str, object]


def from_dict(data: _ExprDict) -> Expr:
    """Inverse of :meth:`Expr.to_dict` (used by the cost baseline/cache)."""
    if not isinstance(data, Mapping) or "op" not in data:
        raise CostExprError(f"not a cost expression: {data!r}")
    op = data["op"]
    try:
        if op == "const":
            return Const(float(data["value"]))  # type: ignore[arg-type]
        if op == "sym":
            return Sym(str(data["name"]))
        if op == "top":
            return Top(str(data.get("reason", "")))
        if op in ("add", "mul", "max", "min"):
            args = tuple(from_dict(a) for a in data["args"])  # type: ignore[union-attr]
            cls = {"add": Add, "mul": Mul, "max": Max, "min": Min}[str(op)]
            return cls(args)
        if op == "div":
            return Div(from_dict(data["num"]), from_dict(data["den"]))  # type: ignore[arg-type]
        if op in ("ceil", "bitlen", "passes", "levels"):
            arg = from_dict(data["arg"])  # type: ignore[arg-type]
            cls1 = {"ceil": Ceil, "bitlen": BitLen, "passes": MergePasses,
                    "levels": MergeLevels}[str(op)]
            return cls1(arg)
    except (KeyError, TypeError, ValueError) as exc:
        raise CostExprError(f"malformed cost expression: {exc}") from exc
    raise CostExprError(f"unknown cost expression op {op!r}")


# --------------------------------------------------------------------------
# Dominance over the valid model domain
# --------------------------------------------------------------------------

#: Relative slack for numeric dominance comparisons.
_REL_TOL = 1e-9


def sample_envs() -> list[dict[str, float]]:
    """Deterministic grid of valid model instantiations.

    Covers the simulator's envelope corners (tiny blocks / tight memory /
    large p / skewed perf) — the same axes the scenario fuzzer mutates.
    Every environment satisfies ``M >= 3B`` (the polyphase floor),
    ``l = n*g/G`` and ``r <= n``.
    """
    envs: list[dict[str, float]] = []
    for B in (16.0, 256.0):
        for m_blocks in (3.0, 8.0, 64.0):
            M = B * m_blocks
            for p in (2.0, 4.0, 16.0):
                for g, G_extra in ((1.0, 0.0), (4.0, 0.0), (8.0, 8.0)):
                    G = g * p + G_extra
                    for n in (1024.0, 131072.0, 1048576.0):
                        l = n * g / G
                        for d in (0.0, B):
                            envs.append({
                                "n": n, "p": p, "B": B, "M": M,
                                "c": 4.0, "g": g, "G": G, "d": d,
                                "l": l, "r": n, "cm": 8.0 * B,
                            })
    return envs


def dominates(
    lower: Expr, upper: Expr, envs: Optional[Sequence[Mapping[str, float]]] = None
) -> Optional[dict[str, float]]:
    """Check ``lower <= upper`` over the sampled domain.

    Returns ``None`` when dominance holds everywhere, else the first
    environment (as a plain dict) where it fails — the counterexample
    REP301/REP305 report.
    """
    for env in envs if envs is not None else sample_envs():
        lo, hi = lower.eval(env), upper.eval(env)
        if math.isinf(hi):
            continue
        if lo > hi * (1.0 + _REL_TOL) + 1e-6:
            return dict(env)
    return None


ExprLike = Union[Expr, float, int]


def as_expr(value: ExprLike) -> Expr:
    """Coerce a number to a :class:`Const` (identity on expressions)."""
    if isinstance(value, Expr):
        return value
    return Const(float(value))


# --------------------------------------------------------------------------
# The PDM-level sort and merge bounds
# --------------------------------------------------------------------------

#: Step-1/5 slack for polyphase dummy-run padding — the same factor the
#: I/O-complexity benchmark gate allows (benchmarks/test_io_complexity.py).
POLYPHASE_SLACK = 1.3


def sort_cost(size: Expr) -> Expr:
    """The paper's external-sort bound ``2s(1 + passes(s))`` item I/Os:
    every item read and written once per pass, run formation included."""
    return Mul((Const(2), size, Add((Const(1), MergePasses(size)))))


def _padded(size: Expr, floor: Expr, slack: float) -> Expr:
    """``slack * max(sort_cost(s), floor)``: the polyphase engine pads
    with dummy runs (the slack) and never does less than ``floor``."""
    return Mul((Const(slack), Max((sort_cost(size), floor))))


def poly_cost(size: Expr, slack: float = POLYPHASE_SLACK) -> Expr:
    """Polyphase external sort of ``size`` items: :func:`sort_cost`,
    floored at ``4s`` (run formation plus >= 1 merge/output pass even
    when ``s <= M``, where the formula's pass count is 0)."""
    return _padded(size, Mul((Const(4), size)), slack)


def merge_cost(size: Expr, count: Expr, slack: float = POLYPHASE_SLACK) -> Expr:
    """Multi-pass k-way merge of ``count`` runs totalling ``size``
    items: :func:`sort_cost`, floored at the explicit merge depth
    ``2s*levels(count)`` (the formula's ``s/M`` run count can undercount
    many small runs), plus one partial block per run."""
    return Add((
        _padded(
            size,
            Mul((Const(2), size, Max((Const(1), MergeLevels(count))))),
            slack,
        ),
        Mul((count, Sym("B"))),
    ))
