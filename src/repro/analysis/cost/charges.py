"""Charge sites and cost contracts — the certifier's trusted base.

The interpreter in :mod:`repro.analysis.cost.interp` walks step bodies
through the call graph and derives I/O bounds from three sources, in
decreasing order of "how much of the proof lives in the walker":

1. **Direct charge sites** — the sanctioned block-I/O primitives
   (:data:`repro.analysis.flow.project.CHARGED_METHODS`, the set REP105
   polices): ``BlockFile.read_block`` / ``append_block`` / ``read_all``,
   ``BlockWriter.write`` / ``write_one``, ``RunCursor.take_upto``.
   Every other disk mutation in the simulator
   funnels through these, so a call whose name chain ends in one of
   them charges items; the walker multiplies the charge by its derived
   loop bounds.  A charge under a loop with no derivable bound is the
   REP304 condition.

2. **Function contracts** (:data:`CONTRACTS`) — documented closed-form
   bounds for the mid-level engine primitives (polyphase sort, k-way
   merge, sampling, partitioning, redistribution).  Each contract is a
   *model fact*: it calls the builder the paper's step table
   (:func:`repro.core.theory.step_bounds`, which the dynamic auditor
   enforces empirically) is made of, at the size the walker derived,
   so the static derivation and the runtime audit agree by
   construction.  The REP306 rule keeps contracts honest: a
   contracted function must still transitively reach a real charge
   site, otherwise its formula is vacuous (dead bound).

3. **Step contracts** (:data:`STEP_CONTRACTS`) — whole-step bounds for
   the few steps whose cost is receiver-driven and data-dependent in a
   way no sound loop analysis recovers (DeWitt's message routing, the
   recovery path's salvage streaming).  Each carries its justification
   in ``doc`` and is REP306-checked for charge reachability like any
   contract.

All formulas are per-(step, node) *item* I/O in the symbols of
:mod:`repro.pdm.sym` (``l`` = this node's portion, ``r`` =
items received, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.theory import (
    SAMPLE_COST,
    load_balance,
    probe_cost,
    redistribute_cost,
)
from repro.pdm.sym import (
    Add,
    Ceil,
    Const,
    Div,
    Expr,
    Max,
    Min,
    Mul,
    Sym,
    Top,
    merge_cost,
    poly_cost,
)

_L = Sym("l")
_P = Sym("p")
_B = Sym("B")
_R = Sym("r")
_CM = Sym("cm")
_N = Sym("n")

_P_MINUS_1 = Add((_P, Const(-1)))


@dataclass(frozen=True)
class Contract:
    """Documented per-invocation cost bound of one engine primitive.

    ``expr(size, count)`` is the charged item I/O on the executing node;
    ``size`` is the symbolic payload of the positional argument at
    ``arg_index`` (``count`` its run/partition count when tracked).
    ``size_out``/``count_out`` describe the result so the walker can
    propagate sizes to downstream calls.  ``sweeps`` counts full
    read+write passes over the step's data in the log-free case — the
    REP303 budget is three per step.
    """

    name: str
    doc: str
    arg_index: int
    expr: Callable[[Expr, Optional[Expr]], Expr]
    size_out: Optional[Callable[[Expr], Expr]] = None
    count_out: Optional[Expr] = None
    sweeps: int = 0


def _c(
    name: str,
    doc: str,
    expr: Callable[[Expr, Optional[Expr]], Expr],
    *,
    arg_index: int = 0,
    size_out: Optional[Callable[[Expr], Expr]] = None,
    count_out: Optional[Expr] = None,
    sweeps: int = 0,
) -> tuple[str, Contract]:
    return name, Contract(
        name=name, doc=doc, arg_index=arg_index, expr=expr,
        size_out=size_out, count_out=count_out, sweeps=sweeps,
    )


#: Function contracts, keyed by the resolved callee's (qual)name tail.
CONTRACTS: dict[str, Contract] = dict([
    _c(
        "polyphase_sort",
        "step-1 engine: run formation (one full pass) + polyphase merge "
        "(>=1 pass; passes(s) when s > M), x1.3 dummy-run slack — "
        "step_bounds '1:local-sort'",
        lambda size, count: poly_cost(size),
        size_out=lambda size: size,
        sweeps=2,
    ),
    _c(
        "merge_many",
        "step-5 engine: multi-pass k-way merge of `count` runs "
        "totalling `size` items + one partial block per run — "
        "step_bounds '5:final-merge'",
        lambda size, count: merge_cost(size, count if count is not None else _P),
        size_out=lambda size: size,
        sweeps=1,
    ),
    _c(
        "regular_sample",
        "step-2 sampling: c(p-1)perf[i] regular samples read at block "
        "granularity — step_bounds '2:pivots' (size-independent)",
        lambda size, count: SAMPLE_COST,
        sweeps=0,
    ),
    _c(
        "random_sample",
        "step-2 sampling (random flavour): same sample count as the "
        "regular method, floored at one block",
        lambda size, count: Max((_B, SAMPLE_COST)),
        sweeps=0,
    ),
    _c(
        "read_samples",
        "sample gather: one block read per distinct sampled block, at "
        "most one per sample and never more than the whole file",
        lambda size, count: Min((Add((size, _B)), SAMPLE_COST)),
        sweeps=0,
    ),
    _c(
        "exact_quantile_pivots",
        "quantile pivot method: distributed counting search; its I/O is "
        "not bounded by the sample formula (the auditor reports it as "
        "informational) — deriving through it yields TOP by design",
        lambda size, count: Top("quantile counting-search I/O has no "
                                "sample-formula bound"),
        sweeps=0,
    ),
    _c(
        "partition_offsets",
        "step-3 binary searches: p-1 joint lower-bound descents, each "
        "probing floor(log2 n_blocks)+1 blocks plus the final cut "
        "block — step_bounds '3:partition' probe term",
        lambda size, count: probe_cost(size, 1),
        sweeps=0,
    ),
    _c(
        "materialize_partitions",
        "step-3 materialising copy: reads the sorted portion once, "
        "writes it once (2Q), re-reading at most one boundary block per "
        "cut — step_bounds '3:partition' 2Q term",
        lambda size, count: Add((Mul((Const(2), size)), Mul((_P_MINUS_1, _B)))),
        size_out=lambda size: size,
        count_out=_P,
        sweeps=1,
    ),
    _c(
        "partition_refs",
        "step-3 zero-copy ablation: partition boundaries only, no I/O",
        lambda size, count: Const(0.0),
        size_out=lambda size: size,
        count_out=_P,
        sweeps=0,
    ),
    _c(
        "redistribute",
        "step-4: the sender reads its materialised partitions (size "
        "items); the receiver writes at most the load-balance bound "
        "2*size+d (paper th. 1) plus one partial block per sender — "
        "step_bounds '4:redistribute'",
        lambda size, count: redistribute_cost(size, size),
        arg_index=1,
        size_out=load_balance,
        count_out=_P,
        sweeps=1,
    ),
])


@dataclass(frozen=True)
class StepContract:
    """A whole-step bound for a step whose cost is receiver-driven."""

    algorithm: str
    step: str
    doc: str
    expr: Expr
    sweeps: int


#: DeWitt's routed runs per node: every sender can flush a final
#: partial message, and each full message holds at least
#: ``max(1, min(cm, (M-2B)/p))`` items (the sender-side cap).
_DEWITT_RUNS = Add((
    Ceil(Div(_R, Max((Const(1),
                      Min((_CM, Div(Add((Sym("M"), Mul((Const(-2), _B)))), _P))))))),
    _P,
))

STEP_CONTRACTS: dict[tuple[str, str], StepContract] = {
    ("dewitt", "2:route"): StepContract(
        algorithm="dewitt",
        step="2:route",
        doc="the sender scans its own portion block-by-block "
            "(ceil(l/B)*B read items); the receiver writes every routed "
            "item exactly once (r written items, block writes charge "
            "actual chunk sizes).  Receiver-side cost depends on the "
            "splitter balance, not on any sender-side loop bound, hence "
            "a step contract.",
        expr=Add((Mul((Ceil(Div(_L, _B)), _B)), _R)),
        sweeps=1,
    ),
    ("dewitt", "3:merge-runs"): StepContract(
        algorithm="dewitt",
        step="3:merge-runs",
        doc="k-way merge of the routed runs: r received items in at "
            "most ceil(r/cap)+p runs (cap = the sender-side message "
            "cap, >= max(1, min(cm, (M-2B)/p))) — the merge_many "
            "contract at (size=r, count=that run bound).",
        expr=merge_cost(_R, _DEWITT_RUNS),
        sweeps=1,
    ),
    ("external_psrs", "recover:salvage"): StepContract(
        algorithm="external_psrs",
        step="recover:salvage",
        doc="degraded mode (outside Algorithm 1): the buddy streams the "
            "dead node's checkpointed run — at most l+B block-granular "
            "cursor reads and l chunk writes, + one partial block.",
        expr=Add((Mul((Const(2), _L)), Mul((Const(2), _B)))),
        sweeps=1,
    ),
    ("external_psrs", "recover:remerge"): StepContract(
        algorithm="external_psrs",
        step="recover:remerge",
        doc="degraded mode (outside Algorithm 1): the buddy re-merges "
            "its own run with the salvaged one; after repeated failures "
            "the survivor may hold up to the whole input, so the "
            "merge_many contract is taken at (size=n, count=2).",
        expr=merge_cost(_N, Const(2)),
        sweeps=1,
    ),
}


def contract_for(callee_name: str) -> Optional[Contract]:
    """The function contract for a resolved callee name, if any."""
    return CONTRACTS.get(callee_name)


def step_contract_for(algorithm: str, step: str) -> Optional[StepContract]:
    """The whole-step contract for (algorithm, step), if any."""
    return STEP_CONTRACTS.get((algorithm, step))
