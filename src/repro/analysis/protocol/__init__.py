"""Communication-protocol verification: the rules REP201..REP206.

Layered on the flow engine's project model
(:mod:`repro.analysis.flow.project`), this subpackage abstract-interprets
each function into a per-rank communication summary (:mod:`.extract`)
and derives six rules from it (:mod:`.rules`):

=======  ==============================  =================================
code     name                            invariant
=======  ==============================  =================================
REP201   collective-order-divergence     every rank issues the same
                                         collective sequence
REP202   root-mismatch                   collective roots agree across
                                         ranks
REP203   unmatched-send                  no definite self-sends
REP204   collective-in-rank-loop         collectives run once per
                                         superstep, not per rank
REP205   barrier-inconsistency           barriers/steps reached by all
                                         ranks
REP206   degraded-view-rank              view comm addressed by position,
                                         not global rank
=======  ==============================  =================================

The rules run through the whole-project runner
(:func:`repro.analysis.flow.run_project`) as the ``protocol`` row of the
pass table in :mod:`repro.analysis.cli`;
:func:`~repro.analysis.protocol.schema.extract_schema` is the
``--emit-schema`` per-step JSON the trace-conformance checker in
:mod:`repro.obs.conformance` validates recorded runs against.
"""

from __future__ import annotations

from repro.analysis.protocol.extract import (
    FunctionSummary,
    protocol_summaries,
    summarize_function,
)
from repro.analysis.protocol.rules import ProtocolRule
from repro.analysis.protocol.schema import (
    KNOWN_ENTRIES,
    PROTOCOL_SCHEMA_VERSION,
    extract_schema,
    emit_schemas,
)

#: version of the protocol engine, reported in the JSON payload
PROTOCOL_ENGINE_VERSION = "1.0"

__all__ = [
    "KNOWN_ENTRIES",
    "PROTOCOL_ENGINE_VERSION",
    "PROTOCOL_SCHEMA_VERSION",
    "FunctionSummary",
    "ProtocolRule",
    "emit_schemas",
    "extract_schema",
    "protocol_summaries",
    "summarize_function",
]
