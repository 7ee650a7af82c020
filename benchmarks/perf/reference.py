"""A fixed reference loop that reads the host's speed while a run measures.

This box's user-mode speed drifts by 15 % and more within seconds
(identical repetitions of one sort took 1.2 to 1.7 s inside one process,
with no page faults, no system time and the garbage collector off), so
raw medians of two identical runs differed by 7 to 20 % — wider than the
10 % bound they are judged by.  The drift is common to all interpreter-
bound code, so the worker runs this loop between the timed repetitions
and states each repetition in *calibrated* host seconds:

    calibrated_s = host_s * NOMINAL_S / mean(reference before, reference after)

``NOMINAL_S`` is what the loop takes on this box when it is quiet, so on
a quiet box calibrated and raw seconds agree; on another machine they
differ by one constant factor, which cancels between two commits
measured there.  Run-to-run spread of the calibrated median is about
2 %.  The raw times are reported too (``run.host_s_*``), and
``run.host_speed`` says how contended the run was.

The loop imports nothing from ``repro`` — an optimisation of the program
must not speed up its own yardstick — but has the instruction mix of the
merge path: an interpreter-level loop over small ``searchsorted`` /
``concatenate`` / ``sort`` / ``copy`` calls.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one ``reference_s()`` takes on the reference box when idle
#: (Xeon 2.1 GHz, Python 3.11.7, numpy 2.4.6): the minimum of 200 calls.
NOMINAL_S = 0.078

_ROUNDS = 200
_RUNS = [
    np.sort(np.random.default_rng(run).integers(0, 2**32, 4096, dtype=np.uint32))
    for run in range(8)
]


def reference_s() -> float:
    """Host seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        pos = [0] * len(_RUNS)
        for _ in range(16):
            frontier = min(int(r[min(p + 255, r.size - 1)]) for r, p in zip(_RUNS, pos))
            parts = []
            for i, r in enumerate(_RUNS):
                cut = int(np.searchsorted(r, frontier, side="right"))
                if cut > pos[i]:
                    parts.append(r[pos[i] : cut])
                    pos[i] = cut
            if parts:
                chunk = np.concatenate(parts)
                chunk.sort()
                chunk.copy()
    return time.perf_counter() - t0
