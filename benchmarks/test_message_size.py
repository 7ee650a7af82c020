"""Regenerates the paper's §5 in-text message-size experiment.

Paper (homogeneous config, N = 2^21, Fast-Ethernet): with 8-integer
packets the parallel sort takes 133.61 s — *worse than sorting
sequentially*; with 8K-integer messages it takes 32.6 s; "It seems that
8K gives the best time performance."

Expected shape: a steep cliff at tiny message sizes (per-message latency
dominated), a flat optimum around 8K integers, and the tiny-message
parallel run losing to the fastest sequential node.  The experiment is
:func:`repro.experiments.message_sweep`.
"""

from helpers import once, write_result

from repro.experiments import message_sweep


def test_message_size_sweep(benchmark):
    res = once(benchmark, message_sweep)
    write_result("message_size", res.render())
    times, t_seq, best = res.runs, res.t_seq, res.best

    # Shape assertions.
    t8 = times[8].elapsed
    t8k = times[8192].elapsed
    assert t8 > 3 * t8k  # paper: 133.6 vs 32.6 = 4.1x
    assert t8 > t_seq  # tiny packets lose to the sequential sort
    assert t8k < t_seq  # good packets win
    # Flat optimum once messages exceed the small-send threshold: anything
    # from 512 ints up performs within a few percent of the paper's 8K.
    assert times[best].elapsed > 0.95 * t8k
    # Monotone improvement up to the optimum region.
    assert times[8].elapsed > times[64].elapsed > times[512].elapsed
