"""Regenerates paper Table 3: external PSRS on the loaded 4-node cluster.

Paper (N = 2^24, message 32 Kb, 15 intermediate files, 30 experiments):

    perf {1,1,1,1} / Fast-Ethernet: 303.94 s   S(max) = 1.00273
    perf {1,1,4,4} / Fast-Ethernet: 155.41 s   S(max) = 1.094
    perf {1,1,4,4} / Myrinet:       155.43 s   S(max) = 1.093

Expected shape: the hetero-aware vector ~2x faster than treating the
cluster as homogeneous; Myrinet indistinguishable from Fast-Ethernet;
S(max) close to 1 everywhere; gains vs the sequential baselines ~1.4x
(fastest node) and ~6x (slowest node).  The experiment is
:func:`repro.experiments.table3`.
"""

from helpers import once, write_result

from repro.experiments import table3


def test_table3_parallel_sort(benchmark):
    res = once(benchmark, table3)
    write_result("table3_parallel", res.render())
    t_hom, t_het, t_myr = res.times
    s_hom, s_het, _ = res.s_max
    seq_fast, seq_slow = res.sequential.times[0], res.sequential.times[2]

    # --- Shape assertions against the paper ------------------------------
    assert 1.5 < t_hom / t_het < 3.0  # paper: 1.96x
    assert 0.9 < t_myr / t_het <= 1.01  # paper: equal times
    assert s_hom < 1.05  # paper: 1.00273
    assert s_het < 1.15  # paper: 1.094
    assert seq_slow / t_het > 3.0  # paper: 6.13x (hetero beats slowest node big)
    assert seq_fast / t_het > 1.0  # paper: 1.37x (and still beats the fastest)
