"""Regenerates paper Table 2: sequential external sort per node.

Paper: polyphase merge sort of 2^21..2^25 integers on each of the four
nodes (two loaded ~4x); the time ratios fill the perf array {4,4,1,1}
(the paper writes it {1,1,4,4} with the loaded pair first).  Expected
shape: loaded nodes ~4x slower at every size, ratio stable, calibration
recovers the vector.  The experiment is :func:`repro.experiments.table2`.
"""

from helpers import once, write_result

from repro.experiments import TABLE2_SIZES, table2


def test_table2_sequential_sort(benchmark):
    res = once(benchmark, table2)
    write_result("table2_sequential", res.render())
    by, node_order, cal = res.mean_times, res.node_order, res.calibration.result
    ratio_s, ratio_r = res.ratios

    # Shape assertions: the loaded pair is ~4x slower, stably across sizes.
    assert 3.0 < ratio_s < 5.0
    assert 3.0 < ratio_r < 5.0
    assert cal.perf.values == [4, 4, 1, 1]
    for node in node_order:
        times = [by[(node, n)] for n in TABLE2_SIZES]
        assert times == sorted(times)  # monotone in N
