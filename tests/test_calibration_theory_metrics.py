"""Tests for the calibration protocol, the theory module and the metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import heterogeneous_cluster, homogeneous_cluster, paper_cluster
from repro.core.calibration import calibrate, sequential_sort_table
from repro.core.perf import PerfVector
from repro.core.theory import (
    homogeneous_waste_factor,
    load_balance_bound,
    max_duplicate_count,
)
from repro.metrics.expansion import partition_stats
from repro.metrics.report import Table, format_table
from repro.metrics.timing import TrialStats
from repro.workloads.records import SUPPORTED_KEY_DTYPES


class TestCalibration:
    def test_recovers_paper_perf_vector(self):
        """The Table-2 protocol must conclude {4,4,1,1} on the loaded cluster."""
        cal = calibrate(paper_cluster(memory_items=4096), 4 * 20_000, block_items=256)
        assert cal.perf.values == [4, 4, 1, 1]

    def test_loaded_nodes_about_4x_slower(self):
        cal = calibrate(paper_cluster(memory_items=4096), 4 * 20_000, block_items=256)
        ratio = cal.times[2] / cal.times[0]
        assert 3.3 < ratio < 4.7  # paper Table 2: 1910.8/492.0 = 3.88 etc.

    def test_homogeneous_gives_all_ones(self):
        cal = calibrate(
            homogeneous_cluster(3, memory_items=4096), 3 * 9_000, block_items=256
        )
        assert cal.perf.values == [1, 1, 1]

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            calibrate(homogeneous_cluster(4), 2)

    def test_table2_rows_shape(self):
        rows = sequential_sort_table(
            paper_cluster(memory_items=4096),
            sizes=[4_000, 8_000],
            repeats=2,
            block_items=256,
        )
        assert len(rows) == 8  # 4 nodes x 2 sizes
        by_node = {}
        for r in rows:
            by_node.setdefault(r.node, []).append(r)
        # Time grows with size on every node.
        for rs in by_node.values():
            assert rs[0].stats.mean < rs[1].stats.mean
        # Loaded nodes slower at equal size.
        helm = next(r for r in rows if r.node == "helmvige" and r.n_items == 8_000)
        sieg = next(r for r in rows if r.node == "siegrune" and r.n_items == 8_000)
        assert sieg.stats.mean > 3 * helm.stats.mean

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            sequential_sort_table(homogeneous_cluster(1), [100], repeats=0)


class TestTheory:
    def test_load_balance_bound(self):
        perf = PerfVector([1, 1, 4, 4])
        assert load_balance_bound(1000, perf, 0) == pytest.approx(200.0)
        assert load_balance_bound(1000, perf, 2, d_duplicates=7) == pytest.approx(807.0)

    def test_load_balance_bound_validation(self):
        perf = PerfVector([1, 1])
        with pytest.raises(ValueError):
            load_balance_bound(-1, perf, 0)
        with pytest.raises(ValueError):
            load_balance_bound(10, perf, 0, d_duplicates=-1)

    def test_max_duplicate_count(self):
        assert max_duplicate_count(np.array([1, 2, 2, 2, 3])) == 3
        assert max_duplicate_count(np.array([])) == 0
        assert max_duplicate_count(np.array([5])) == 1

    #: name -> (n, rng, dtype) -> keys
    SHAPES = {
        "empty": lambda n, rng, dt: np.array([], dtype=dt),
        "one": lambda n, rng, dt: rng.integers(0, 100, 1).astype(dt),
        "all-equal": lambda n, rng, dt: np.full(n, 7, dtype=dt),
        "all-distinct": lambda n, rng, dt: rng.permutation(n).astype(dt),
        "zipf": lambda n, rng, dt: (rng.zipf(1.3, n) % max(1, int(n**0.5))).astype(dt),
        "sorted": lambda n, rng, dt: np.sort(rng.integers(0, max(1, n // 3), n)).astype(dt),
        "uniform": lambda n, rng, dt: rng.integers(0, max(1, n // 2), n).astype(dt),
    }

    @pytest.mark.parametrize("dtype", SUPPORTED_KEY_DTYPES, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**16),
    )
    def test_max_duplicate_count_equals_unique_counts(self, dtype, shape, n, seed):
        """Exact on every key dtype: the largest count ``np.unique`` gives."""
        keys = self.SHAPES[shape](n, np.random.default_rng(seed), dtype)
        want = int(np.unique(keys, return_counts=True)[1].max()) if keys.size else 0
        assert max_duplicate_count(keys) == want

    def test_homogeneous_waste_paper_vector(self):
        assert homogeneous_waste_factor(PerfVector([1, 1, 4, 4])) == pytest.approx(2.5)

    def test_homogeneous_waste_is_one_for_homogeneous(self):
        assert homogeneous_waste_factor(PerfVector([2, 2, 2])) == pytest.approx(1.0)


class TestPartitionStats:
    def test_homogeneous_case(self):
        perf = PerfVector([1, 1, 1, 1])
        st = partition_stats([250, 260, 240, 250], perf, 1000)
        assert st.mean == pytest.approx(250.0)
        assert st.max == 260
        assert st.s_max == pytest.approx(260 / 250)

    def test_heterogeneous_fastest_view(self):
        perf = PerfVector([1, 1, 4, 4])
        st = partition_stats([100, 110, 400, 390], perf, 1000)
        assert st.mean_fastest == pytest.approx(395.0)
        assert st.s_max_fastest == pytest.approx(400 / 400)
        assert st.s_max == pytest.approx(1.1)  # node 1: 110/100

    def test_validation(self):
        perf = PerfVector([1, 1])
        with pytest.raises(ValueError):
            partition_stats([1], perf, 2)
        with pytest.raises(ValueError):
            partition_stats([-1, 3], perf, 2)


class TestTrialStats:
    def test_mean_std(self):
        s = TrialStats((1.0, 2.0, 3.0))
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert (s.min, s.max, s.n) == (1.0, 3.0, 3)

    def test_single_trial_zero_std(self):
        assert TrialStats((5.0,)).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialStats(())


class TestReport:
    def test_table_renders(self):
        t = Table("Table X", ["a", "bb"])
        t.add_row(1, 2.5)
        t.add_section("config A")
        t.add_row("x", 0.00001)
        out = t.render()
        assert "Table X" in out
        assert "config A" in out
        assert "2.500" in out

    def test_row_width_checked(self):
        t = Table("t", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_format_table_alignment(self):
        out = format_table("T", ["col"], [["123456"]])
        lines = out.splitlines()
        assert any("123456" in line for line in lines)
