"""Tests for the performance vector and the Eq.-2 size condition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.perf import PerfVector


class TestConstruction:
    def test_paper_vector(self):
        perf = PerfVector([1, 1, 4, 4])
        assert perf.p == 4
        assert perf.total == 10
        assert perf.lcm == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PerfVector([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PerfVector([1, 0])

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            PerfVector([1, 2.5])
        with pytest.raises(TypeError):
            PerfVector([True, 2])

    def test_equality_and_iteration(self):
        a = PerfVector([1, 2])
        assert a == PerfVector([1, 2])
        assert a != PerfVector([2, 1])
        assert list(a) == [1, 2]
        assert a[1] == 2
        assert len(a) == 2


class TestEq2:
    def test_paper_example(self):
        """k=1, perf={8,5,3,1}: lcm=120, n = 120+3*120+5*120+8*120 = 2040."""
        perf = PerfVector([8, 5, 3, 1])
        assert perf.lcm == 120
        assert perf.admissible_size(1) == 2040
        assert perf.is_admissible(2040)
        assert not perf.is_admissible(2041)

    def test_paper_table3_size(self):
        """{1,1,4,4}: the paper grows 2^24 to 16777220 (integral portions)."""
        perf = PerfVector([1, 1, 4, 4])
        assert perf.portion_granularity == 10
        assert perf.nearest_exact(2**24) == 16777220
        # The strict Eq.-2 size is coarser (granularity lcm*total = 40).
        assert perf.nearest_admissible(2**24) == 16777240

    def test_nearest_exact_validation(self):
        with pytest.raises(ValueError):
            PerfVector([1, 1]).nearest_exact(0)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.integers(1, 10**6))
    def test_property_nearest_exact_portions_integral(self, vals, n):
        perf = PerfVector(vals)
        m = perf.nearest_exact(n)
        assert m >= n
        for i in range(perf.p):
            assert (m * perf[i]) % perf.total == 0

    def test_granularity(self):
        assert PerfVector([1, 1, 4, 4]).granularity == 40

    def test_admissible_size_k_validation(self):
        with pytest.raises(ValueError):
            PerfVector([1, 1]).admissible_size(0)

    def test_nearest_admissible_validation(self):
        with pytest.raises(ValueError):
            PerfVector([1, 1]).nearest_admissible(0)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.integers(1, 50))
    def test_admissible_sizes_are_admissible(self, vals, k):
        perf = PerfVector(vals)
        assert perf.is_admissible(perf.admissible_size(k))


class TestPortions:
    def test_exact_portions_paper(self):
        perf = PerfVector([8, 5, 3, 1])
        assert perf.exact_portions(2040) == [960, 600, 360, 120]

    def test_exact_requires_admissible(self):
        with pytest.raises(ValueError, match="Eq. 2"):
            PerfVector([1, 1, 4, 4]).exact_portions(100)

    def test_portions_match_exact_when_admissible(self):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.admissible_size(3)
        assert perf.portions(n) == perf.exact_portions(n)

    def test_portions_sum_and_proximity(self):
        perf = PerfVector([3, 2, 2])
        parts = perf.portions(100)
        assert sum(parts) == 100
        for i, part in enumerate(parts):
            assert abs(part - perf.optimal_share(100, i)) < 1

    def test_portions_zero(self):
        assert PerfVector([1, 2]).portions(0) == [0, 0]

    def test_portions_negative_rejected(self):
        with pytest.raises(ValueError):
            PerfVector([1]).portions(-1)

    def test_optimal_share_bounds(self):
        perf = PerfVector([1, 3])
        assert perf.optimal_share(8, 0) == pytest.approx(2.0)
        assert perf.optimal_share(8, 1) == pytest.approx(6.0)
        with pytest.raises(IndexError):
            perf.optimal_share(8, 2)

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(0, 10_000),
    )
    def test_property_portions_partition_n(self, vals, n):
        perf = PerfVector(vals)
        parts = perf.portions(n)
        assert sum(parts) == n
        assert all(x >= 0 for x in parts)
        for i, part in enumerate(parts):
            assert abs(part - perf.optimal_share(n, i)) <= 1


class TestFromSpeeds:
    def test_paper_calibration(self):
        """Measured ratios near 4 round to the {4,4,1,1} vector."""
        perf = PerfVector.from_speeds([4.06, 4.03, 1.0, 0.97])
        assert perf.values == [4, 4, 1, 1]

    def test_all_equal(self):
        assert PerfVector.from_speeds([2.0, 2.0]).values == [1, 1]

    def test_caps_huge_ratio(self):
        assert PerfVector.from_speeds([1000.0, 1.0]).values == [64, 1]

    def test_rejects_bad_speeds(self):
        with pytest.raises(ValueError):
            PerfVector.from_speeds([])
        with pytest.raises(ValueError):
            PerfVector.from_speeds([1.0, -2.0])

    @given(st.lists(st.floats(0.1, 50), min_size=1, max_size=8))
    def test_property_always_valid_vector(self, speeds):
        perf = PerfVector.from_speeds(speeds)
        assert all(v >= 1 for v in perf.values)
        assert min(perf.values) == 1  # normalised by the slowest node
