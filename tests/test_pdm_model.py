"""Tests for the PDM parameter bundle and its theoretical bounds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pdm.model import PDMConfig, merge_levels


class TestValidation:
    def test_accepts_paper_like_config(self):
        cfg = PDMConfig(N=2**24, M=2**20, B=2**12, D=1, P=4)
        assert cfg.n == 2**12
        assert cfg.m == 2**8

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="N must be"):
            PDMConfig(N=-1, M=64, B=8)

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError, match="B must be"):
            PDMConfig(N=100, M=64, B=0)

    def test_rejects_memory_below_two_blocks(self):
        with pytest.raises(ValueError, match="M must be"):
            PDMConfig(N=100, M=15, B=8)

    def test_rejects_zero_disks(self):
        with pytest.raises(ValueError, match="D must be"):
            PDMConfig(N=100, M=64, B=8, D=0)

    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError, match="P must be"):
            PDMConfig(N=100, M=64, B=8, P=0)

    def test_frozen(self):
        cfg = PDMConfig(N=100, M=64, B=8)
        with pytest.raises(AttributeError):
            cfg.N = 7  # type: ignore[misc]


class TestDerived:
    def test_n_rounds_up(self):
        assert PDMConfig(N=17, M=64, B=8).n == 3

    def test_m_rounds_down(self):
        assert PDMConfig(N=17, M=63, B=8).m == 7

    def test_out_of_core_flag(self):
        assert PDMConfig(N=1000, M=64, B=8).is_out_of_core
        assert not PDMConfig(N=64, M=64, B=8).is_out_of_core

    def test_practical_constraint_from_paper(self):
        # 1 <= D*B <= M/2
        assert PDMConfig(N=100, M=64, B=8, D=4).satisfies_practical_constraint()
        assert not PDMConfig(N=100, M=64, B=8, D=5).satisfies_practical_constraint()

    def test_merge_order_leaves_output_buffer(self):
        assert PDMConfig(N=100, M=64, B=8).merge_order() == 7

    def test_merge_order_floor_two(self):
        assert PDMConfig(N=100, M=16, B=8).merge_order() == 2

    def test_with_replaces_fields(self):
        cfg = PDMConfig(N=100, M=64, B=8)
        cfg2 = cfg.with_(N=200, D=2)
        assert (cfg2.N, cfg2.D, cfg2.M) == (200, 2, 64)
        assert cfg.N == 100  # original untouched


class TestMergeLevels:
    def test_exact_powers_and_neighbours(self):
        """``k**j`` runs need exactly ``j`` passes, one more needs
        ``j + 1`` — for every (k, j), beyond float ``log`` precision."""
        for k in range(2, 300):
            for j in range(1, 12):
                runs = k**j
                assert merge_levels(runs, k) == j, (k, j)
                assert merge_levels(runs + 1, k) == j + 1, (k, j)
                below = 0 if runs - 1 <= 1 else j  # k**j - 1 > k**(j-1)
                assert merge_levels(runs - 1, k) == below, (k, j)

    def test_float_log_regressions(self):
        assert merge_levels(125, 5) == 3
        assert merge_levels(216, 6) == 3
        assert merge_levels(16807, 7) == 5
        assert merge_levels(125.0, 5) == 3

    def test_trivial_and_invalid(self):
        assert merge_levels(0, 7) == merge_levels(1, 7) == 0
        assert merge_levels(2, 7) == merge_levels(7, 7) == 1
        with pytest.raises(ValueError, match="merge order"):
            merge_levels(10, 1)


class TestBounds:
    def test_in_core_needs_zero_passes(self):
        assert PDMConfig(N=64, M=64, B=8).merge_passes() == 0

    def test_single_merge_pass(self):
        # 4 runs of 64 with merge order 7 -> one pass
        assert PDMConfig(N=256, M=64, B=8).merge_passes() == 1

    def test_pass_count_grows_with_n(self):
        small = PDMConfig(N=2**10, M=64, B=8).merge_passes()
        large = PDMConfig(N=2**16, M=64, B=8).merge_passes()
        assert large > small

    def test_sort_io_bound_zero_for_empty(self):
        assert PDMConfig(N=0, M=64, B=8).sort_io_bound() == 0.0

    def test_sort_io_bound_scales_inverse_in_d(self):
        one = PDMConfig(N=2**16, M=64, B=8, D=1).sort_io_bound()
        four = PDMConfig(N=2**16, M=64, B=8, D=4).sort_io_bound()
        assert one == pytest.approx(4 * four)

    def test_step1_bound_matches_formula(self):
        cfg = PDMConfig(N=2**14, M=64, B=8)
        l_i = 2**12
        expected = 2 * l_i * (1 + cfg.merge_passes(l_i))
        assert cfg.step1_io_bound(l_i) == expected

    def test_step1_bound_zero_items(self):
        assert PDMConfig(N=100, M=64, B=8).step1_io_bound(0) == 0.0

    @given(st.integers(min_value=1, max_value=2**20))
    def test_sort_bound_positive_and_monotone_in_n(self, n):
        cfg = PDMConfig(N=n, M=64, B=8)
        b1 = cfg.sort_io_bound()
        b2 = cfg.sort_io_bound(2 * n)
        assert b1 > 0
        assert b2 >= b1

    @given(
        st.integers(min_value=2, max_value=2**18),
        st.integers(min_value=3, max_value=64),
    )
    def test_merge_passes_vs_theory(self, n, m_blocks):
        B = 4
        cfg = PDMConfig(N=n, M=m_blocks * B, B=B)
        p = cfg.merge_passes()
        if n <= cfg.M:
            assert p == 0
        else:
            runs = math.ceil(n / cfg.M)
            assert p >= 1
            assert cfg.merge_order() ** p >= runs  # enough passes to merge all
