"""Tests for the memory budget manager."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pdm.memory import MemoryBudgetError, MemoryManager


class TestMemoryManager:
    def test_acquire_release(self):
        m = MemoryManager(capacity=10)
        m.acquire(6)
        assert m.in_use == 6
        m.release(4)
        assert m.in_use == 2

    def test_over_budget_raises(self):
        m = MemoryManager(capacity=10)
        m.acquire(8)
        with pytest.raises(MemoryBudgetError, match="budget exceeded"):
            m.acquire(3)
        assert m.in_use == 8  # failed acquire left state intact

    def test_release_more_than_held_raises(self):
        m = MemoryManager(capacity=10)
        m.acquire(2)
        with pytest.raises(ValueError, match="only 2"):
            m.release(3)

    def test_negative_amounts_rejected(self):
        m = MemoryManager(capacity=10)
        with pytest.raises(ValueError):
            m.acquire(-1)
        with pytest.raises(ValueError):
            m.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryManager(capacity=0)

    def test_high_water_tracks_peak(self):
        m = MemoryManager(capacity=100)
        m.acquire(30)
        m.acquire(40)
        m.release(60)
        m.acquire(5)
        assert m.high_water == 70

    def test_reserve_context_releases_on_error(self):
        m = MemoryManager(capacity=10)
        with pytest.raises(RuntimeError):
            with m.reserve(7):
                assert m.in_use == 7
                raise RuntimeError("boom")
        assert m.in_use == 0

    def test_unlimited(self):
        m = MemoryManager(None)
        m.acquire(10**12)
        assert m.available > 10**15

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
    def test_nested_reserves_always_balance(self, amounts):
        m = MemoryManager(capacity=50 * 40 + 1)
        import contextlib

        with contextlib.ExitStack() as stack:
            for a in amounts:
                stack.enter_context(m.reserve(a))
            assert m.in_use == sum(amounts)
        assert m.in_use == 0
