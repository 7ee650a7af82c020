"""Tests for the tournament (loser) tree."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.extsort.losertree import LoserTree


class TestLoserTree:
    def test_single_source(self):
        t = LoserTree([5])
        assert t.winner == 0
        t.replace(t.winner, None)
        assert t.exhausted

    def test_winner_is_minimum(self):
        t = LoserTree([7, 3, 9, 1, 5])
        assert t.winner == 3

    def test_replace_winner_promotes_next(self):
        t = LoserTree([7, 3, 9, 1, 5])
        t.replace(t.winner, None)
        assert t.winner == 1  # key 3
        t.replace(t.winner, None)
        assert t.winner == 4  # key 5

    def test_none_keys_at_init(self):
        t = LoserTree([None, 4, None])
        assert t.winner == 1
        t.replace(t.winner, None)
        assert t.exhausted

    def test_replace_out_of_range(self):
        t = LoserTree([1, 2])
        with pytest.raises(IndexError):
            t.replace(2, 5)

    def test_pop_push(self):
        t = LoserTree([4, 2, 6])
        key, src = t.pop_push(9)
        assert (key, src) == (2, 1)
        assert t.winner == 0  # key 4

    def test_pop_push_exhausted_raises(self):
        t = LoserTree([None])
        with pytest.raises(RuntimeError, match="exhausted"):
            t.pop_push(1)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            LoserTree([])

    def test_non_winner_replace(self):
        # Thawing a frozen (non-winner) leaf must keep the tree consistent.
        t = LoserTree([5, 10, 20])
        t.replace(2, 1)  # leaf 2 was a loser; now smallest
        assert t.winner == 2

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=64))
    def test_drains_in_sorted_order(self, keys):
        t = LoserTree(list(keys))
        out = []
        while not t.exhausted:
            out.append(keys[t.winner])
            t.replace(t.winner, None)
        assert out == sorted(keys)

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=32),
        st.lists(st.integers(0, 100), max_size=64),
    )
    def test_matches_heap_under_replacements(self, init, stream):
        """Drive the tree and a heap with the same pop/push sequence."""
        t = LoserTree(list(init))
        h = list(init)
        heapq.heapify(h)
        feed = iter(stream)
        while not t.exhausted:
            nxt = next(feed, None)
            key, _src = t.pop_push(nxt)
            assert key == heapq.heappop(h)
            if nxt is not None:
                heapq.heappush(h, nxt)
        assert not h

    def test_comparison_count_is_logarithmic(self):
        k = 64
        t = LoserTree(list(range(k)))
        t.comparisons = 0
        n_ops = 1000
        for i in range(n_ops):
            t.pop_push(i)  # keep the tree full
        # ceil(log2 64) = 6 comparisons per replacement
        assert t.comparisons <= 6 * n_ops

