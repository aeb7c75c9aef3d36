"""Unit + property tests for the shared true-LRU order lists."""

from hypothesis import given, strategies as st
import pytest

from repro.core.datastore import DataArray
from repro.mem.replacement import lru_touch, lru_victim


def touched(ways, touches):
    order = list(range(ways))
    for way in touches:
        lru_touch(order, way)
    return order


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        assert lru_victim(list(range(4))) == 0

    def test_victim_is_least_recent(self):
        assert lru_victim(touched(4, (0, 1, 2, 3, 0, 1))) == 2

    def test_protected_skipped(self):
        assert lru_victim(touched(4, range(4)), banned=[0]) == 1

    def test_all_protected_falls_back(self):
        assert lru_victim(touched(2, (0, 1)), banned=[0, 1]) == 0

    def test_mru_way(self):
        arr = DataArray("a", 2, 4)
        assert arr.mru_way(1) == 3  # a never-touched set reads 0..ways-1
        arr.touch(1, 2)
        assert arr.mru_way(1) == 2
        assert arr.mru_way(0) == 3

    def test_rejects_bad_way(self):
        with pytest.raises(ValueError):
            lru_touch(list(range(4)), 4)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    def test_victim_never_mru(self, touches):
        order = touched(8, touches)
        assert sorted(order) == list(range(8))
        assert lru_victim(order) != order[-1] == touches[-1]
