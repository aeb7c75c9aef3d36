"""Unit + property tests for the tag-less data arrays."""

from hypothesis import given, strategies as st
import pytest

from repro.common.errors import InvariantViolation
from repro.core.datastore import DataArray, DataLine, LineRole
from repro.core.li import LI


def line(n, region=None, role=LineRole.REPLICA):
    return DataLine(n, region if region is not None else n >> 4, 0, False,
                    role, rp=LI.mem())


class TestSlots:
    def test_put_get_clear(self):
        arr = DataArray("a", 4, 2)
        arr.put(1, 0, line(0x10))
        assert arr.get(1, 0).line == 0x10
        assert arr.clear(1, 0).line == 0x10
        assert arr.get(1, 0) is None

    def test_put_over_valid_rejected(self):
        arr = DataArray("a", 4, 2)
        arr.put(0, 0, line(1))
        with pytest.raises(InvariantViolation):
            arr.put(0, 0, line(2))

    def test_clear_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            DataArray("a", 4, 2).clear(0, 0)

    def test_expect_deterministic(self):
        arr = DataArray("a", 4, 2)
        arr.put(2, 1, line(0x42))
        assert arr.expect(2, 1, 0x42).line == 0x42
        with pytest.raises(InvariantViolation):
            arr.expect(2, 1, 0x43)

    def test_scramble_changes_set(self):
        arr = DataArray("a", 64, 4)
        assert arr.set_of(0x100, 0) != arr.set_of(0x100, 5) or True
        # scramble is deterministic
        assert arr.set_of(0x100, 5) == arr.set_of(0x100, 5)


class TestVictims:
    def test_free_way_preferred(self):
        arr = DataArray("a", 1, 4)
        arr.put(0, 0, line(1))
        assert arr.victim_way(0) != 0 or arr.free_way(0) is None

    def test_lru_when_full(self):
        arr = DataArray("a", 1, 2)
        arr.put(0, 0, line(1))
        arr.put(0, 1, line(2))
        arr.touch(0, 0)
        assert arr.victim_way(0) == 1

    def test_cost_overrides_lru(self):
        arr = DataArray("a", 1, 2)
        arr.put(0, 0, line(1, role=LineRole.MASTER))
        arr.put(0, 1, line(2, role=LineRole.REPLICA))
        arr.touch(0, 0)
        arr.touch(0, 1)  # replica is MRU but still cheapest
        victim = arr.victim_way(
            0, cost=lambda s: 0 if s.role is LineRole.REPLICA else 1)
        assert victim == 1

    def test_replacements_counted_only_when_full(self):
        arr = DataArray("a", 1, 2)
        arr.victim_way(0)
        assert arr.replacements == 0
        arr.put(0, 0, line(1))
        arr.put(0, 1, line(2))
        arr.victim_way(0)
        assert arr.replacements == 1

    def test_recency_helpers(self):
        arr = DataArray("a", 1, 4)
        for way in range(4):
            arr.put(0, way, line(way))
        arr.touch(0, 2)
        assert arr.mru_way(0) == 2
        assert arr.is_mru(0, 2)
        assert arr.is_recent(0, 2)
        assert not arr.is_recent(0, 0)


def eager(arr):
    """``arr`` with every row and LRU list created, as an eager build does."""
    arr._slots = [[None] * arr.ways for _ in range(arr.sets)]
    arr._lru = [list(range(arr.ways)) for _ in range(arr.sets)]
    return arr


class TestLazySets:
    def test_array_is_built_empty(self):
        arr = DataArray("a", 8, 4)
        assert arr._lru == [None] * 8
        assert len({id(row) for row in arr._slots}) == 1
        arr.put(5, 2, line(1))
        assert [i for i, order in enumerate(arr._lru) if order] == [5]
        assert isinstance(arr._slots[5], list)
        assert not isinstance(arr._slots[4], list)

    def test_untouched_set_answers_as_an_empty_one(self):
        lazy, made = DataArray("a", 4, 4), eager(DataArray("a", 4, 4))
        for arr in (lazy, made):
            arr.put(0, 1, line(7))
        for set_idx in (1, 2, 3):
            assert lazy.free_way(set_idx) == made.free_way(set_idx) == 0
            assert lazy.victim_way(set_idx) == made.victim_way(set_idx) == 0
            assert lazy.mru_way(set_idx) == made.mru_way(set_idx) == 3
            for way in range(4):
                assert lazy.get(set_idx, way) is made.get(set_idx, way) is None
                assert lazy.is_mru(set_idx, way) == made.is_mru(set_idx, way)
                assert (lazy.is_recent(set_idx, way)
                        == made.is_recent(set_idx, way))
                for arr in (lazy, made):
                    with pytest.raises(InvariantViolation,
                                       match="expected line 0x7, found None"):
                        arr.expect(set_idx, way, 7)
        assert lazy.replacements == made.replacements == 0
        assert list(lazy) == list(made)


class TestRegionIndex:
    def test_lines_of_region(self):
        arr = DataArray("a", 8, 2)
        arr.put(0, 0, line(0x100, region=7))
        arr.put(1, 0, line(0x101, region=7))
        arr.put(2, 0, line(0x200, region=9))
        found = arr.lines_of_region(7)
        assert sorted(slot.line for _s, _w, slot in found) == [0x100, 0x101]
        assert arr.region_line_count(7) == 2
        assert arr.region_line_count(9) == 1

    def test_region_index_maintained_on_clear(self):
        arr = DataArray("a", 8, 2)
        arr.put(0, 0, line(0x100, region=7))
        arr.clear(0, 0)
        assert arr.region_line_count(7) == 0
        assert arr.lines_of_region(7) == []


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                          st.integers(0, 255)), max_size=120))
def test_occupancy_model(ops):
    """put/clear keeps occupancy and the region index consistent, and an
    array built empty makes every choice an eagerly built one makes."""
    arr = DataArray("a", 4, 2)
    twin = eager(DataArray("a", 4, 2))
    model = {}
    for set_idx, way, n in ops:
        assert arr.victim_way(set_idx) == twin.victim_way(set_idx)
        assert arr.is_recent(set_idx, way) == twin.is_recent(set_idx, way)
        if (set_idx, way) in model:
            got = arr.clear(set_idx, way)
            assert got.line == model.pop((set_idx, way))
            twin.clear(set_idx, way)
        else:
            arr.put(set_idx, way, line(n))
            twin.put(set_idx, way, line(n))
            model[(set_idx, way)] = n
    assert arr.occupancy() == len(model)
    regions = {}
    for v in model.values():
        regions[v >> 4] = regions.get(v >> 4, 0) + 1
    for region, count in regions.items():
        assert arr.region_line_count(region) == count
