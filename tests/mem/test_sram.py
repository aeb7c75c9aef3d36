"""Unit + property tests for the generic set-associative store."""

import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from repro.common.params import all_configs
from repro.core.datastore import DataArray
from repro.core.hierarchy import build_hierarchy
from repro.mem.sram import SetAssocStore, Slot

#: tracemalloc peak of one ``build_hierarchy`` call; an eager build of
#: every set measured 7.5-14.6 MiB per config, an empty one 0.1-0.7 MiB
BUILD_PEAK_BOUND = 2 << 20


def arrays_of(root):
    """Every SetAssocStore and DataArray reachable from ``root``."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (SetAssocStore, DataArray)):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            todo.extend(getattr(obj, "__dict__", {}).values())
    return found


def eager(store):
    """``store`` with every set created up front, as an eager build does."""
    store._slots = [[Slot() for _ in range(store.ways)]
                    for _ in range(store.sets)]
    store._orders = [list(range(store.ways)) for _ in range(store.sets)]
    return store


class TestBasics:
    def test_miss_returns_none(self):
        store = SetAssocStore(4, 2)
        assert store.lookup(42) is None

    def test_insert_then_hit(self):
        store = SetAssocStore(4, 2)
        store.insert(42, "payload")
        assert store.lookup(42) == "payload"

    def test_insert_same_key_replaces(self):
        store = SetAssocStore(4, 2)
        store.insert(1, "a")
        assert store.insert(1, "b") is None
        assert store.lookup(1) == "b"
        assert len(store) == 1

    def test_eviction_returns_victim(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        victim = store.insert(2, "c")
        assert victim == (0, "a")  # LRU

    def test_lru_updated_on_lookup(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        store.lookup(0)
        assert store.insert(2, "c") == (1, "b")

    def test_peek_does_not_touch(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        store.lookup(0, touch=False)
        assert store.insert(2, "c") == (0, "a")

    def test_invalidate(self):
        store = SetAssocStore(4, 2)
        store.insert(5, "x")
        assert store.invalidate(5) == "x"
        assert store.lookup(5) is None
        assert store.invalidate(5) is None

    def test_location_of(self):
        store = SetAssocStore(4, 2)
        store.insert(6, "x")
        set_idx, way = store.location_of(6)
        assert set_idx == 6 % 4
        slot = store.peek_way(set_idx, way)
        assert slot.key == 6 and slot.payload == "x"


class TestProtection:
    def test_protected_way_skipped(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "keep")
        store.insert(1, "evictable")
        victim = store.insert(2, "new",
                              protected=lambda k, p: p == "keep")
        assert victim == (1, "evictable")

    def test_preview_matches_insert(self):
        store = SetAssocStore(1, 4)
        for key in range(4):
            store.insert(key, f"p{key}")
        preview = store.preview_victim(9)
        victim = store.insert(9, "new")
        assert preview == victim

    def test_preview_none_when_free(self):
        store = SetAssocStore(1, 4)
        store.insert(0, "a")
        assert store.preview_victim(1) is None

    def test_preview_none_when_present(self):
        store = SetAssocStore(1, 1)
        store.insert(0, "a")
        assert store.preview_victim(0) is None


class TestLazySets:
    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_every_config_builds_empty(self, config):
        tracemalloc.start()
        try:
            hierarchy = build_hierarchy(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = arrays_of(hierarchy)
        kinds = {type(a) for a in arrays}
        assert SetAssocStore in kinds and len(arrays) >= 3 * config.nodes
        if config.name.startswith("D2M"):
            assert DataArray in kinds
        for array in arrays:
            if isinstance(array, SetAssocStore):
                assert array._slots == array._orders == [None] * array.sets
            else:
                assert array._lru == [None] * array.sets
                assert not any(isinstance(row, list) for row in array._slots)
        assert peak < BUILD_PEAK_BOUND, f"{config.name}: {peak} B"

    def test_store_is_built_empty(self):
        store = SetAssocStore(8, 4)
        assert store._slots == [None] * 8 and store._orders == [None] * 8
        store.insert(3, "x")
        assert [i for i, row in enumerate(store._slots) if row] == [3]
        assert sum(slot is not None for slot in store._slots[3]) == 1

    def test_untouched_set_answers_as_an_empty_one(self):
        lazy, made = SetAssocStore(4, 2), eager(SetAssocStore(4, 2))
        for store in (lazy, made):
            store.insert(1, "a")
        for set_idx in (0, 2, 3):
            assert lazy.set_occupancy(set_idx) == made.set_occupancy(set_idx) == 0
            assert lazy.preview_victim(set_idx) is made.preview_victim(set_idx) is None
            for way in range(2):
                got, want = lazy.peek_way(set_idx, way), made.peek_way(set_idx, way)
                assert (got.valid, got.key, got.payload) == (
                    want.valid, want.key, want.payload) == (False, 0, None)

    def test_invalidated_way_keeps_its_slot(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        slot = store.peek_way(0, 0)
        store.invalidate(0)
        store.insert(4, "b")
        assert store.peek_way(0, 0) is slot and slot.key == 4


class TestCustomIndex:
    def test_index_fn_used(self):
        store = SetAssocStore(4, 1, index_fn=lambda key: (key >> 4) % 4)
        store.insert(0x10, "a")
        assert store.location_of(0x10)[0] == 1

    def test_bad_index_fn_rejected(self):
        store = SetAssocStore(4, 1, index_fn=lambda key: 99)
        with pytest.raises(ValueError):
            store.insert(1, "a")


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
                          st.integers(0, 63)), max_size=300))
def test_model_conformance(ops):
    """The store behaves like a bounded dict (presence-wise), and a
    store built empty makes every choice an eagerly built one makes."""
    store = SetAssocStore(4, 4)
    twin = eager(SetAssocStore(4, 4))
    model = {}
    for op, key in ops:
        assert store.preview_victim(key) == twin.preview_victim(key)
        assert store.location_of(key) == twin.location_of(key)
        if op == "insert":
            victim = store.insert(key, key * 10)
            assert twin.insert(key, key * 10) == victim
            model[key] = key * 10
            if victim is not None:
                del model[victim[0]]
        elif op == "lookup":
            got = store.lookup(key)
            assert got == model.get(key) == twin.lookup(key)
        else:
            got = store.invalidate(key)
            assert got == model.pop(key, None) == twin.invalidate(key)
        assert len(store) == len(model)
        # capacity per set never exceeded
        for set_idx in range(4):
            assert store.set_occupancy(set_idx) <= 4
