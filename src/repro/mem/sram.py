"""A generic set-associative store.

`SetAssocStore` is the one array abstraction used by every tagged
structure in the package: baseline caches, TLBs, and all three metadata
stores.  It maps a *key* (whatever the client tags entries with — a line
number, a page number, a region number) to an arbitrary payload, with
pluggable indexing and true-LRU replacement.

A store is built empty: a set gets its row of ways and its LRU order
list on its first fill, and a way gets its :class:`Slot` on its first
fill (reused from then on).  A never-filled set answers every query as
an empty one, so a hierarchy pays only for the sets a run touches.

D2M's tag-less data arrays do NOT use this class; they are plain
(set, way)-addressed slots (see ``repro.core.datastore``).
"""

from __future__ import annotations

from typing import (Callable, Dict, Generic, Iterator, KeysView, List, Optional,
                    Tuple, TypeVar)

from repro.mem.replacement import lru_touch, lru_victim

T = TypeVar("T")


class Slot(Generic[T]):
    """One way of one set (slotted; created on the way's first fill)."""

    __slots__ = ("valid", "key", "payload")

    def __init__(self, valid: bool = False, key: int = 0,
                 payload: Optional[T] = None) -> None:
        self.valid = valid
        self.key = key
        self.payload = payload

    def __repr__(self) -> str:
        return f"Slot(valid={self.valid}, key={self.key}, payload={self.payload!r})"


class SetAssocStore(Generic[T]):
    """Set-associative key/payload store.

    Args:
        sets: number of sets (power of two enforced by callers' configs).
        ways: associativity.
        index_fn: maps a key to a set index; defaults to ``key % sets``.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        index_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        # None means the modulo default; kept as None (not a closure) so a
        # finished hierarchy stays picklable for cross-process run fan-out.
        self._index_fn = index_fn
        # Per-set rows of ways and LRU orders (least recent first), each
        # None until the set's first fill; a resident key's set has both.
        # The outer lists are only updated in place: the batched driver's
        # fast path holds ``_orders`` live.
        self._slots: List[List[Optional[Slot[T]]]] = [None] * sets  # type: ignore[list-item]
        self._orders: List[List[int]] = [None] * sets  # type: ignore[list-item]
        # Fast key -> (set, way, slot) map; one location per key by
        # construction.  The slot reference rides along so the hot
        # ``lookup`` path resolves payloads without double indexing.
        self._where: Dict[int, Tuple[int, int, Slot[T]]] = {}

    # -- lookup ---------------------------------------------------------------

    def index_of(self, key: int) -> int:
        idx = self._index_fn(key) if self._index_fn is not None else key % self.sets
        if not 0 <= idx < self.sets:
            raise ValueError(f"index function produced {idx} outside [0,{self.sets})")
        return idx

    def lookup(self, key: int, touch: bool = True) -> Optional[T]:
        """Payload for ``key`` or None; updates recency on hit by default."""
        loc = self._where.get(key)
        if loc is None:
            return None
        if touch:
            lru_touch(self._orders[loc[0]], loc[1])
        return loc[2].payload

    def contains(self, key: int) -> bool:
        return key in self._where

    def fastpath_view(self):
        """``(where, orders)`` handles for the batched driver's inlined
        hit path (``repro.sim.batch``).

        ``where`` maps key -> ``(set, way, slot)`` and ``orders`` is the
        live list of per-set LRU order lists; a resident key's set
        always has its order list.  A fast-path hit must replay
        :meth:`lookup`'s exact effect set: read ``loc[2].payload`` and
        :func:`lru_touch` ``orders[loc[0]]`` with ``loc[1]``.  Any other
        outcome must leave both structures untouched and take the full
        path.
        """
        return self._where, self._orders

    def location_of(self, key: int) -> Optional[Tuple[int, int]]:
        """(set, way) of ``key`` if present."""
        loc = self._where.get(key)
        return None if loc is None else (loc[0], loc[1])

    def peek_way(self, set_idx: int, way: int) -> Slot[T]:
        """Direct slot access (tests); a never-filled way reads empty."""
        row = self._slots[set_idx]
        slot = None if row is None else row[way]
        return Slot() if slot is None else slot

    # -- modification -----------------------------------------------------------

    def insert(
        self,
        key: int,
        payload: T,
        protected: Optional[Callable[[int, T], bool]] = None,
    ) -> Optional[Tuple[int, T]]:
        """Insert ``key``; returns the evicted ``(key, payload)`` if any.

        ``protected(key, payload)`` may veto victim ways holding entries
        that must not be evicted right now (e.g. regions with an ongoing
        blocking transaction); a protected way is skipped when any
        unprotected way exists.
        """
        loc = self._where.get(key)
        if loc is not None:
            set_idx, way, slot = loc
            slot.payload = payload
            lru_touch(self._orders[set_idx], way)
            return None
        set_idx = self.index_of(key)
        row = self._slots[set_idx]
        if row is None:
            row = self._slots[set_idx] = [None] * self.ways
            self._orders[set_idx] = list(range(self.ways))
        for way, slot in enumerate(row):
            if slot is None or not slot.valid:
                self._fill(set_idx, way, key, payload)
                return None
        victim_way = self._victim(set_idx, protected)
        victim = row[victim_way]
        assert victim is not None and victim.payload is not None
        evicted = (victim.key, victim.payload)
        del self._where[victim.key]
        self._fill(set_idx, victim_way, key, payload)
        return evicted

    def _fill(self, set_idx: int, way: int, key: int, payload: T) -> None:
        row = self._slots[set_idx]
        slot = row[way]
        if slot is None:
            slot = row[way] = Slot()
        slot.valid = True
        slot.key = key
        slot.payload = payload
        self._where[key] = (set_idx, way, slot)
        lru_touch(self._orders[set_idx], way)

    def _victim(self, set_idx: int,
                protected: Optional[Callable[[int, T], bool]]) -> int:
        """The LRU way of a full set, skipping ``protected`` ways."""
        row = self._slots[set_idx]
        banned: List[int] = []
        if protected is not None:
            banned = [
                w for w, slot in enumerate(row)
                if slot is not None and slot.payload is not None
                and protected(slot.key, slot.payload)
            ]
        return lru_victim(self._orders[set_idx], banned)

    def preview_victim(
        self,
        key: int,
        protected: Optional[Callable[[int, T], bool]] = None,
    ) -> Optional[Tuple[int, T]]:
        """What :meth:`insert` of ``key`` would evict right now, if anything.

        Lets callers perform expensive eviction work (e.g. a forced region
        eviction) *before* the insert, while the victim is still resident.
        Does not change recency state.
        """
        if key in self._where:
            return None
        set_idx = self.index_of(key)
        if self.set_occupancy(set_idx) < self.ways:
            return None
        victim = self._slots[set_idx][self._victim(set_idx, protected)]
        assert victim is not None and victim.payload is not None
        return victim.key, victim.payload

    def invalidate(self, key: int) -> Optional[T]:
        """Remove ``key``; returns its payload if it was present."""
        loc = self._where.pop(key, None)
        if loc is None:
            return None
        slot = loc[2]
        payload = slot.payload
        slot.valid = False
        slot.payload = None
        return payload

    def touch(self, key: int) -> None:
        loc = self._where.get(key)
        if loc is not None:
            lru_touch(self._orders[loc[0]], loc[1])

    # -- iteration / capacity -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def keys(self) -> KeysView[int]:
        """The resident keys (a live, read-only view)."""
        return self._where.keys()

    def __iter__(self) -> Iterator[Tuple[int, T]]:
        for key, loc in list(self._where.items()):
            payload = loc[2].payload
            assert payload is not None
            yield key, payload

    def set_occupancy(self, set_idx: int) -> int:
        row = self._slots[set_idx]
        if row is None:
            return 0
        return sum(1 for slot in row if slot is not None and slot.valid)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways
