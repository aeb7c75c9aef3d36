"""A generic set-associative store.

`SetAssocStore` is the one array abstraction used by every tagged
structure in the package: baseline caches, TLBs, and all three metadata
stores.  It maps a *key* (whatever the client tags entries with — a line
number, a page number, a region number) to an arbitrary payload, with
pluggable indexing and replacement.

D2M's tag-less data arrays do NOT use this class; they are plain
(set, way)-addressed slots (see ``repro.core.datastore``).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.mem.replacement import LRUPolicy, PolicyFactory

T = TypeVar("T")


class Slot(Generic[T]):
    """One way of one set (slotted; created in bulk per structure)."""

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
        policy_factory: replacement policy constructor per set.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        index_fn: Optional[Callable[[int], int]] = None,
        policy_factory: PolicyFactory = LRUPolicy,
    ) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        # None means the modulo default; kept as None (not a closure) so a
        # finished hierarchy stays picklable for cross-process run fan-out.
        self._index_fn = index_fn
        self._slots: List[List[Slot[T]]] = [
            [Slot() for _ in range(ways)] for _ in range(sets)
        ]
        self._policies = [policy_factory(ways) for _ in range(sets)]
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
            self._policies[loc[0]].touch(loc[1])
        return loc[2].payload

    def contains(self, key: int) -> bool:
        return key in self._where

    def fastpath_view(self):
        """``(where, policies)`` handles for the batched driver's inlined
        hit path (``repro.sim.batch``).

        ``where`` maps key -> ``(set, way, slot)``; a fast-path hit must
        replay :meth:`lookup`'s exact effect set: read ``loc[2].payload``
        and call ``policies[loc[0]].touch(loc[1])``.  Any other outcome
        must leave both structures untouched and take the full path.
        """
        return self._where, self._policies

    def location_of(self, key: int) -> Optional[Tuple[int, int]]:
        """(set, way) of ``key`` if present."""
        loc = self._where.get(key)
        return None if loc is None else (loc[0], loc[1])

    def peek_way(self, set_idx: int, way: int) -> Slot[T]:
        """Direct slot access (tests and eviction handlers)."""
        return self._slots[set_idx][way]

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
            self._policies[set_idx].touch(way)
            return None
        set_idx = self.index_of(key)
        row = self._slots[set_idx]
        for way, slot in enumerate(row):
            if not slot.valid:
                self._fill(set_idx, way, key, payload)
                return None
        banned = []
        if protected is not None:
            banned = [
                w for w, slot in enumerate(row)
                if slot.valid and slot.payload is not None
                and protected(slot.key, slot.payload)
            ]
        victim_way = self._policies[set_idx].victim(banned)
        victim = row[victim_way]
        evicted = (victim.key, victim.payload)
        del self._where[victim.key]
        self._fill(set_idx, victim_way, key, payload)
        assert evicted[1] is not None
        return evicted  # type: ignore[return-value]

    def _fill(self, set_idx: int, way: int, key: int, payload: T) -> None:
        slot = self._slots[set_idx][way]
        slot.valid = True
        slot.key = key
        slot.payload = payload
        self._where[key] = (set_idx, way, slot)
        self._policies[set_idx].touch(way)

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
        row = self._slots[set_idx]
        if any(not slot.valid for slot in row):
            return None
        banned = []
        if protected is not None:
            banned = [
                w for w, slot in enumerate(row)
                if slot.valid and slot.payload is not None
                and protected(slot.key, slot.payload)
            ]
        victim_way = self._policies[set_idx].victim(banned)
        victim = row[victim_way]
        assert victim.payload is not None
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
            self._policies[loc[0]].touch(loc[1])

    # -- iteration / capacity -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[Tuple[int, T]]:
        for key, loc in list(self._where.items()):
            payload = loc[2].payload
            assert payload is not None
            yield key, payload

    def set_occupancy(self, set_idx: int) -> int:
        return sum(1 for slot in self._slots[set_idx] if slot.valid)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways
