"""Tag-less data arrays for D2M.

A `DataArray` is a plain SRAM of (set, way) slots — no address tags, no
comparators.  Lines are *only* reachable through metadata LI pointers, so
a slot records which line it holds purely for simulation bookkeeping and
invariant checking (hardware stores the Tracking Pointer instead; we
model the TP by keeping ``region`` on the slot and resolving the active
metadata entry through the owning node's stores).

Every slot carries the paper's per-line eviction metadata:

* ``role`` — MASTER (the coherence master copy), REPLICA (a non-master
  copy; evicted silently), or VICTIM_SLOT (an LLC slot reserved as the
  victim location of a master living in some node).
* ``rp`` — the Replacement Pointer: for a master, the victim location
  that becomes master on eviction; for a replica, the master's location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Callable, Iterator, KeysView, List, Optional, Sequence,
                    Tuple)

from repro.common.errors import InvariantViolation
from repro.core.li import LI
from repro.mem.replacement import lru_touch

_SCRAMBLE_SPREAD = 0x9E37  # multiplicative spread for the index scramble


class LineRole(enum.Enum):
    MASTER = "master"
    REPLICA = "replica"
    VICTIM_SLOT = "victim-slot"


@dataclass
class DataLine:
    """Contents and eviction metadata of one data-array slot."""

    line: int
    region: int
    version: int
    dirty: bool
    role: LineRole
    rp: Optional[LI] = None
    #: for LLC slots: which node's metadata tracks this slot (None = MD3)
    tracked_by_node: Optional[int] = None

    @property
    def is_master(self) -> bool:
        return self.role is LineRole.MASTER


class DataArray:
    """One tag-less SRAM array addressed by (set, way).

    Built empty: every row starts as one all-``None`` tuple shared by the
    array and becomes a list on its first :meth:`put`; a set's LRU order
    list is created on its first :meth:`touch`.  A never-filled set
    answers every query as an empty one.
    """

    def __init__(self, name: str, sets: int, ways: int) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.name = name
        self.sets = sets
        self.ways = ways
        # Rows share one all-None tuple until their first put; LRU order
        # per set (least recent first), None until the set's first touch.
        # The outer lists are only updated in place: the batched driver's
        # fast path holds both live.
        self._slots: List[Sequence[Optional[DataLine]]] = [(None,) * ways] * sets
        self._lru: List[List[int]] = [None] * sets  # type: ignore[list-item]
        # region -> occupied (set, way) slots, for O(present) forced evictions.
        self._by_region: dict = {}
        self.replacements = 0  # pressure signal for the NS-LLC policy

    # -- indexing -----------------------------------------------------------

    def set_of(self, line: int, scramble: int = 0) -> int:
        """Set index for ``line`` under a region's index scramble."""
        mask = self.sets - 1
        return (line ^ (scramble * _SCRAMBLE_SPREAD)) & mask

    def fastpath_view(self):
        """``(slots, lru, set_mask)`` handles for the batched driver.

        The fast path indexes ``slots[(line ^ scramble * 0x9E37) &
        set_mask][way]`` (the :meth:`set_of`/:meth:`expect` pair) and
        replays :meth:`touch` by hand on the live ``lru`` order lists (a
        set holding a line has one: :meth:`put` touches); any slot/line
        mismatch must fall back to the full machine, which raises the
        same invariant violation :meth:`expect` would.
        """
        return self._slots, self._lru, self.sets - 1

    # -- slot access -----------------------------------------------------------

    def get(self, set_idx: int, way: int) -> Optional[DataLine]:
        return self._slots[set_idx][way]

    def expect(self, set_idx: int, way: int, line: int) -> DataLine:
        """Deterministic-LI access: the slot MUST hold ``line``."""
        slot = self._slots[set_idx][way]
        if slot is None or slot.line != line:
            raise InvariantViolation(
                f"{self.name}[{set_idx}][{way}]: expected line {line:#x}, "
                f"found {slot.line if slot else None}"
            )
        return slot

    def put(self, set_idx: int, way: int, data: DataLine) -> None:
        row = self._slots[set_idx]
        if row[way] is not None:
            raise InvariantViolation(
                f"{self.name}[{set_idx}][{way}]: overwriting a valid slot"
            )
        if not isinstance(row, list):
            row = self._slots[set_idx] = list(row)
        row[way] = data
        self._by_region.setdefault(data.region, set()).add((set_idx, way))
        self.touch(set_idx, way)

    def clear(self, set_idx: int, way: int) -> DataLine:
        slot = self._slots[set_idx][way]
        if slot is None:
            raise InvariantViolation(
                f"{self.name}[{set_idx}][{way}]: clearing an empty slot"
            )
        self._slots[set_idx][way] = None  # type: ignore[index]
        members = self._by_region.get(slot.region)
        if members is not None:
            members.discard((set_idx, way))
            if not members:
                del self._by_region[slot.region]
        return slot

    def touch(self, set_idx: int, way: int) -> None:
        order = self._lru[set_idx]
        if order is None:
            order = self._lru[set_idx] = list(range(self.ways))
        lru_touch(order, way)

    def _order(self, set_idx: int) -> Sequence[int]:
        """The set's LRU order; a never-touched set reads ``0..ways-1``."""
        return self._lru[set_idx] or range(self.ways)

    # -- victim selection -----------------------------------------------------------

    def free_way(self, set_idx: int) -> Optional[int]:
        for way, slot in enumerate(self._slots[set_idx]):
            if slot is None:
                return way
        return None

    def victim_way(
        self,
        set_idx: int,
        cost: Optional[Callable[[DataLine], int]] = None,
    ) -> int:
        """Pick a victim: a free way, else cheapest-by-``cost``, LRU-first.

        ``cost`` maps a resident line to an eviction cost class (lower is
        preferred); by default all classes are equal and pure LRU wins.
        """
        free = self.free_way(set_idx)
        if free is not None:
            return free
        self.replacements += 1
        best_way = None
        best_key: Optional[Tuple[int, int]] = None
        for recency, way in enumerate(self._lru[set_idx]):
            slot = self._slots[set_idx][way]
            assert slot is not None
            key = (cost(slot) if cost else 0, recency)
            if best_key is None or key < best_key:
                best_key = key
                best_way = way
        assert best_way is not None
        return best_way

    def mru_way(self, set_idx: int) -> int:
        return self._order(set_idx)[-1]

    def is_mru(self, set_idx: int, way: int) -> bool:
        return self.mru_way(set_idx) == way

    def is_recent(self, set_idx: int, way: int) -> bool:
        """In the most-recent half of the set's recency stack."""
        order = self._order(set_idx)
        return way in order[len(order) // 2:]

    # -- inspection -----------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, int, DataLine]]:
        for set_idx, row in enumerate(self._slots):
            for way, slot in enumerate(row):
                if slot is not None:
                    yield set_idx, way, slot

    def occupancy(self) -> int:
        return sum(1 for _ in self)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def lines_of_region(self, region: int) -> List[Tuple[int, int, DataLine]]:
        """All slots holding lines of ``region`` (forced-eviction helper).

        One region-index lookup answers an array holding none, so the
        empty result doubles as the membership test.
        """
        members = self._by_region.get(region)
        if not members:
            return []
        out = []
        for set_idx, way in sorted(members):
            slot = self._slots[set_idx][way]
            assert slot is not None and slot.region == region
            out.append((set_idx, way, slot))
        return out

    def regions(self) -> KeysView[int]:
        """The regions this array holds lines of (a live, read-only view)."""
        return self._by_region.keys()

    def region_line_count(self, region: int) -> int:
        """How many of ``region``'s lines this array holds right now."""
        return len(self._by_region.get(region, ()))
