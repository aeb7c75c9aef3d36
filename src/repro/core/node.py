"""One D2M node: metadata stores MD1-I/MD1-D/MD2 plus tag-less data arrays.

The node is a state container with *local* operations (metadata lookup
and promotion, LI reads/updates, array bookkeeping).  Anything that sends
messages or touches global structures (MD3, LLC, other nodes) lives in
``repro.core.protocol``, which orchestrates nodes.

Metadata invariants maintained here:

* At most one active LI array per region: in MD1-I, MD1-D, or MD2
  (``MD2Entry.active_in`` is the Tracking Pointer).
* MD1 inclusion: an MD1 entry always has a backing MD2 entry.
* Evicting an MD1 entry spills its LI array back into MD2 (no data
  movement); evicting an MD2 entry is a *forced region eviction* and is
  delegated to the protocol (the entry is handed back to the caller).
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import InvariantViolation
from repro.common.params import SystemConfig
from repro.common.types import AccessKind, EventTracer
from repro.core.datastore import DataArray
from repro.core.li import LI
from repro.core.regions import ActiveSite, MD1Entry, MD2Entry
from repro.mem.sram import SetAssocStore


class LookupPath(enum.Enum):
    """Which stores a metadata lookup had to consult."""

    MD1 = "md1"          # hit in the access-side MD1
    MD1_CROSS = "md1x"   # hit in the other side's MD1 (mixed I/D region)
    MD2 = "md2"          # MD1 miss, MD2 hit (entry promoted to MD1)
    MISS = "miss"        # metadata miss -> MD3 (event D)


class LookupResult:
    """Outcome of one metadata lookup (slotted: one per simulated access)."""

    __slots__ = ("path", "entry")

    def __init__(self, path: LookupPath,
                 entry: Optional[object] = None) -> None:
        # entry: MD1Entry or MD2Entry exposing li/private
        self.path = path
        self.entry = entry


class D2MNode:
    """Per-node state of a D2M system."""

    def __init__(self, node: int, config: SystemConfig) -> None:
        self.node = node
        self.config = config
        md1 = config.md1
        self.md1i: SetAssocStore[MD1Entry] = SetAssocStore(md1.sets, md1.ways)
        self.md1d: SetAssocStore[MD1Entry] = SetAssocStore(md1.sets, md1.ways)
        md2 = config.md2
        self.md2: SetAssocStore[MD2Entry] = SetAssocStore(md2.sets, md2.ways)
        self.l1i = DataArray(f"n{node}.l1i", config.l1i.sets, config.l1i.ways)
        self.l1d = DataArray(f"n{node}.l1d", config.l1d.sets, config.l1d.ways)
        self.l2: Optional[DataArray] = (
            DataArray(f"n{node}.l2", config.l2.sets, config.l2.ways)
            if config.l2 else None
        )
        # Duck-typed event hook (see repro.analysis.sanitizer); None means
        # zero tracing overhead.
        self.tracer: Optional[EventTracer] = None

    # ------------------------------------------------------------- arrays

    def l1(self, instr: bool) -> DataArray:
        return self.l1i if instr else self.l1d

    def arrays(self) -> List[DataArray]:
        out = [self.l1i, self.l1d]
        if self.l2 is not None:
            out.append(self.l2)
        return out

    def cached_region_lines(self, pregion: int) -> int:
        """How many of the region's lines this node caches locally."""
        return sum(array.region_line_count(pregion) for array in self.arrays())

    # ------------------------------------------------------------- lookup

    def _md1_store(self, site: ActiveSite) -> SetAssocStore[MD1Entry]:
        if site is ActiveSite.MD1I:
            return self.md1i
        if site is ActiveSite.MD1D:
            return self.md1d
        raise InvariantViolation("MD2 is not an MD1 store")

    def lookup(self, kind: AccessKind, vregion: int) -> LookupResult:
        """Metadata lookup for an access (energy charged by the caller).

        Access-side MD1 first, then the cross-side MD1, then MD2 (which
        promotes the region into the access-side MD1).
        """
        if kind is AccessKind.IFETCH:
            primary, secondary = self.md1i, self.md1d
        else:
            primary, secondary = self.md1d, self.md1i
        entry = primary.lookup(vregion)
        if entry is not None:
            return LookupResult(LookupPath.MD1, entry)
        cross = secondary.lookup(vregion)
        if cross is not None:
            return LookupResult(LookupPath.MD1_CROSS, cross)
        return LookupResult(LookupPath.MISS)

    def lookup_md2(self, pregion: int) -> Optional[MD2Entry]:
        return self.md2.lookup(pregion)

    # ------------------------------------------------------------- active LI

    def active_holder(self, pregion: int):
        """The entry holding the region's active LI array (MD1 or MD2).

        Raises when the node has no metadata for the region — callers on
        coherence paths must check PB-derived reachability first.
        """
        md2_entry = self.md2.lookup(pregion, touch=False)
        if md2_entry is None:
            raise InvariantViolation(
                f"node {self.node} has no MD2 entry for region {pregion:#x}"
            )
        if md2_entry.active_in is ActiveSite.MD2:
            return md2_entry
        store = self._md1_store(md2_entry.active_in)
        assert md2_entry.tp_vregion is not None
        md1_entry = store.lookup(md2_entry.tp_vregion, touch=False)
        if md1_entry is None or md1_entry.pregion != pregion:
            raise InvariantViolation(
                f"node {self.node}: MD2 tracking pointer for region "
                f"{pregion:#x} names a missing MD1 entry"
            )
        return md1_entry

    def li_of(self, pregion: int, index: int) -> LI:
        return self.active_holder(pregion).li[index]

    def set_li(self, pregion: int, index: int, li: LI) -> None:
        self.active_holder(pregion).li[index] = li

    def region_private(self, pregion: int) -> bool:
        return self.active_holder(pregion).private

    def set_region_private(self, pregion: int, private: bool) -> None:
        """Flip the P bit in both MD2 and the active MD1 entry."""
        md2_entry = self.md2.lookup(pregion, touch=False)
        if md2_entry is None:
            return
        md2_entry.private = private
        if md2_entry.md1_active:
            holder = self.active_holder(pregion)
            holder.private = private

    def md1_entries(self) -> Iterator[Tuple[ActiveSite, int, MD1Entry]]:
        """Every MD1 entry as ``(site, vregion, entry)``, MD1-I first."""
        for store, site in ((self.md1i, ActiveSite.MD1I),
                            (self.md1d, ActiveSite.MD1D)):
            for vregion, entry in store:
                yield site, vregion, entry

    def has_region(self, pregion: int) -> bool:
        return self.md2.contains(pregion)

    def md1_active(self, pregion: int) -> bool:
        entry = self.md2.lookup(pregion, touch=False)
        return entry is not None and entry.md1_active

    # ------------------------------------------------------------- promotion

    def promote_to_md1(self, kind: AccessKind, vregion: int,
                       md2_entry: MD2Entry) -> MD1Entry:
        """Create the active MD1 entry for a region found in MD2.

        Any MD1 victim spills its LI array back to its own MD2 entry.
        """
        if md2_entry.md1_active:
            raise InvariantViolation(
                f"node {self.node}: region {md2_entry.pregion:#x} already "
                f"active in {md2_entry.active_in}"
            )
        store = self.md1i if kind.is_instruction else self.md1d
        site = ActiveSite.MD1I if kind.is_instruction else ActiveSite.MD1D
        entry = MD1Entry(
            vregion=vregion,
            pregion=md2_entry.pregion,
            private=md2_entry.private,
            li=list(md2_entry.li),
            scramble=md2_entry.scramble,
            installs=md2_entry.installs,
            rehits=md2_entry.rehits,
        )
        victim = store.insert(entry.vregion, entry)
        if victim is not None:
            self._spill_md1(victim[1])
        md2_entry.active_in = site
        md2_entry.tp_vregion = vregion
        if self.tracer is not None:
            self.tracer.emit("md1.promote", node=self.node,
                             region=md2_entry.pregion, detail=site.name)
        return entry

    def _spill_md1(self, md1_entry: MD1Entry) -> None:
        """MD1 eviction: copy the LI array back into the MD2 entry."""
        md2_entry = self.md2.lookup(md1_entry.pregion, touch=False)
        if md2_entry is None:
            raise InvariantViolation(
                f"node {self.node}: MD1 entry for region "
                f"{md1_entry.pregion:#x} has no MD2 backing (inclusion)"
            )
        md2_entry.li = list(md1_entry.li)
        md2_entry.private = md1_entry.private
        md2_entry.installs = md1_entry.installs
        md2_entry.rehits = md1_entry.rehits
        md2_entry.active_in = ActiveSite.MD2
        md2_entry.tp_vregion = None
        # The spilled victim usually belongs to a *different* region than
        # the access that displaced it.
        if self.tracer is not None:
            self.tracer.emit("md1.spill", node=self.node,
                             region=md1_entry.pregion)

    def drop_md1(self, pregion: int) -> None:
        """Remove the region's MD1 entry (if any) without spilling."""
        md2_entry = self.md2.lookup(pregion, touch=False)
        if md2_entry is None or not md2_entry.md1_active:
            return
        store = self._md1_store(md2_entry.active_in)
        assert md2_entry.tp_vregion is not None
        store.invalidate(md2_entry.tp_vregion)
        md2_entry.active_in = ActiveSite.MD2
        md2_entry.tp_vregion = None
        if self.tracer is not None:
            self.tracer.emit("md1.drop", node=self.node, region=pregion)

    # ------------------------------------------------------------- MD2 fills

    def md2_victim_for(self, pregion: int) -> Optional[MD2Entry]:
        """The region a fill of ``pregion`` would force out of MD2.

        The protocol spills the victim (a forced region eviction) while
        its entry is still resident, then inserts the new region into the
        freed way.  The policy protects regions with locally cached lines
        when an empty victim exists (paper §II-A).
        """
        victim = self.md2.preview_victim(
            pregion,
            protected=lambda key, entry: self.cached_region_lines(key) > 0,
        )
        return victim[1] if victim is not None else None

    def insert_md2(self, entry: MD2Entry) -> Optional[MD2Entry]:
        """Insert a region into MD2; returns a victim entry to spill.

        The replacement policy favors regions with no locally cached
        lines (paper §II-A) by protecting occupied regions when an empty
        victim exists.
        """
        def has_cached_lines(pregion: int, candidate: MD2Entry) -> bool:
            del candidate
            return self.cached_region_lines(pregion) > 0

        victim = self.md2.insert(entry.pregion, entry,
                                 protected=has_cached_lines)
        if victim is None:
            return None
        victim_entry = victim[1]
        # Make sure the victim's LI array is current before the protocol
        # spills it (the active copy may live in MD1).
        if victim_entry.md1_active:
            store = self._md1_store(victim_entry.active_in)
            assert victim_entry.tp_vregion is not None
            md1_entry = store.invalidate(victim_entry.tp_vregion)
            if md1_entry is None:
                raise InvariantViolation(
                    f"node {self.node}: dangling MD1 tracking pointer for "
                    f"region {victim_entry.pregion:#x}"
                )
            victim_entry.li = list(md1_entry.li)
            victim_entry.private = md1_entry.private
            victim_entry.installs = md1_entry.installs
            victim_entry.rehits = md1_entry.rehits
            victim_entry.active_in = ActiveSite.MD2
            victim_entry.tp_vregion = None
            if self.tracer is not None:
                self.tracer.emit("md1.spill", node=self.node,
                                 region=victim_entry.pregion,
                                 detail="md2-victim")
        return victim_entry

    def drop_md2(self, pregion: int) -> Optional[MD2Entry]:
        """Remove a region's metadata entirely (MD1 entry included)."""
        self.drop_md1(pregion)
        entry = self.md2.invalidate(pregion)
        if entry is not None and self.tracer is not None:
            self.tracer.emit("md2.drop", node=self.node, region=pregion)
        return entry
