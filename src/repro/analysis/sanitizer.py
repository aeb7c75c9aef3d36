"""The coherence sanitizer: incremental invariant checking + forensics.

TSan-style checking for the simulated hierarchy.  A
:class:`CoherenceSanitizer` attaches to a live :class:`D2MProtocol`
through the core's duck-typed ``tracer`` hooks and, after every access,
re-checks **only the regions the access touched** — every D2M invariant
is region-scoped (see :mod:`repro.core.invariants`), so the incremental
check is the full walk restricted to the touched-region set, O(touched
state) instead of O(whole machine).

The shadow model the event stream feeds:

* **Touched-region set** — every emitted event names the region whose
  state it changed; cross-region side effects (LLC victim eviction, MD1
  spills, forced region evictions) emit with the *victim's* region, so
  the set is exactly the state the access could have changed.
* **PB mirror** — an event-replicated copy of MD3's presence bits,
  cross-checked against the real entry whenever a region is checked.  A
  protocol path that flips a PB bit without emitting the matching event
  (or emits the wrong one) is caught even when the resulting state is
  legal.
* **MD1 index** — region -> the ``(node, site, vregion)`` keys of its MD1
  entries, added on every ``md1.promote`` event and seeded from a scan
  at construction.  A region check looks these keys up instead of
  scanning every MD1 store; a key whose entry has gone is dropped then.
  :meth:`CoherenceSanitizer.check_md1_index` — run at the end of every
  sanitized run and by every whole-machine walk — scans every store
  and reports an entry no promote event installed.
* **Per-region fingerprints** (master map + LI mirror) — after checking
  a region the sanitizer snapshots its masters, LI arrays, and MD3
  entry.  A round-robin *rotation* re-fingerprints a few untouched
  regions per access; any drift in a region with no events since its
  snapshot is an out-of-band mutation — state changed behind the event
  stream's back.

On violation the sanitizer raises :class:`SanitizerViolation` (an
:class:`InvariantViolation`) whose message embeds a forensic report: the
last events touching the offending region rendered as a timeline, plus
the tail of the global event stream for context.

``every=K`` additionally runs the whole-machine walk every K-th access,
a safety net sampling for anything a region-scoped view could miss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.events import EventRing, render_timeline
from repro.common.errors import InvariantViolation
from repro.common.observe import attach
from repro.core.invariants import (
    RegionMD1,
    RegionView,
    check_region_invariants,
    fingerprint_view,
    machine_regions,
    md1_index,
)
from repro.core.protocol import D2MProtocol
from repro.core.regions import ActiveSite

#: events shown per forensic report section
FORENSIC_EVENTS = 16
FORENSIC_TAIL = 8
#: events the forensic ring keeps
RING_WINDOW = 512
#: untouched regions re-fingerprinted per access
ROTATION = 2


class SanitizerViolation(InvariantViolation):
    """An invariant violation enriched with a forensic event report."""

    def __init__(self, message: str, report: str = "",
                 region: Optional[int] = None) -> None:
        super().__init__(message)
        self.report = report
        self.region = region


#: state fingerprint of one region (see CoherenceSanitizer._fingerprint)
Fingerprint = Tuple[object, ...]
#: where one MD1 entry lives: (node id, store, vregion key)
MD1Key = Tuple[int, ActiveSite, int]


def _md1_keys(index: Dict[int, RegionMD1]) -> Dict[int, Set[MD1Key]]:
    """The MD1 keys of an :func:`md1_index` scan, per region."""
    return {pregion: {(node_id, site, vregion)
                      for node_id, rows in by_node.items()
                      for site, vregion, _entry in rows}
            for pregion, by_node in index.items()}


def _key_order(key: MD1Key) -> Tuple[int, bool, int]:
    """Node, then MD1-I before MD1-D, then vregion (a full-scan order)."""
    node_id, site, vregion = key
    return node_id, site is not ActiveSite.MD1I, vregion


class CoherenceSanitizer:
    """Incremental shadow-model checker for one D2M machine.

    An event observer (:mod:`repro.common.observe`): the core calls its
    ``begin_access``/``emit``/``end_access``; ``note`` injects external
    events (tests, drivers).  All bookkeeping lives in plain attributes
    and never touches the machine's stats, LRU state, or RNGs, so a
    sanitized run produces bit-identical statistics.  The PB mirror is
    seeded from MD3 and the MD1 index from the MD1 stores at
    construction.
    """

    def __init__(self, protocol: D2MProtocol, every: int = 0) -> None:
        self.protocol = protocol
        self.every = max(0, every)       # full-walk sampling period (0 = off)
        self.ring = EventRing(RING_WINDOW)
        self._touched: Set[int] = set()
        self._pb: Dict[int, Set[int]] = {pregion: set(entry.pb)
                                         for pregion, entry in protocol.md3}
        self._md1: Dict[int, Set[MD1Key]] = _md1_keys(md1_index(protocol))
        self._shadow: Dict[int, Tuple[Fingerprint, int]] = {}
        self._rotation_queue: List[int] = []
        # overhead/coverage counters (plain attributes, not machine stats)
        self.accesses = 0
        self.regions_checked = 0
        self.rotation_checks = 0
        self.full_walks = 0

    @property
    def events_seen(self) -> int:
        return self.ring.recorded

    # ------------------------------------------------------------- tracer API

    def begin_access(self, node: int, line: int, region: int, idx: int,
                     detail: str = "") -> None:
        """Called by the protocol at the top of every access."""
        self.ring.begin_access(node, line, region, idx, detail=detail)
        self._touched.add(region)

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        """Record one protocol event; feed the shadow model."""
        self.ring.emit(kind, node=node, line=line, region=region, idx=idx,
                       detail=detail)
        if region is not None:
            self._touched.add(region)
            if kind == "md3.pb_add" and node is not None:
                self._pb.setdefault(region, set()).add(node)
            elif kind == "md3.pb_clear" and node is not None:
                self._pb.get(region, set()).discard(node)
            elif kind == "md3.fill":
                self._pb[region] = set()
            elif kind == "md3.drop":
                self._pb.pop(region, None)
            elif kind == "md1.promote" and node is not None:
                md2_entry = self.protocol.nodes[node].md2.lookup(
                    region, touch=False)
                if md2_entry is not None and \
                        md2_entry.tp_vregion is not None:
                    self._md1.setdefault(region, set()).add(
                        (node, md2_entry.active_in, md2_entry.tp_vregion))

    def note(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        """Inject an external event (tests / drivers) into the stream.

        The event lands in the forensic ring and marks its region
        touched, exactly like a protocol-emitted event.
        """
        self.emit(kind, node=node, line=line, region=region, idx=idx,
                  detail=detail)

    def end_access(self) -> None:
        """Called by the protocol after every completed access."""
        self.accesses += 1
        self.flush()
        if self.every and self.accesses % self.every == 0:
            self.run_full_walk()

    # ------------------------------------------------------------- checking

    def flush(self) -> None:
        """Check all pending touched regions, then rotate.

        Public so corruption tests (and drivers) can trigger a check
        without pushing another access through a possibly-broken
        machine.
        """
        touched = sorted(self._touched)
        self._touched.clear()
        for pregion in touched:
            self._check_region(pregion, self._indexed_md1(pregion))
        self._rotate(exclude=set(touched))

    def run_full_walk(self) -> None:
        """The whole-machine walk, with forensics on failure.

        Checks the MD1 index against the stores
        (:meth:`check_md1_index`), then every region against the
        scanned entries.
        """
        self.full_walks += 1
        scan = self.check_md1_index()
        for pregion in machine_regions(self.protocol):
            self._check_region(pregion, scan.get(pregion, {}))

    def check_md1_index(self) -> Dict[int, RegionMD1]:
        """Scan every MD1 store and report an entry missing from the MD1
        index, then rebuild the index from the scan (dropping stale
        keys).  Returns the scan (see :func:`md1_index`).

        Run at the end of every sanitized run and by every full walk: a
        per-access check reads MD1 only through the index, so an entry
        installed with no ``md1.promote`` event shows only here.
        """
        scan = md1_index(self.protocol)
        scanned = _md1_keys(scan)
        for pregion, keys in scanned.items():
            hidden = keys - self._md1.get(pregion, set())
            if hidden:
                node_id, site, vregion = min(hidden, key=_key_order)
                raise self._violation(
                    f"node {node_id}: {site.name} entry for region "
                    f"{pregion:#x} (vregion {vregion:#x}) is missing from "
                    f"the MD1 index: no md1.promote event installed it",
                    pregion)
        self._md1 = scanned
        return scan

    def _indexed_md1(self, pregion: int) -> RegionMD1:
        """The region's MD1 entries, looked up through the MD1 index."""
        keys = self._md1.get(pregion)
        if not keys:
            return {}
        found: RegionMD1 = {}
        nodes = self.protocol.nodes
        for key in sorted(keys, key=_key_order):
            node_id, site, vregion = key
            node = nodes[node_id]
            store = node.md1i if site is ActiveSite.MD1I else node.md1d
            entry = store.lookup(vregion, touch=False)
            if entry is None or entry.pregion != pregion:
                keys.discard(key)  # evicted, dropped or reused since
            else:
                found.setdefault(node_id, []).append((site, vregion, entry))
        if not keys:
            del self._md1[pregion]
        return found

    def _check_region(self, pregion: int, md1: RegionMD1) -> None:
        self.regions_checked += 1
        try:
            view = check_region_invariants(self.protocol, pregion, md1)
        except InvariantViolation as exc:
            raise self._violation(str(exc), pregion) from exc
        entry = view.md3
        actual = set(entry.pb) if entry is not None else None
        mirror = self._pb.get(pregion)
        if actual != mirror:
            raise self._violation(
                f"PB mirror mismatch for region {pregion:#x}: "
                f"MD3 has {actual}, events replicated {mirror}", pregion)
        self._snapshot(view)

    def _rotate(self, exclude: Set[int]) -> None:
        """Re-fingerprint a few untouched regions (round-robin).

        Reads each region through :func:`fingerprint_view` — only the
        state a fingerprint covers, not the masters map or MD1 entries
        a region check needs.
        """
        budget = ROTATION
        seen: Set[int] = set()
        while budget > 0:
            if not self._rotation_queue:
                self._rotation_queue = sorted(self._shadow)
                if not self._rotation_queue:
                    return
            pregion = self._rotation_queue.pop()
            if pregion in seen:
                return  # wrapped around within one rotation round
            seen.add(pregion)
            if pregion in exclude or pregion not in self._shadow:
                continue
            budget -= 1
            self.rotation_checks += 1
            old, last_seq = self._shadow[pregion]
            try:
                new = self._fingerprint(
                    fingerprint_view(self.protocol, pregion))
            except InvariantViolation as exc:
                raise self._violation(
                    f"rotation check of region {pregion:#x} found broken "
                    f"state with no protocol event since seq {last_seq}: "
                    f"{exc}", pregion) from exc
            if new != old:
                raise self._violation(
                    f"out-of-band mutation of region {pregion:#x}: state "
                    f"changed with no protocol event since seq {last_seq}",
                    pregion)

    # ------------------------------------------------------------- shadow

    def _snapshot(self, view: RegionView) -> None:
        """Refresh the region's fingerprint after a successful check."""
        if view.md3 is None and not view.nodes:
            self._shadow.pop(view.pregion, None)
            return
        self._shadow[view.pregion] = (self._fingerprint(view),
                                      self.ring.recorded - 1)

    @staticmethod
    def _fingerprint(view: RegionView) -> Fingerprint:
        """The region's protocol-visible state as a comparable value.

        Includes LI arrays, private bits, cached lines with their roles /
        versions / RPs / tracking, and the MD3 entry.  Excludes pure
        performance state (LRU order, install/rehit counters, pressure
        windows) so fingerprints only change when a protocol event
        should have been emitted.
        """
        # ``_name_`` is the enum member's name (``.name`` without the
        # property lookup).
        parts: List[object] = []
        for node_id, (_node, md2_entry, _holder) in view.nodes.items():
            holder = view.holder(node_id)
            parts.append(("md", node_id, md2_entry.active_in._name_,
                          holder.private, tuple(holder.li), holder.scramble))
            for array, rows in view.cached.get(node_id, ()):
                name = array.name
                for set_idx, way, slot in rows:
                    parts.append(("slot", name, set_idx, way, slot.line,
                                  slot.role._name_, slot.dirty, slot.version,
                                  slot.rp, slot.tracked_by_node))
        for owner, rows in view.llc:
            for set_idx, way, slot in rows:
                parts.append(("llc", owner, set_idx, way, slot.line,
                              slot.role._name_, slot.dirty, slot.version,
                              slot.rp, slot.tracked_by_node))
        entry = view.md3
        if entry is not None:
            parts.append(("md3", frozenset(entry.pb), tuple(entry.li),
                          entry.scramble))
        return tuple(parts)

    # ------------------------------------------------------------- forensics

    def _violation(self, message: str, pregion: int) -> SanitizerViolation:
        """Wrap a violation message with the forensic event timeline."""
        focused = self.ring.matching(region=pregion, last=FORENSIC_EVENTS)
        tail = self.ring.events()[-FORENSIC_TAIL:]
        report = render_timeline(
            focused, header=f"last events touching region {pregion:#x}:")
        report += "\n" + render_timeline(
            tail, header="most recent events (all regions):")
        text = (f"sanitizer: {message}\n"
                f"  detected after access #{self.accesses} "
                f"(event seq {self.ring.recorded}, "
                f"{self.ring.recorded} events recorded)\n"
                f"{report}")
        return SanitizerViolation(text, report=report, region=pregion)


def attach_sanitizer(hierarchy: object,
                     every: int = 0) -> Optional[CoherenceSanitizer]:
    """Attach a sanitizer to a hierarchy's protocol, if it has one.

    It joins any observers already attached.  Returns None for baseline
    hierarchies (nothing to sanitize).
    """
    protocol = getattr(hierarchy, "protocol", None)
    if not isinstance(protocol, D2MProtocol):
        return None
    sanitizer = CoherenceSanitizer(protocol, every=every)
    attach(hierarchy, sanitizer)
    return sanitizer
