"""Machine invariant checkers for D2M (paper §II-B/§III).

Called between accesses (the machine is quiescent), the checkers walk
metadata and data structures and assert:

1. **Deterministic LI** — every valid LI in every node's active metadata
   points at a slot that holds the named line (local arrays and LLC), or
   at memory whose copy is current (no dirty master elsewhere), or at a
   remote node that masters the line locally.
2. **Metadata inclusion** — every line in a node's arrays belongs to a
   region the node has an MD2 entry for; every MD1 entry has MD2 backing;
   every MD2 entry's region is PB-marked in MD3; every LLC-resident
   region is present in MD3.
3. **Single master** — at most one MASTER-role slot exists per line
   across all arrays, and MD3's LI for shared regions points at a master
   (or memory).
4. **Private classification** — a region marked private in a node is
   PB-marked for exactly that node, and no other node holds metadata or
   data for it.
5. **Tracking closure** — every node-tracked LLC slot is reachable from
   its tracking node (directly via LI or via the RP of a cached line).

Every invariant is *region-scoped*: whether it holds for region R
depends only on state reachable from R (the nodes' metadata entries for
R, the machine's cached lines of R, and R's MD3 entry).  The whole-
machine walk :func:`check_invariants` is therefore just
:func:`check_region_invariants` over :func:`machine_regions`, and the
incremental coherence sanitizer (:mod:`repro.analysis.sanitizer`) reuses
the same per-region checks on only the regions an access touched.

A region check gathers the region's state once into a
:class:`RegionView` and runs every check over it: the nodes holding
R's metadata with their active LI holders, R's MD1 entries, only the
arrays whose region index holds R, R's LLC lines, and the masters map.
The one piece a region cannot reach by lookup is an MD1 entry naming R
under a key no tracking pointer names (MD1 is virtually tagged), so the
caller supplies R's MD1 entries: the whole-machine walk from one scan of
every MD1 store (:func:`md1_index`), the sanitizer from its event-fed
index of MD1 keys.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.common.errors import InvariantViolation
from repro.core.datastore import DataArray, DataLine, LineRole
from repro.core.li import LI, LIKind
from repro.core.llc import SlotRef
from repro.core.node import D2MNode
from repro.core.protocol import D2MProtocol
from repro.core.regions import ActiveSite, MD1Entry, MD2Entry, MD3Entry

#: what a region's active LI array lives in
Holder = Union[MD1Entry, MD2Entry]
#: one region's MD1 entries: node id -> [(site, vregion, entry)]
RegionMD1 = Dict[int, List[Tuple[ActiveSite, int, MD1Entry]]]
#: a region's slots in one array, sorted by (set, way)
Rows = List[Tuple[int, int, DataLine]]
#: where a master lives: a node array's name or an LLC (owner, set, way)
Location = Union[str, Tuple[Optional[int], int, int]]


def location_name(where: Location) -> str:
    """A master location as violation messages print it."""
    return where if isinstance(where, str) else f"llc{tuple(where)}"


class RegionView:
    """One region's state, gathered once and read by every check.

    * ``nodes`` — node id -> ``(node, MD2 entry, active holder)`` for
      every node with metadata for the region, in node order.  The
      holder is None when the MD2 tracking pointer names a missing MD1
      entry; :meth:`holder` then raises the node's own violation.
    * ``md1`` — the region's MD1 entries (see :data:`RegionMD1`).
    * ``cached`` — node id -> ``[(array, rows)]`` over only the arrays
      holding lines of the region.
    * ``llc`` — ``[(slice owner, rows)]`` over only the LLC banks
      holding lines of the region.
    * ``masters`` — line -> ``[(location, slot)]`` over both (see
      :data:`Location`).
    * ``local`` — (node id, line index) -> the node-array slot that
      node's LI names, filled as the LI check resolves each pointer and
      read by the tracking-closure check.
    """

    __slots__ = ("pregion", "md3", "nodes", "md1", "cached", "llc",
                 "masters", "local")

    def __init__(self, pregion: int, md3: Optional[MD3Entry],
                 nodes: Dict[int, Tuple[D2MNode, MD2Entry, Optional[Holder]]],
                 md1: RegionMD1,
                 cached: Dict[int, List[Tuple[DataArray, Rows]]],
                 llc: List[Tuple[Optional[int], Rows]],
                 masters: Dict[int, List[Tuple[Location, DataLine]]]) -> None:
        self.pregion = pregion
        self.md3 = md3
        self.nodes = nodes
        self.md1 = md1
        self.cached = cached
        self.llc = llc
        self.masters = masters
        self.local: Dict[Tuple[int, int], DataLine] = {}

    def holder(self, node_id: int) -> Holder:
        """The node's active LI holder for the region."""
        node, _md2_entry, holder = self.nodes[node_id]
        if holder is None:
            return node.active_holder(self.pregion)  # raises: dangling TP
        return holder

    def holders(self) -> List[Tuple[D2MNode, Holder]]:
        """(node, active holder) for every node with metadata for R."""
        return [(node, self.holder(node_id))
                for node_id, (node, _entry, _holder) in self.nodes.items()]


def check_invariants(protocol: D2MProtocol) -> None:
    """Raise :class:`InvariantViolation` on the first broken invariant.

    The full walk: every region with any metadata or data presence is
    checked with :func:`check_region_invariants`, reading MD1 from one
    exhaustive scan of every node's MD1 stores.
    """
    md1 = md1_index(protocol)
    for pregion in machine_regions(protocol):
        check_region_invariants(protocol, pregion, md1.get(pregion, {}))


def check_region_invariants(protocol: D2MProtocol, pregion: int,
                            md1: Optional[RegionMD1] = None) -> RegionView:
    """Check all five invariants restricted to one region.

    O(state touching the region): the nodes' MD1/MD2 entries for it, the
    cached lines of the region (node arrays + LLC), and its MD3 entry.
    ``md1`` is the region's MD1 entries; None scans every MD1 store for
    them.  Returns the view the checks read.
    """
    view = region_view(protocol, pregion, md1)
    _check_metadata_structure(protocol, view)
    _check_location_information(protocol, view)
    _check_single_master(view)
    _check_private_classification(view)
    _check_tracking_closure(protocol, view)
    return view


def region_view(protocol: D2MProtocol, pregion: int,
                md1: Optional[RegionMD1] = None) -> RegionView:
    """Gather the region's state (see :class:`RegionView`)."""
    nodes: Dict[int, Tuple[D2MNode, MD2Entry, Optional[Holder]]] = {}
    cached: Dict[int, List[Tuple[DataArray, Rows]]] = {}
    masters: Dict[int, List[Tuple[Location, DataLine]]] = defaultdict(list)
    master = LineRole.MASTER
    for node in protocol.nodes:
        md2_entry = node.md2.lookup(pregion, touch=False)
        if md2_entry is not None:
            nodes[node.node] = (node, md2_entry,
                                _active_holder(node, pregion, md2_entry))
        held = _held_rows(node, pregion)
        if held:
            cached[node.node] = held
            for array, rows in held:
                for _s, _w, slot in rows:
                    if slot.role is master:
                        masters[slot.line].append((array.name, slot))
    llc = _llc_rows(protocol, pregion)
    for owner, rows in llc:
        for set_idx, way, slot in rows:
            if slot.role is master:
                masters[slot.line].append(((owner, set_idx, way), slot))
    if md1 is None:
        md1 = md1_index(protocol).get(pregion, {})
    return RegionView(pregion, protocol.md3.peek(pregion), nodes, md1,
                      cached, llc, masters)


def fingerprint_view(protocol: D2MProtocol, pregion: int) -> RegionView:
    """The part of the region's view a state fingerprint reads.

    The nodes with metadata for the region (a dangling tracking pointer
    kept as None, as in :func:`region_view`), only those nodes' cached
    rows, the LLC rows and the MD3 entry.  No masters map and no MD1
    entries: a view for comparing snapshots, not for the checks.
    """
    nodes: Dict[int, Tuple[D2MNode, MD2Entry, Optional[Holder]]] = {}
    cached: Dict[int, List[Tuple[DataArray, Rows]]] = {}
    for node in protocol.nodes:
        md2_entry = node.md2.lookup(pregion, touch=False)
        if md2_entry is None:
            continue
        nodes[node.node] = (node, md2_entry,
                            _active_holder(node, pregion, md2_entry))
        held = _held_rows(node, pregion)
        if held:
            cached[node.node] = held
    return RegionView(pregion, protocol.md3.peek(pregion), nodes, {},
                      cached, _llc_rows(protocol, pregion), {})


def _held_rows(node: D2MNode, pregion: int) -> List[Tuple[DataArray, Rows]]:
    """``(array, rows)`` over the node's arrays holding the region."""
    held = []
    for array in node.arrays():
        rows = array.lines_of_region(pregion)
        if rows:
            held.append((array, rows))
    return held


def _llc_rows(protocol: D2MProtocol,
              pregion: int) -> List[Tuple[Optional[int], Rows]]:
    """``(slice owner, rows)`` over the LLC banks holding the region."""
    llc = []
    for owner, array in protocol.llc.arrays():
        rows = array.lines_of_region(pregion)
        if rows:
            llc.append((owner, rows))
    return llc


def _active_holder(node: D2MNode, pregion: int,
                   md2_entry: MD2Entry) -> Optional[Holder]:
    """:meth:`D2MNode.active_holder` without raising (None = dangling)."""
    if md2_entry.active_in is ActiveSite.MD2:
        return md2_entry
    store = node.md1i if md2_entry.active_in is ActiveSite.MD1I else node.md1d
    vregion = md2_entry.tp_vregion
    entry = None if vregion is None else store.lookup(vregion, touch=False)
    if entry is None or entry.pregion != pregion:
        return None
    return entry


def md1_index(protocol: D2MProtocol) -> Dict[int, RegionMD1]:
    """Every node's MD1 entries grouped by the region they name.

    The exhaustive scan: region -> node id -> ``[(site, vregion,
    entry)]``, MD1-I entries first.
    """
    index: Dict[int, RegionMD1] = {}
    for node in protocol.nodes:
        for site, vregion, entry in node.md1_entries():
            index.setdefault(entry.pregion, {}).setdefault(
                node.node, []).append((site, vregion, entry))
    return index


def machine_regions(protocol: D2MProtocol) -> List[int]:
    """Every region with metadata or data anywhere in the machine.

    Read from the stores' keys and the data arrays' region indexes, not
    from a scan of every slot.
    """
    regions: Set[int] = set()
    for node in protocol.nodes:
        regions.update(node.md2.keys())
        for _site, _vregion, entry in node.md1_entries():
            regions.add(entry.pregion)
        for array in node.arrays():
            regions.update(array.regions())
    for _owner, array in protocol.llc.arrays():
        regions.update(array.regions())
    for pregion, _entry in protocol.md3:
        regions.add(pregion)
    return sorted(regions)


def _check_metadata_structure(protocol: D2MProtocol,
                              view: RegionView) -> None:
    pregion = view.pregion
    for node in protocol.nodes:
        known = view.nodes.get(node.node)
        # MD1 entries for the region must have MD2 backing marked active
        # at them.
        for site, vregion, entry in view.md1.get(node.node, ()):
            if known is None:
                raise InvariantViolation(
                    f"node {node.node}: MD1 entry for region "
                    f"{entry.pregion:#x} lacks MD2 backing"
                )
            md2_entry = known[1]
            if md2_entry.active_in is not site or \
                    md2_entry.tp_vregion != vregion:
                raise InvariantViolation(
                    f"node {node.node}: MD2 tracking pointer for region "
                    f"{entry.pregion:#x} does not name its MD1 entry"
                )
        # The region's MD2 entry (if any) must be PB-marked in MD3.
        if known is not None:
            md3_entry = view.md3
            if md3_entry is None or node.node not in md3_entry.pb:
                raise InvariantViolation(
                    f"node {node.node}: region {pregion:#x} in MD2 but not "
                    f"PB-marked in MD3"
                )
        # Metadata inclusion over the node's cached lines of the region.
        for _array, rows in view.cached.get(node.node, ()):
            if known is None:
                raise InvariantViolation(
                    f"node {node.node}: line {rows[0][2].line:#x} cached "
                    f"without MD2 metadata for its region"
                )
    # LLC inclusion under MD3.
    if view.llc and view.md3 is None:
        slot = view.llc[0][1][0][2]
        raise InvariantViolation(
            f"LLC holds line {slot.line:#x} of region {slot.region:#x} "
            f"absent from MD3"
        )


def _check_single_master(view: RegionView) -> None:
    for line, places in view.masters.items():
        if len(places) > 1:
            names = [location_name(where) for where, _slot in places]
            raise InvariantViolation(
                f"line {line:#x} has {len(places)} masters: {names}"
            )


def _resolve_li(protocol: D2MProtocol, node: D2MNode, li: LI, line: int,
                scramble: int) -> DataLine:
    """The slot a deterministic LI names; raises unless it holds ``line``."""
    kind = li.kind
    if kind is LIKind.L1:
        array = node.l1i if li.instr else node.l1d
    elif kind is LIKind.L2:
        array = protocol._local_array(node, li)  # raises on a missing L2
    elif kind is LIKind.LLC_SLICE or kind is LIKind.LLC:
        llc = protocol.llc
        return llc.expect(llc.resolve(li, line, scramble), line)
    else:
        raise InvariantViolation(f"{li} is not resolvable to a slot")
    return array.expect(array.set_of(line, scramble), li.way, line)


def _check_location_information(protocol: D2MProtocol,
                                view: RegionView) -> None:
    pregion = view.pregion
    base = protocol.amap.line_of_region(pregion, 0)
    masters = view.masters
    local = view.local
    for node, holder in view.holders():
        scramble = holder.scramble
        for idx, li in enumerate(holder.li):
            line = base | idx
            kind = li.kind
            if kind is LIKind.INVALID:
                raise InvariantViolation(
                    f"node {node.node}: invalid LI for line {line:#x} "
                    f"in tracked region {pregion:#x}"
                )
            if kind is LIKind.MEM:
                # Valid as long as memory's copy is current: a dirty
                # master elsewhere would make this a stale pointer.
                for where, slot in masters.get(line, ()):
                    if slot.dirty and \
                            slot.version > protocol.memory.peek(line):
                        raise InvariantViolation(
                            f"node {node.node}: stale MEM pointer for "
                            f"line {line:#x}; dirty master at "
                            f"{location_name(where)}"
                        )
                continue
            if kind is LIKind.NODE:
                if li.node not in view.nodes:
                    raise InvariantViolation(
                        f"node {node.node}: LI names node {li.node} for "
                        f"line {line:#x}, which has no metadata"
                    )
                remote_li = view.holder(li.node).li[idx]
                if not remote_li.is_local_cache:
                    raise InvariantViolation(
                        f"node {node.node}: LI names node {li.node} for "
                        f"line {line:#x}, whose own LI is {remote_li}"
                    )
                continue
            # Deterministic pointer into an array: must hold the line.
            slot = _resolve_li(protocol, node, li, line, scramble)
            if kind is LIKind.L1 or kind is LIKind.L2:
                local[node.node, idx] = slot


def _check_private_classification(view: RegionView) -> None:
    pregion = view.pregion
    for node, holder in view.holders():
        if not holder.private:
            continue
        md3_entry = view.md3
        if md3_entry is None or md3_entry.pb != {node.node}:
            raise InvariantViolation(
                f"node {node.node}: region {pregion:#x} marked private "
                f"but PB={md3_entry.pb if md3_entry else None}"
            )
        for other in view.nodes:
            if other != node.node:
                raise InvariantViolation(
                    f"region {pregion:#x} private to node {node.node} "
                    f"but node {other} has metadata for it"
                )


def _check_tracking_closure(protocol: D2MProtocol, view: RegionView) -> None:
    base = protocol.amap.line_of_region(view.pregion, 0)
    llc = protocol.llc
    for owner, rows in view.llc:
        for set_idx, way, slot in rows:
            tracker_id = slot.tracked_by_node
            if tracker_id is None:
                continue
            line = slot.line
            if tracker_id not in view.nodes:
                raise InvariantViolation(
                    f"node-tracked LLC slot for line {line:#x} but node "
                    f"{tracker_id} lost the region metadata"
                )
            holder = view.holder(tracker_id)
            idx = line ^ base
            cur = holder.li[idx]
            loc = llc.li_for(SlotRef(owner, set_idx, way))
            if cur is loc or (cur.kind is loc.kind and cur == loc):
                continue
            if cur.kind is LIKind.L1 or cur.kind is LIKind.L2:
                covering = view.local[tracker_id, idx]
                if covering.rp is loc or covering.rp == loc:
                    continue
                # chain: L1 copy -> node-private LLC replica -> this master
                if covering.rp is not None and covering.rp.is_llc:
                    inner = llc.get(llc.resolve(covering.rp, line,
                                                holder.scramble))
                    if (inner is not None and inner.line == line
                            and inner.rp == loc):
                        continue
            if cur.is_llc:
                # chain: node-private LLC replica -> this master
                mid = llc.get(llc.resolve(cur, line, holder.scramble))
                if (mid is not None and mid.line == line
                        and mid.rp == loc):
                    continue
            raise InvariantViolation(
                f"node-tracked LLC slot for line {line:#x} unreachable "
                f"from node {tracker_id} (LI={cur})"
            )
