"""The unified D2M data+metadata coherence protocol (paper §III + appendix).

This module orchestrates the nodes, the LLC, MD3, the NoC, and memory.
It implements the appendix's event taxonomy:

* **A**  read miss, MD1/MD2 hit — direct read to the master (LLC, memory,
  or a remote node), no MD3 interaction.
* **B**  write miss, private region, MD1/MD2 hit — silent local upgrade.
* **C**  write miss, shared region — blocking ReadEx at MD3 with a
  PB-scoped invalidation multicast; mastership moves to the writer.
* **D1–D4** metadata miss — blocking ReadMM at MD3 with the four
  classification outcomes of Table II (untracked→private,
  private→shared GetMD conversion, shared→shared, uncached→private).
* **E**  eviction of a master, private region — data to the victim
  location, purely node-local metadata update.
* **F**  eviction of a master, shared region — blocking EvictReq at MD3
  with a NewMaster multicast.

Concrete data-placement model (the paper leaves some latitude; every
choice below is exercised by tests and recorded in DESIGN.md):

* A line occupies at most one slot per node (L1-I xor L1-D xor L2);
  additionally the LLC may hold a master, a reserved victim slot, or a
  node-private replica for it.
* Reads never move the master (appendix A).  A read served from memory
  installs a node-tracked REPLICA in the LLC (the node's local slice for
  NS) plus an L1 replica chained to it — this is the "victim location
  allocated in the next level" of §II/§IV applied to reads, and is what
  makes the LLC useful for read-only data without MD3 interaction.
* Writes move the master to the writer's L1 (B and C).  The old master's
  LLC slot, when there is one, is retained as the reserved victim slot
  (role VICTIM_SLOT) that the Replacement Pointer names.
* Evicting a dirty master copies data to the victim location; when the
  RP still points at memory a victim slot is allocated in the LLC at
  eviction time ("the victim location is determined prior to eviction").
* Replicas evict silently; the evicting node rewrites its own LI (or the
  RP of the covering line) to the replica's RP.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import InvariantViolation, ProtocolError
from repro.common.params import LLCPlacement, SystemConfig, SystemKind
from repro.common.stats import StatGroup
from repro.common.types import (
    Access,
    AccessKind,
    AccessResult,
    EventTracer,
    HitLevel,
)
from repro.core.datastore import _SCRAMBLE_SPREAD, DataArray, DataLine, LineRole
from repro.core.li import LI, LIKind
from repro.core.llc import (
    BaseLLC,
    NearSideLLC,
    SlotRef,
    build_llc,
    llc_victim_cost,
)
from repro.core.md3 import MD3Store
from repro.core.node import D2MNode, LookupPath
from repro.core.regions import ActiveSite, MD2Entry, MD3Entry, RegionClass
from repro.energy.model import EnergyAccountant, sram_structure
from repro.mem.address import AddressMap
from repro.mem.mainmem import MainMemory
from repro.mem.replacement import lru_orders
from repro.mem.sram import SetAssocStore
from repro.noc.messages import MessageKind
from repro.noc.network import Network
from repro.noc.topology import Crossbar, FAR_SIDE_HUB

# Hot-path stat key tables (avoid per-access string building).
_KEY_ACCESSES = {True: "l1.i.accesses", False: "l1.d.accesses"}
_KEY_HITS = {True: "l1.i.hits", False: "l1.d.hits"}
_KEY_MISSES = {True: "l1.i.misses", False: "l1.d.misses"}
_KEY_NS_LOCAL = {True: "ns.i.local_hits", False: "ns.d.local_hits"}
_KEY_NS_REMOTE = {True: "ns.i.remote_hits", False: "ns.d.remote_hits"}


def holder_of(protocol: "D2MProtocol", node_id: int, pregion: int):
    """The node's active metadata holder (bypass bookkeeping helper)."""
    return protocol.nodes[node_id].active_holder(pregion)


#: enum members the fast-path probe compares against, hoisted
_LI_L1 = LIKind.L1
_MASTER = LineRole.MASTER


class D2MFastPath:
    """The batched driver's fast-path probe for a :class:`D2MProtocol`.

    An access is fast-path eligible iff the access-side MD1 primary
    store hits the vregion, the region's ``LI[idx]`` points at an L1
    way whose slot holds the line, and — for stores — the region is
    private and the slot is the master copy.  :meth:`hit` classifies
    with pure reads; an eligible access commits exactly what
    :meth:`D2MProtocol.access` performs on an MD1-hit L1 hit: MD1
    policy touch, L1 LRU touch, the store's version and dirty bit (or
    the load's value check), a bypass rehit bump and the near-side
    pressure tick; its latency is ``md1 + l1``.  The matching
    ``l1.{i,d}.accesses`` / ``l1.{i,d}.hits`` / ``md.md1_hits`` stats
    and the md1 + l1_data energy charges are counted per kind and
    folded in by :meth:`flush`.  Anything else returns False with
    nothing touched; the driver then hands the access to
    :meth:`D2MProtocol.access`, whose own lookups replay the touches.
    """

    def __init__(self, protocol: "D2MProtocol",
                 mi_orders: List[List[List[int]]],
                 md_orders: List[List[List[int]]],
                 check_load: Optional[Callable[[int, int], None]]) -> None:
        nodes = protocol.nodes
        self.key_bits = protocol._region_bits
        self.latency = protocol._lat.md1 + protocol._lat.l1
        self._mi_maps = [n.md1i.fastpath_view()[0] for n in nodes]
        self._md_maps = [n.md1d.fastpath_view()[0] for n in nodes]
        self._mi_orders = mi_orders
        self._md_orders = md_orders
        self._l1i = [n.l1i.fastpath_view() for n in nodes]
        self._l1d = [n.l1d.fastpath_view() for n in nodes]
        self._idx_mask = protocol._idx_mask
        self._check_load = check_load
        self._bypass = protocol._bypass_enabled
        self._ns = protocol._ns_llc
        self._ns_window = (self._ns.pressure_window if self._ns is not None
                           else 0)
        self._tick_pressure = protocol._tick_pressure
        self._stats = protocol.stats
        self._energy = protocol.energy
        #: deferred fast hits per kind code (ifetch, load, store)
        self._counts = [0, 0, 0]

    def hit(self, core: int, kcode: int, vregion: int, line: int,
            version: int) -> bool:
        # -- classification: pure reads, no mutation before eligibility.
        loc = (self._md_maps if kcode else self._mi_maps)[core].get(vregion)
        if loc is None:
            return False
        entry = loc[2].payload
        li = entry.li[line & self._idx_mask]
        if li.kind is not _LI_L1 or (kcode == 2 and not entry.private):
            return False
        way = li.way
        slots, lru, set_mask = (self._l1i if li.instr else self._l1d)[core]
        set_idx = (line ^ entry.scramble * _SCRAMBLE_SPREAD) & set_mask
        slot = slots[set_idx][way]
        if (slot is None or slot.line != line
                or (kcode == 2 and slot.role is not _MASTER)):
            return False
        # -- commit: the scalar hit path's effects.
        order = (self._md_orders if kcode else self._mi_orders)[core][loc[0]]
        w = loc[1]
        if order[-1] != w:
            order.remove(w)
            order.append(w)
        order = lru[set_idx]
        if order[-1] != way:
            order.remove(way)
            order.append(way)
        if kcode == 2:
            slot.version = version
            slot.dirty = True
        elif self._check_load is not None:
            self._check_load(line, slot.version)
        self._counts[kcode] += 1
        if self._bypass:
            entry.rehits += 1
        ns = self._ns
        if ns is not None:
            count = ns._accesses_since_share + 1
            if count < self._ns_window:
                ns._accesses_since_share = count
            else:
                self._tick_pressure()
        return True

    def flush(self) -> None:
        n_i, n_ld, n_st = self._counts
        if not (n_i or n_ld or n_st):
            return
        stats = self._stats
        if n_i:
            stats.add("l1.i.accesses", float(n_i))
            stats.add("l1.i.hits", float(n_i))
        if n_ld or n_st:
            stats.add("l1.d.accesses", float(n_ld + n_st))
            stats.add("l1.d.hits", float(n_ld + n_st))
        n = n_i + n_ld + n_st
        stats.add("md.md1_hits", float(n))
        self._energy.charge_read("md1", float(n))
        if n_i or n_ld:
            self._energy.charge_read("l1_data", float(n_i + n_ld))
        if n_st:
            self._energy.charge_write("l1_data", float(n_st))
        self.discard()

    def discard(self) -> None:
        self._counts = [0, 0, 0]


class D2MProtocol:
    """A complete D2M machine (any variant: FS, NS, NS-R)."""

    def __init__(self, config: SystemConfig) -> None:
        if config.kind is not SystemKind.D2M:
            raise InvariantViolation(
                f"D2MProtocol requires a D2M config, got {config.name}"
            )
        self.config = config
        self.amap = AddressMap(config.line_size, config.region_lines,
                               config.page_size)
        # Duck-typed event hook (see repro.analysis.sanitizer); the core
        # stays import-free of analysis code.  None = zero overhead.
        self.tracer: Optional[EventTracer] = None
        self.stats = StatGroup(config.name)
        self.events = self.stats.child("events")
        self.energy = EnergyAccountant(self.stats.child("energy"))
        self.network = Network(
            Crossbar(config.nodes), config.latency.noc, self.stats.child("noc")
        )
        self.memory = MainMemory(self.stats.child("dram"))
        self.nodes = [D2MNode(n, config) for n in range(config.nodes)]
        self.llc: BaseLLC = build_llc(config)
        self.md3 = MD3Store(config, self.stats.child("md3"))
        self.tlb2: SetAssocStore[bool] = SetAssocStore(
            config.tlb.l2_entries // config.tlb.l2_ways, config.tlb.l2_ways
        )
        self._near_side = config.llc_placement is LLCPlacement.NEAR_SIDE
        self._bypass_enabled = config.policy.bypass_low_reuse
        # Hot-path hoists, resolved once instead of per access: the
        # latency table, the address-map bit fields, and a typed handle
        # on the near-side LLC (the only variant with a pressure tick).
        self._lat = config.latency
        self._line_bits = self.amap.line_bits
        self._region_bits = self.amap.region_bits
        self._idx_mask = config.region_lines - 1
        self._ns_llc: Optional[NearSideLLC] = (
            self.llc if isinstance(self.llc, NearSideLLC) else None
        )
        self._register_energy()

    # ------------------------------------------------------------------ setup

    def _register_energy(self) -> None:
        cfg = self.config
        reg = self.energy.register
        md1_bytes = cfg.md1.regions * 26 * 2  # I-side + D-side stores
        reg(sram_structure("md1", md1_bytes, 1.0, cfg.md1.ways,
                           entry_bytes=16, d2m_only=True))
        reg(sram_structure("md2", cfg.md2.regions * 16, 1.0, cfg.md2.ways,
                           entry_bytes=16, d2m_only=True))
        reg(sram_structure("md3", cfg.md3.regions * 18, 1.0, cfg.md3.ways,
                           entry_bytes=18, d2m_only=True))
        reg(sram_structure("tlb2", cfg.tlb.l2_entries * 8, 1.0,
                           cfg.tlb.l2_ways, entry_bytes=8))
        # Tag-less data arrays: a single data way, zero tag comparisons.
        reg(sram_structure("l1_data", cfg.l1i.size, 1.0, 0.0))
        if cfg.l2:
            reg(sram_structure("l2_data", cfg.l2.size, 1.0, 0.0))
        reg(sram_structure("llc_data", cfg.llc.size, 1.0, 0.0))

    # ------------------------------------------------------------------ shorthands

    def _send(self, kind: MessageKind, src: int, dst: int) -> int:
        if self.tracer is not None:
            self.tracer.emit("noc.msg", node=src,
                             detail=f"{kind.name}->{dst}")
        return self.network.send(kind, src, dst)

    def _charge_md1(self) -> None:
        self.energy.charge_read("md1")

    def _charge_md2(self) -> None:
        self.energy.charge_read("md2")
        self.stats.add("md2.accesses")

    def _charge_md3(self) -> None:
        self.energy.charge_read("md3")

    def _pb_untracked(self, region: int) -> bool:
        return self.md3.is_untracked(region)

    def _llc_cost(self):
        return llc_victim_cost(self._pb_untracked)

    # ------------------------------------------------------------------ access

    def fastpath_probe(self, check_load: Optional[Callable[[int, int], None]] = None
                       ) -> Optional["D2MFastPath"]:
        """This machine's probe for the batched driver (``sim.batch``).

        ``check_load(line, version)`` is the driver's value check for a
        fast load, None when values are not checked.  Returns None when
        no fast path is allowed: an MD1 store with a non-LRU policy.
        """
        mi_orders = lru_orders(n.md1i.fastpath_view()[1] for n in self.nodes)
        md_orders = lru_orders(n.md1d.fastpath_view()[1] for n in self.nodes)
        if mi_orders is None or md_orders is None:
            return None
        return D2MFastPath(self, mi_orders, md_orders, check_load)

    def access(self, acc: Access, paddr: int, store_version: int = 0) -> AccessResult:
        """Run one memory reference through the D2M machine."""
        node_id = acc.core
        line = paddr >> self._line_bits
        pregion = paddr >> self._region_bits
        idx = line & self._idx_mask
        vregion = acc.vaddr >> self._region_bits
        kind = acc.kind

        instr = kind is AccessKind.IFETCH
        is_write = kind is AccessKind.STORE
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_access(node_id, line, pregion, idx,
                                detail="write" if is_write else
                                ("ifetch" if instr else "read"))
        self.stats.add(_KEY_ACCESSES[instr])
        if self._near_side:
            self._tick_pressure()

        holder, latency, md_missed = self._metadata(node_id, kind,
                                                    vregion, pregion)
        li = holder.li[idx]
        if not li.is_valid:
            raise InvariantViolation(
                f"node {node_id}: invalid LI for line {line:#x} in a "
                f"tracked region"
            )

        if is_write:
            level, extra, version = self._write(
                node_id, kind, pregion, idx, line, li, holder, store_version
            )
            if not md_missed and holder.private and level is not HitLevel.L1:
                pass  # event B counted inside _write_private
        else:
            level, extra, version = self._read(
                node_id, kind, pregion, idx, line, li, holder
            )
            if not md_missed and level is not HitLevel.L1:
                # Event A: read miss satisfied without MD3 interaction.
                self.events.add("A")
                if level in (HitLevel.LLC_LOCAL, HitLevel.LLC_REMOTE):
                    self.events.add("A_llc")
                elif level is HitLevel.MEMORY:
                    self.events.add("A_mem")
                elif level is HitLevel.REMOTE_NODE:
                    self.events.add("A_node")

        if level is HitLevel.L1:
            self.stats.add(_KEY_HITS[instr])
            if self._bypass_enabled:
                holder.rehits += 1
            private = None
        else:
            self.stats.add(_KEY_MISSES[instr])
            private = holder.private
            if private:
                self.stats.add("misses.private_region")
            if level is HitLevel.LLC_LOCAL:
                self.stats.add(_KEY_NS_LOCAL[instr])
            elif level is HitLevel.LLC_REMOTE:
                self.stats.add(_KEY_NS_REMOTE[instr])
        if tracer is not None:
            tracer.end_access()
        return AccessResult(level, latency + extra, version=version,
                            private_region=private)

    def _tick_pressure(self) -> None:
        llc = self._ns_llc
        if llc is not None and llc.tick():
            # One pressure broadcast per slice per window.
            for n in range(self.config.nodes):
                self._send(MessageKind.PRESSURE_SHARE, n, FAR_SIDE_HUB)

    # ------------------------------------------------------------------ metadata

    def _metadata(self, node_id: int, kind: AccessKind, vregion: int,
                  pregion: int) -> Tuple[object, int, bool]:
        """Find (or fetch) the node's active metadata entry for a region.

        Returns the LI-array holder, the metadata latency component, and
        whether the lookup missed all the way to MD3 (event D).
        """
        node = self.nodes[node_id]
        self._charge_md1()
        result = node.lookup(kind, vregion)
        if result.path is LookupPath.MD1:
            self.stats.add("md.md1_hits")
            return result.entry, self._lat.md1, False
        if result.path is LookupPath.MD1_CROSS:
            self._charge_md1()  # the second MD1 store was also searched
            self.stats.add("md.md1_cross_hits")
            return result.entry, self._lat.md1 * 2, False

        # MD1 miss: TLB2 translation (MD2 is physically tagged), then MD2.
        latency = self._lat.md1
        self.energy.charge_read("tlb2")
        self.tlb2.insert(vregion >> (self.amap.page_bits - self.amap.region_bits),
                         True)
        latency += self._lat.tlb_l2
        self._charge_md2()
        latency += self._lat.md2
        md2_entry = node.lookup_md2(pregion)
        if md2_entry is not None:
            self.stats.add("md.md2_hits")
            entry = node.promote_to_md1(kind, vregion, md2_entry)
            return entry, latency, False

        # Full metadata miss: event D at MD3.
        self.stats.add("md.misses")
        entry, extra = self._md_miss(node_id, kind, vregion, pregion)
        return entry, latency + extra, True

    # ------------------------------------------------------------------ event D

    def _md_miss(self, node_id: int, kind: AccessKind, vregion: int,
                 pregion: int) -> Tuple[object, int]:
        """Events D1–D4: blocking ReadMM to MD3, classify, fetch metadata."""
        node = self.nodes[node_id]
        # Make room in this node's MD2 first: a forced region eviction
        # (spill) must run while the victim's metadata is still resident.
        md2_victim = node.md2_victim_for(pregion)
        if md2_victim is not None:
            self._spill_md2(node_id, md2_victim.pregion)

        latency = self._send(MessageKind.READ_MM, node_id, FAR_SIDE_HUB)
        self._charge_md3()
        latency += self._lat.md3
        md3_entry = self.md3.lookup(pregion)

        retrack_to: Optional[int] = None
        if md3_entry is None:
            # D4: uncached -> private.
            md3_victim = self.md3.ensure_capacity(pregion)
            if md3_victim is not None:
                self._global_region_eviction(md3_victim)
            md3_entry = self.md3.create(pregion)
            self.events.add("D4")
            if self.tracer is not None:
                self.tracer.emit("md3.classify", node=node_id,
                                 region=pregion, detail="D4")
            lock = self.md3.locks.acquire(pregion)
            md3_entry.pb.add(node_id)
            if self.tracer is not None:
                self.tracer.emit("md3.pb_add", node=node_id, region=pregion)
            li_array = list(md3_entry.li)
            private = True
            self.md3.locks.release(lock)
        else:
            lock = self.md3.locks.acquire(pregion)
            pb_count = len(md3_entry.pb)
            if pb_count == 0:
                # D1: untracked -> private. MD3's LI becomes invalid; the
                # region's LLC masters become node-tracked (deferred until
                # the node's metadata entry exists below).
                self.events.add("D1")
                if self.tracer is not None:
                    self.tracer.emit("md3.classify", node=node_id,
                                     region=pregion, detail="D1")
                li_array = list(md3_entry.li)
                private = True
                md3_entry.pb.add(node_id)
                if self.tracer is not None:
                    self.tracer.emit("md3.pb_add", node=node_id,
                                     region=pregion)
                retrack_to = node_id
                md3_entry.li = [LI.invalid()] * self.config.region_lines
            elif pb_count == 1 and node_id not in md3_entry.pb:
                # D2: private -> shared. GetMD conversion at the owner.
                self.events.add("D2")
                if self.tracer is not None:
                    self.tracer.emit("md3.classify", node=node_id,
                                     region=pregion, detail="D2")
                owner = md3_entry.sole_owner()
                latency += self._send(MessageKind.GET_MD, FAR_SIDE_HUB, owner)
                latency += self._convert_private_to_shared(owner, pregion,
                                                           md3_entry)
                latency += self._send(MessageKind.MD_REPLY, owner, FAR_SIDE_HUB)
                md3_entry.pb.add(node_id)
                if self.tracer is not None:
                    self.tracer.emit("md3.pb_add", node=node_id,
                                     region=pregion)
                li_array = list(md3_entry.li)
                private = False
            else:
                # D3: shared -> shared.
                self.events.add("D3")
                md3_entry.pb.add(node_id)
                if self.tracer is not None:
                    self.tracer.emit("md3.classify", node=node_id,
                                     region=pregion, detail="D3")
                    self.tracer.emit("md3.pb_add", node=node_id,
                                     region=pregion)
                li_array = list(md3_entry.li)
                private = False
            self.md3.locks.release(lock)

        latency += self._send(MessageKind.MD_REPLY, FAR_SIDE_HUB, node_id)
        md2_entry = MD2Entry(
            pregion=pregion,
            private=private,
            li=li_array,
            scramble=md3_entry.scramble,
        )
        victim_md2 = node.insert_md2(md2_entry)
        if victim_md2 is not None:
            raise InvariantViolation(
                f"MD2 fill of region {pregion:#x} displaced region "
                f"{victim_md2.pregion:#x} despite the capacity check"
            )
        entry = node.promote_to_md1(kind, vregion, md2_entry)
        if retrack_to is not None:
            # D1: the region's LLC masters become node-tracked now that
            # the node's metadata can reach them.
            self._retrack_region_llc(pregion, to_node=retrack_to)
        self._send(MessageKind.DONE, node_id, FAR_SIDE_HUB)
        return entry, latency

    def _retrack_region_llc(self, pregion: int, to_node: Optional[int]) -> None:
        """Flip tracking of the region's MD3-tracked LLC masters.

        ``to_node=N`` on untracked->private (D1); ``to_node=None`` hands
        them back to MD3 (private->untracked spills, D2 conversions).

        Handing a master to a node makes that node's metadata its only
        tracker, so the node's pointer chain is repointed at the slot —
        the node may hold a stale-but-valid MEM pointer for a line that
        another (since departed) sharer filled into the LLC.
        """
        if self.tracer is not None:
            self.tracer.emit("llc.retrack", region=pregion,
                             detail=f"to={to_node}")
        for ref, slot in self.llc.lines_of_region(pregion):
            if slot.role is not LineRole.MASTER:
                continue
            if to_node is None:
                if slot.tracked_by_node is not None:
                    slot.tracked_by_node = None
            elif slot.tracked_by_node is None:
                slot.tracked_by_node = to_node
                idx = self.amap.line_index_in_region(slot.line)
                self._update_location(to_node, pregion, idx, slot.line,
                                      self.llc.li_for(ref))

    def _convert_private_to_shared(self, owner_id: int, pregion: int,
                                   md3_entry: MD3Entry) -> int:
        """Event D2's GetMD: publish the owner's LI array globally."""
        if self.tracer is not None:
            self.tracer.emit("region.share", node=owner_id, region=pregion)
        owner = self.nodes[owner_id]
        self._charge_md2()
        latency = self._lat.md2
        holder = owner.active_holder(pregion)
        scramble = holder.scramble
        global_li: List[LI] = []
        for idx, li in enumerate(holder.li):
            line = self.amap.line_of_region(pregion, idx)
            resolved = self._globalize_li(owner_id, li, line, scramble)
            if (resolved.kind is LIKind.MEM and md3_entry.li
                    and md3_entry.li[idx].is_llc):
                # The owner's MEM pointer is stale-but-valid: the region
                # was only lazily private (its P bit was never granted)
                # and another, since departed, sharer filled an LLC
                # master MD3 still points at.  Keep MD3's pointer.
                resolved = md3_entry.li[idx]
            global_li.append(resolved)
        md3_entry.li = global_li
        owner.set_region_private(pregion, False)
        # LLC masters of the region go back under MD3 tracking; node-private
        # replicas and reserved victim slots remain owner-tracked.
        self._retrack_region_llc(pregion, to_node=None)
        return latency

    def _globalize_li(self, node_id: int, li: LI, line: int,
                      scramble: int) -> LI:
        """The globally meaningful location behind a node-local LI."""
        if li.kind in (LIKind.MEM, LIKind.NODE, LIKind.INVALID):
            return li
        if li.is_llc:
            slot = self.llc.expect(self.llc.resolve(li, line, scramble), line)
            if slot.role is LineRole.REPLICA:
                # Node-private LLC replica: its RP names the true master.
                assert slot.rp is not None
                return slot.rp
            return li  # an LLC master location is already global
        # Local L1/L2 slot: a master stays in the node (tracked by node id);
        # a replica resolves to its master's location through the RP chain.
        slot = self._local_slot(self.nodes[node_id], li, line, scramble)
        if slot.is_master:
            return LI.in_node(node_id)
        if slot.rp is None:
            raise InvariantViolation("replica without a replacement pointer")
        return self._globalize_li(node_id, slot.rp, line, scramble)

    # ------------------------------------------------------------------ local slots

    def _local_array(self, node: D2MNode, li: LI) -> DataArray:
        if li.kind is LIKind.L1:
            return node.l1(li.instr)
        if li.kind is LIKind.L2:
            if node.l2 is None:
                raise InvariantViolation("LI points to a missing L2")
            return node.l2
        raise InvariantViolation(f"{li} is not a local-cache pointer")

    def _local_slot(self, node: D2MNode, li: LI, line: int,
                    scramble: int) -> DataLine:
        array = self._local_array(node, li)
        return array.expect(array.set_of(line, scramble), li.way, line)

    # ------------------------------------------------------------------ reads

    def _read(self, node_id: int, kind: AccessKind, pregion: int, idx: int,
              line: int, li: LI, holder) -> Tuple[HitLevel, int, int]:
        """Direct read along the LI pointer (event A when it is a miss)."""
        node = self.nodes[node_id]
        scramble = holder.scramble

        if li.kind is LIKind.L1:
            array = node.l1(li.instr)
            set_idx = array.set_of(line, scramble)
            slot = array.expect(set_idx, li.way, line)
            array.touch(set_idx, li.way)
            self.energy.charge_read("l1_data")
            return HitLevel.L1, self._lat.l1, slot.version

        if li.kind is LIKind.L2:
            assert node.l2 is not None
            set_idx = node.l2.set_of(line, scramble)
            slot = node.l2.clear(set_idx, li.way)
            if slot.line != line:
                raise InvariantViolation(
                    f"L2 LI for line {line:#x} found line {slot.line:#x}"
                )
            self.energy.charge_read("l2_data")
            # Move the line up to the L1 (single location per node).
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                slot, scramble)
            return HitLevel.L2, self._lat.l1 + self._lat.l2, slot.version

        if li.is_llc:
            return self._read_llc(node_id, kind, pregion, idx, line, li,
                                  scramble)

        if li.kind is LIKind.NODE:
            return self._read_remote_node(node_id, kind, pregion, idx, line,
                                          li, scramble)

        if li.kind is LIKind.MEM:
            return self._read_memory(node_id, kind, pregion, idx, line,
                                     scramble, holder.private)

        raise ProtocolError(f"unreadable LI {li}")

    def _read_llc(self, node_id: int, kind: AccessKind, pregion: int, idx: int,
                  line: int, li: LI, scramble: int) -> Tuple[HitLevel, int, int]:
        node = self.nodes[node_id]
        ref = self.llc.resolve(li, line, scramble)
        slot = self.llc.expect(ref, line)
        if slot.role is LineRole.VICTIM_SLOT:
            raise InvariantViolation(
                f"LI of node {node_id} points at a reserved victim slot "
                f"for line {line:#x}"
            )
        endpoint = self.llc.endpoint(ref)
        was_mru = self.llc.is_recent(ref)
        self.llc.touch(ref)
        self.energy.charge_read("llc_data")
        version = slot.version
        local = endpoint == node_id
        if local:
            latency = self._lat.llc_data
            level = HitLevel.LLC_LOCAL
        else:
            latency = self._send(MessageKind.DIRECT_READ, node_id, endpoint)
            latency += self._lat.llc_data
            latency += self._send(MessageKind.DATA_REPLY, endpoint, node_id)
            level = HitLevel.LLC_REMOTE

        # Install the L1 copy first (with the master as fallback RP), then
        # chain a local-slice replica under it.  The order matters: the L1
        # install may evict a victim whose rehoming allocates LLC space,
        # and a chained replica created before the LI points at the L1
        # copy would be unreachable for that victim selection.
        if self._should_bypass(holder_of(self, node_id, pregion)):
            # Bypassed read: serve in place, leave the LI untouched.
            self.stats.add("bypass.reads")
            del node
            return level, latency, version
        incoming = DataLine(line, pregion, version, dirty=False,
                            role=LineRole.REPLICA, rp=li)
        self._install_local(node_id, kind.is_instruction, pregion, idx,
                            incoming, scramble)
        if not local and slot.is_master and self._should_replicate(kind, was_mru):
            self._chain_local_replica(node_id, kind, pregion, idx, line,
                                      scramble, version, master=li)
            self.stats.add("ns.replications")
        del node
        return level, latency + self._lat.l1, version

    def _chain_local_replica(self, node_id: int, kind: AccessKind,
                             pregion: int, idx: int, line: int,
                             scramble: int, version: int,
                             master: LI) -> None:
        """Install a node-private local-slice replica beneath the L1 copy
        (NS-R replication, §IV-C) and repoint the L1 copy's RP at it."""
        rep_ref = self._alloc_llc_slot(node_id, line, pregion, scramble,
                                       prefer_local=True)
        if rep_ref is None or self.llc.endpoint(rep_ref) != node_id:
            return
        holder = self.nodes[node_id].active_holder(pregion)
        cur = holder.li[idx]
        if not cur.is_local_cache:
            return  # the L1 copy is already gone; don't create an orphan
        self.llc.fill(rep_ref, DataLine(
            line, pregion, version, dirty=False,
            role=LineRole.REPLICA, rp=master, tracked_by_node=node_id,
        ))
        if self.tracer is not None:
            self.tracer.emit("llc.fill", node=node_id, line=line,
                             region=pregion, detail="ns-replica")
        self.energy.charge_write("llc_data")
        l1_slot = self._local_slot(self.nodes[node_id], cur, line, scramble)
        l1_slot.rp = self.llc.li_for(rep_ref)

    def _should_bypass(self, holder) -> bool:
        """Cache bypassing (paper §I): streaming regions stop polluting
        the L1.  The reuse statistics live in the region metadata, per the
        paper's remark that it "can be easily extended to record cache
        bypass policies"."""
        if not self._bypass_enabled:
            return False
        policy = self.config.policy
        if holder.installs < policy.bypass_min_installs:
            return False
        return (holder.rehits
                < holder.installs * policy.bypass_reuse_threshold)

    def _should_replicate(self, kind: AccessKind, was_mru: bool) -> bool:
        """Paper §IV-C: instructions always; data read from the MRU end of
        a remote slice.  We use the most-recent *half* of the recency
        stack rather than strictly position 0 — with 4-way slices the
        strict test almost never fires for walk-style reuse."""
        policy = self.config.policy
        if kind.is_instruction:
            return policy.replicate_instructions
        return policy.replicate_mru_data and was_mru

    def _read_remote_node(self, node_id: int, kind: AccessKind, pregion: int,
                          idx: int, line: int, li: LI,
                          scramble: int) -> Tuple[HitLevel, int, int]:
        master_id = li.node
        master = self.nodes[master_id]
        latency = self._send(MessageKind.DIRECT_READ, node_id, master_id)
        self._charge_md2()
        latency += self._lat.md2
        if master.md1_active(pregion):
            self._charge_md1()
            latency += self._lat.md1
        remote_li = master.li_of(pregion, idx)
        if not remote_li.is_local_cache:
            raise InvariantViolation(
                f"node {node_id} thinks node {master_id} masters line "
                f"{line:#x}, but its LI says {remote_li}"
            )
        remote_scramble = master.active_holder(pregion).scramble
        slot = self._local_slot(master, remote_li, line, remote_scramble)
        if not slot.is_master:
            raise InvariantViolation(
                f"remote read of line {line:#x}: node {master_id}'s copy "
                f"is not the master"
            )
        self.energy.charge_read(
            "l1_data" if remote_li.kind is LIKind.L1 else "l2_data"
        )
        latency += (self._lat.l1 if remote_li.kind is LIKind.L1
                    else self._lat.l2)
        latency += self._send(MessageKind.DATA_REPLY, master_id, node_id)
        version = slot.version
        incoming = DataLine(line, pregion, version, dirty=False,
                            role=LineRole.REPLICA, rp=LI.in_node(master_id))
        self._install_local(node_id, kind.is_instruction, pregion, idx,
                            incoming, scramble)
        return HitLevel.REMOTE_NODE, latency + self._lat.l1, version

    def _read_memory(self, node_id: int, kind: AccessKind, pregion: int,
                     idx: int, line: int, scramble: int,
                     private: bool) -> Tuple[HitLevel, int, int]:
        latency = self._send(MessageKind.MEM_READ, node_id, FAR_SIDE_HUB)
        if not private:
            # The request passes the hub, where MD3 lives: a MEM pointer
            # that went stale after another node's memory->LLC fill is
            # redirected to the LLC master for free (no extra messages).
            md3_entry = self.md3.peek(pregion)
            if md3_entry is not None and md3_entry.li \
                    and md3_entry.li[idx].is_llc:
                self._charge_md3()
                self.stats.add("mem_reads_redirected")
                return self._serve_redirected(node_id, kind, pregion, idx,
                                              line, scramble, latency,
                                              md3_entry.li[idx])
        version = self.memory.read_line(line)
        self.energy.charge_dram()
        latency += self._lat.memory
        latency += self._send(MessageKind.MEM_DATA, FAR_SIDE_HUB, node_id)

        # Install the L1 replica first (RP falls back to memory), then an
        # on-chip LLC copy chained under it.  For a private region the LLC
        # slot is a node-private replica (no global visibility needed and
        # no MD3 interaction).  For a shared region it becomes the global
        # master and MD3's LI advances MEM -> LLC as the fill passes
        # through the hub; sharers holding a stale MEM pointer still read
        # valid (clean) data from memory, so determinism is preserved.
        bypass = self._should_bypass(holder_of(self, node_id, pregion))
        if not bypass:
            incoming = DataLine(line, pregion, version, dirty=False,
                                role=LineRole.REPLICA, rp=LI.mem())
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                incoming, scramble)
        else:
            self.stats.add("bypass.reads")
        # Fills follow the NS-LLC allocation policy (paper §IV-B): the
        # pressure heuristic picks the slice (the far-side LLC has no
        # choice to make).
        rep_ref = self._alloc_llc_slot(node_id, line, pregion, scramble)
        if rep_ref is not None:
            loc = self.llc.li_for(rep_ref)
            md3_entry = None if private else self.md3.peek(pregion)
            global_fill = (md3_entry is not None and md3_entry.li
                           and md3_entry.li[idx].kind is LIKind.MEM)
            if global_fill:
                self.llc.fill(rep_ref, DataLine(
                    line, pregion, version, dirty=False,
                    role=LineRole.MASTER, rp=None, tracked_by_node=None,
                ))
                md3_entry.li[idx] = loc
                self._charge_md3()
                if self.tracer is not None:
                    self.tracer.emit("llc.fill", node=node_id, line=line,
                                     region=pregion, idx=idx,
                                     detail="mem-master")
            else:
                self.llc.fill(rep_ref, DataLine(
                    line, pregion, version, dirty=False,
                    role=LineRole.REPLICA, rp=LI.mem(),
                    tracked_by_node=node_id,
                ))
                if self.tracer is not None:
                    self.tracer.emit("llc.fill", node=node_id, line=line,
                                     region=pregion, idx=idx,
                                     detail="mem-replica")
            self.energy.charge_write("llc_data")
            endpoint = self.llc.endpoint(rep_ref)
            if endpoint != node_id:
                self._send(MessageKind.DIRECT_WRITE_DATA, FAR_SIDE_HUB,
                           endpoint)
            # Repoint the L1 copy's RP at the on-chip location (if the L1
            # copy survived the allocation's side effects; if the slot is
            # a node-tracked replica it must not be left unreachable).
            holder = self.nodes[node_id].active_holder(pregion)
            cur = holder.li[idx]
            if cur.is_local_cache:
                l1_slot = self._local_slot(self.nodes[node_id], cur, line,
                                           scramble)
                l1_slot.rp = loc
            elif bypass:
                # Bypassed reads have no L1 copy: the LI points straight
                # at the on-chip LLC location instead.
                holder.li[idx] = loc
            elif not global_fill:
                self.llc.clear(rep_ref)
        return HitLevel.MEMORY, latency + self._lat.l1, version

    def _serve_redirected(self, node_id: int, kind: AccessKind, pregion: int,
                          idx: int, line: int, scramble: int,
                          latency: int, li: LI) -> Tuple[HitLevel, int, int]:
        """Serve a stale-MEM read from the LLC master the hub knows about."""
        ref = self.llc.resolve(li, line, scramble)
        slot = self.llc.expect(ref, line)
        if not slot.is_master:
            raise InvariantViolation(
                f"MD3 LI for line {line:#x} names a non-master LLC slot"
            )
        endpoint = self.llc.endpoint(ref)
        was_mru = self.llc.is_recent(ref)
        self.llc.touch(ref)
        self.energy.charge_read("llc_data")
        latency += self._lat.md3
        if endpoint != FAR_SIDE_HUB:
            latency += self._send(MessageKind.FWD_REQ, FAR_SIDE_HUB, endpoint)
        latency += self._lat.llc_data
        latency += self._send(MessageKind.DATA_REPLY, endpoint, node_id)
        version = slot.version

        if self._should_bypass(holder_of(self, node_id, pregion)):
            # Bypassed: heal the stale pointer, skip the L1 install.
            self.nodes[node_id].set_li(pregion, idx, li)
            self.stats.add("bypass.reads")
        else:
            incoming = DataLine(line, pregion, version, dirty=False,
                                role=LineRole.REPLICA, rp=li)
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                incoming, scramble)
            if endpoint != node_id and self._should_replicate(kind, was_mru):
                self._chain_local_replica(node_id, kind, pregion, idx, line,
                                          scramble, version, master=li)
                self.stats.add("ns.replications")
        level = (HitLevel.LLC_LOCAL if endpoint == node_id
                 else HitLevel.LLC_REMOTE)
        return level, latency + self._lat.l1, version

    # ------------------------------------------------------------------ writes

    def _write(self, node_id: int, kind: AccessKind, pregion: int, idx: int,
               line: int, li: LI, holder,
               store_version: int) -> Tuple[HitLevel, int, int]:
        if holder.private:
            return self._write_private(node_id, kind, pregion, idx, line, li,
                                       holder, store_version)
        return self._write_shared(node_id, kind, pregion, idx, line, li,
                                  holder, store_version)

    def _write_private(self, node_id: int, kind: AccessKind, pregion: int,
                       idx: int, line: int, li: LI, holder,
                       store_version: int) -> Tuple[HitLevel, int, int]:
        """Event B: silent local write, mastership moves to the writer."""
        node = self.nodes[node_id]
        scramble = holder.scramble

        if li.is_local_cache:
            array = self._local_array(node, li)
            set_idx = array.set_of(line, scramble)
            slot = array.expect(set_idx, li.way, line)
            array.touch(set_idx, li.way)
            level = HitLevel.L1 if li.kind is LIKind.L1 else HitLevel.L2
            latency = self._lat.l1 if li.kind is LIKind.L1 else self._lat.l2
            if not slot.is_master:
                slot.rp = self._claim_mastership(node_id, slot.rp, line,
                                                 pregion, scramble)
                slot.role = LineRole.MASTER
                if level is not HitLevel.L1:
                    self.events.add("B")
            slot.version = store_version
            slot.dirty = True
            self.energy.charge_write(
                "l1_data" if li.kind is LIKind.L1 else "l2_data"
            )
            return level, latency, store_version

        self.events.add("B")
        if li.is_llc:
            ref = self.llc.resolve(li, line, scramble)
            slot = self.llc.expect(ref, line)
            endpoint = self.llc.endpoint(ref)
            latency = 0
            if endpoint != node_id:
                latency += self._send(MessageKind.DIRECT_READ, node_id,
                                      endpoint)
                latency += self._send(MessageKind.DATA_REPLY, endpoint,
                                      node_id)
            self.energy.charge_read("llc_data")
            latency += self._lat.llc_data
            rp = self._claim_mastership(node_id, li, line, pregion, scramble)
            level = (HitLevel.LLC_LOCAL if endpoint == node_id
                     else HitLevel.LLC_REMOTE)
        elif li.kind is LIKind.MEM:
            latency = self._send(MessageKind.MEM_READ, node_id, FAR_SIDE_HUB)
            self.memory.read_line(line)  # write-allocate fetch
            self.energy.charge_dram()
            latency += self._lat.memory
            latency += self._send(MessageKind.MEM_DATA, FAR_SIDE_HUB, node_id)
            rp = LI.mem()
            level = HitLevel.MEMORY
        else:
            raise InvariantViolation(
                f"private region write found LI {li} (remote node in a "
                f"private region)"
            )

        incoming = DataLine(line, pregion, store_version, dirty=True,
                            role=LineRole.MASTER, rp=rp)
        self._install_local(node_id, kind.is_instruction, pregion, idx,
                            incoming, scramble)
        self._reanchor_master_rp(node_id, incoming, scramble)
        return level, latency + self._lat.l1, store_version

    def _reanchor_master_rp(self, node_id: int, master: DataLine,
                            scramble: int) -> None:
        """Re-validate a freshly installed master's reserved victim slot.

        The install's eviction cascade runs before the new master is
        visible (array slot and LI are written after the cascade), so a
        master relocation triggered by the cascade can legally steal the
        reserved victim slot the in-flight master's RP names.  The steal
        writes the victim data back, so falling back to a memory RP keeps
        the chain consistent.
        """
        rp = master.rp
        if rp is None or not rp.is_llc:
            return
        slot = self.llc.get(self.llc.resolve(rp, master.line, scramble))
        if (slot is None or slot.line != master.line
                or slot.role is not LineRole.VICTIM_SLOT
                or slot.tracked_by_node != node_id):
            master.rp = LI.mem()

    def _claim_mastership(self, node_id: int, old_master: Optional[LI],
                          line: int, pregion: int, scramble: int) -> LI:
        """Release/convert the old master location; return the new RP.

        * old master in the LLC (a MASTER slot): it becomes the reserved
          victim slot the writer's RP names.
        * old master behind a node-private LLC replica: the replica slot
          becomes the victim slot and the true master beyond it is freed.
        * old master in memory: RP defaults to memory.
        """
        if self.tracer is not None:
            self.tracer.emit("master.claim", node=node_id, line=line,
                             region=pregion, detail=f"from={old_master}")
        if old_master is None or old_master.kind is LIKind.MEM:
            return LI.mem()
        if old_master.is_llc:
            ref = self.llc.resolve(old_master, line, scramble)
            slot = self.llc.expect(ref, line)
            if slot.role is LineRole.REPLICA:
                # Free the true master beyond the replica, keep the replica
                # slot (it is local and already reserved for this node).
                beyond = slot.rp
                slot.role = LineRole.VICTIM_SLOT
                slot.tracked_by_node = node_id
                if beyond is not None and beyond.is_llc:
                    self._free_llc_master(beyond, line, pregion, scramble)
                return old_master
            if slot.role is LineRole.MASTER:
                slot.role = LineRole.VICTIM_SLOT
                slot.tracked_by_node = node_id
                return old_master
            raise InvariantViolation(
                f"claiming mastership over a victim slot for line {line:#x}"
            )
        if old_master.kind is LIKind.NODE:
            # Handled by the shared-region flow (the master node is asked
            # for data and invalidated there); private regions cannot have
            # remote masters.
            return LI.mem()
        raise InvariantViolation(f"cannot claim mastership from {old_master}")

    def _free_llc_master(self, li: LI, line: int, pregion: int,
                         scramble: int) -> None:
        """Drop a superseded LLC master copy (its data is now stale)."""
        if self.tracer is not None:
            self.tracer.emit("llc.free_master", line=line, region=pregion)
        ref = self.llc.resolve(li, line, scramble)
        slot = self.llc.get(ref)
        if slot is None or slot.line != line:
            raise InvariantViolation(
                f"freeing LLC master for line {line:#x}: slot mismatch"
            )
        self._writeback_if_needed(ref, slot)
        self.llc.clear(ref)
        entry = self.md3.peek(pregion)
        if entry is not None and slot.tracked_by_node is None and entry.li:
            idx = self.amap.line_index_in_region(line)
            if entry.li and entry.li[idx] == li:
                entry.li[idx] = LI.mem()

    def _write_shared(self, node_id: int, kind: AccessKind, pregion: int,
                      idx: int, line: int, li: LI, holder,
                      store_version: int) -> Tuple[HitLevel, int, int]:
        """Event C: blocking ReadEx at MD3 with a PB-scoped multicast."""
        self.events.add("C")
        node = self.nodes[node_id]
        scramble = holder.scramble
        md3_entry = self.md3.peek(pregion)
        if md3_entry is None or node_id not in md3_entry.pb:
            raise InvariantViolation(
                f"shared write by node {node_id} to region {pregion:#x} "
                f"not tracked by MD3"
            )
        latency = self._send(MessageKind.READ_EX_REQ, node_id, FAR_SIDE_HUB)
        self._charge_md3()
        latency += self._lat.md3
        lock = self.md3.locks.acquire(pregion)

        # A MEM pointer may lag behind a memory->LLC fill by another node
        # (stale-but-valid); MD3's LI is authoritative for locating the
        # master of a shared region, and we are at MD3.  All other pointer
        # kinds are kept coherent by the C/F multicasts.
        if li.kind is LIKind.MEM and md3_entry.li \
                and md3_entry.li[idx].is_valid:
            li = md3_entry.li[idx]

        master_node: Optional[int] = li.node if li.kind is LIKind.NODE else None
        level: HitLevel
        version_latency = 0

        if li.is_local_cache:
            # Upgrade: data is already local (the copy is coherent).
            array = self._local_array(node, li)
            set_idx = array.set_of(line, scramble)
            slot = array.expect(set_idx, li.way, line)
            array.touch(set_idx, li.way)
            if not slot.is_master:
                slot.rp = self._claim_mastership(node_id, slot.rp, line,
                                                 pregion, scramble)
                slot.role = LineRole.MASTER
            slot.version = store_version
            slot.dirty = True
            self.energy.charge_write(
                "l1_data" if li.kind is LIKind.L1 else "l2_data"
            )
            level = HitLevel.L1 if li.kind is LIKind.L1 else HitLevel.L2
            version_latency = (self._lat.l1 if li.kind is LIKind.L1
                               else self._lat.l2)
        elif li.is_llc:
            ref = self.llc.resolve(li, line, scramble)
            self.llc.expect(ref, line)
            endpoint = self.llc.endpoint(ref)
            version_latency += self._send(MessageKind.DIRECT_READ_EX,
                                          FAR_SIDE_HUB, endpoint)
            self.energy.charge_read("llc_data")
            version_latency += self._lat.llc_data
            version_latency += self._send(MessageKind.DATA_REPLY, endpoint,
                                          node_id)
            rp = self._claim_mastership(node_id, li, line, pregion, scramble)
            incoming = DataLine(line, pregion, store_version, dirty=True,
                                role=LineRole.MASTER, rp=rp)
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                incoming, scramble)
            self._reanchor_master_rp(node_id, incoming, scramble)
            level = (HitLevel.LLC_LOCAL if endpoint == node_id
                     else HitLevel.LLC_REMOTE)
        elif li.kind is LIKind.NODE:
            version_latency += self._send(MessageKind.DIRECT_READ_EX,
                                          FAR_SIDE_HUB, master_node)
            self._charge_md2()
            version_latency += self._lat.md2
            version_latency += self._invalidate_master_node(
                master_node, node_id, pregion, idx, line)
            version_latency += self._send(MessageKind.DATA_REPLY, master_node,
                                          node_id)
            incoming = DataLine(line, pregion, store_version, dirty=True,
                                role=LineRole.MASTER, rp=LI.mem())
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                incoming, scramble)
            level = HitLevel.REMOTE_NODE
        elif li.kind is LIKind.MEM:
            version_latency += self._send(MessageKind.MEM_READ, FAR_SIDE_HUB,
                                          FAR_SIDE_HUB)
            self.memory.read_line(line)
            self.energy.charge_dram()
            version_latency += self._lat.memory
            version_latency += self._send(MessageKind.MEM_DATA, FAR_SIDE_HUB,
                                          node_id)
            incoming = DataLine(line, pregion, store_version, dirty=True,
                                role=LineRole.MASTER, rp=LI.mem())
            self._install_local(node_id, kind.is_instruction, pregion, idx,
                                incoming, scramble)
            level = HitLevel.MEMORY
        else:
            raise ProtocolError(f"unwritable LI {li}")

        # Release the authoritative LLC master if the data came from
        # somewhere else (e.g. the writer upgraded a local replica chained
        # to memory while MD3 knew of an LLC master): its copy is now
        # superseded and nothing will point at it after this write.
        if md3_entry.li:
            auth = md3_entry.li[idx]
            if auth.is_llc:
                auth_ref = self.llc.resolve(auth, line, scramble)
                auth_slot = self.llc.get(auth_ref)
                if (auth_slot is not None and auth_slot.line == line
                        and auth_slot.role is LineRole.MASTER
                        and auth_slot.tracked_by_node is None):
                    self._writeback_if_needed(auth_ref, auth_slot)
                    self.llc.clear(auth_ref)

        # PB-scoped invalidation multicast (excluding writer and master
        # node, which was handled with the data request).
        inv_latency = 0
        new_li = LI.in_node(node_id)
        for target in sorted(md3_entry.pb - {node_id}):
            if target == master_node:
                continue
            branch = self._send(MessageKind.INVALIDATE, FAR_SIDE_HUB, target)
            self.stats.add("invalidations_received")
            if self.tracer is not None:
                self.tracer.emit("inv.apply", node=target, line=line,
                                 region=pregion, idx=idx)
            branch += self._apply_invalidation(target, pregion, idx, line,
                                               new_li)
            branch += self._send(MessageKind.INV_ACK, target, node_id)
            inv_latency = max(inv_latency, branch)
            self._maybe_prune(target, pregion, md3_entry)

        md3_entry.li[idx] = new_li
        self.md3.locks.release(lock)
        latency += max(version_latency, inv_latency)
        latency += self._send(MessageKind.DONE, node_id, FAR_SIDE_HUB)

        # Dynamic re-privatization: pruning may have left the writer alone.
        if md3_entry.pb == {node_id}:
            self._privatize(node_id, pregion, md3_entry)
        return level, latency, store_version

    def _invalidate_master_node(self, master_id: int, writer_id: int,
                                pregion: int, idx: int, line: int) -> int:
        """Pull the line out of the node that masters it (event C)."""
        if self.tracer is not None:
            self.tracer.emit("inv.master", node=master_id, line=line,
                             region=pregion, idx=idx)
        master = self.nodes[master_id]
        remote_li = master.li_of(pregion, idx)
        if not remote_li.is_local_cache:
            raise InvariantViolation(
                f"master node {master_id} does not hold line {line:#x} "
                f"locally (LI={remote_li})"
            )
        scramble = master.active_holder(pregion).scramble
        array = self._local_array(master, remote_li)
        set_idx = array.set_of(line, scramble)
        slot = array.expect(set_idx, remote_li.way, line)
        if not slot.is_master:
            raise InvariantViolation(
                f"node {master_id}'s copy of line {line:#x} is not master"
            )
        array.clear(set_idx, set_idx * 0 + remote_li.way)
        # Its reserved victim slot (if any) is orphaned: drop it.
        if slot.rp is not None and slot.rp.is_llc:
            self._drop_victim_slot(slot.rp, line, scramble)
        master.set_li(pregion, idx, LI.in_node(writer_id))
        self.energy.charge_read(
            "l1_data" if remote_li.kind is LIKind.L1 else "l2_data"
        )
        self.stats.add("invalidations_received")
        return self._lat.l1

    def _drop_victim_slot(self, li: LI, line: int, scramble: int) -> None:
        ref = self.llc.resolve(li, line, scramble)
        slot = self.llc.get(ref)
        if slot is None or slot.line != line:
            return
        if slot.role is LineRole.VICTIM_SLOT:
            self._writeback_if_needed(ref, slot)
            self.llc.clear(ref)

    def _apply_invalidation(self, target_id: int, pregion: int, idx: int,
                            line: int, new_li: LI) -> int:
        """One PB node processes an invalidation for one line (event C)."""
        target = self.nodes[target_id]
        if not target.has_region(pregion):
            raise InvariantViolation(
                f"PB bit set for node {target_id} without an MD2 entry "
                f"(region {pregion:#x})"
            )
        self._charge_md2()
        latency = self._lat.md2
        if target.md1_active(pregion):
            self._charge_md1()
        holder = target.active_holder(pregion)
        cur = holder.li[idx]
        scramble = holder.scramble
        if cur.is_local_cache:
            array = self._local_array(target, cur)
            set_idx = array.set_of(line, scramble)
            slot = array.expect(set_idx, cur.way, line)
            array.clear(set_idx, cur.way)
            latency += self._lat.l1
            if slot.rp is not None and slot.rp.is_llc:
                if slot.is_master:
                    # The invalidated copy was the old master (the writer
                    # upgraded a local replica): release its reserved
                    # victim slot.
                    self._drop_victim_slot(slot.rp, line, scramble)
                else:
                    # Drop a chained node-private LLC replica of the line.
                    self._drop_chained_replica(target_id, slot.rp, line,
                                               scramble)
        elif cur.is_llc:
            ref = self.llc.resolve(cur, line, scramble)
            slot = self.llc.get(ref)
            if (slot is not None and slot.line == line
                    and slot.role is LineRole.REPLICA
                    and slot.tracked_by_node == target_id):
                self.llc.clear(ref)
        target.set_li(pregion, idx, new_li)
        return latency

    def _drop_chained_replica(self, owner_id: int, li: LI, line: int,
                              scramble: int) -> None:
        ref = self.llc.resolve(li, line, scramble)
        slot = self.llc.get(ref)
        if (slot is not None and slot.line == line
                and slot.role is LineRole.REPLICA
                and slot.tracked_by_node == owner_id):
            self.llc.clear(ref)

    def _maybe_prune(self, target_id: int, pregion: int,
                     md3_entry: MD3Entry) -> bool:
        """MD2 pruning heuristic (paper §IV-A)."""
        if not self.config.policy.md2_pruning:
            return False
        target = self.nodes[target_id]
        if not target.has_region(pregion) or target.md1_active(pregion):
            return False
        if target.cached_region_lines(pregion) > 0:
            return False
        for _ref, slot in self.llc.lines_of_region(pregion):
            if slot.tracked_by_node == target_id:
                return False
        if self.tracer is not None:
            self.tracer.emit("md2.prune", node=target_id, region=pregion)
        target.drop_md2(pregion)
        md3_entry.pb.discard(target_id)
        if self.tracer is not None:
            self.tracer.emit("md3.pb_clear", node=target_id, region=pregion)
        self._send(MessageKind.MD2_SPILL, target_id, FAR_SIDE_HUB)
        self.stats.add("md2.prunes")
        return True

    def _privatize(self, node_id: int, pregion: int,
                   md3_entry: MD3Entry) -> None:
        """Region becomes private to ``node_id`` (dynamic coherence).

        The sole owner's LI array may hold stale-but-valid MEM pointers
        for lines that another (since pruned) sharer filled into the LLC;
        once MD3's LI is invalidated those LLC masters would be tracked by
        nobody, so the owner's pointers are reconciled with MD3's first.
        """
        if self.tracer is not None:
            self.tracer.emit("region.privatize", node=node_id,
                             region=pregion)
        node = self.nodes[node_id]
        node.set_region_private(pregion, True)
        if md3_entry.li:
            holder = node.active_holder(pregion)
            for idx, auth in enumerate(md3_entry.li):
                if holder.li[idx].kind is LIKind.MEM and auth.is_llc:
                    holder.li[idx] = auth
        self._retrack_region_llc(pregion, to_node=node_id)
        md3_entry.li = [LI.invalid()] * self.config.region_lines
        self.stats.add("reprivatizations")

    # ------------------------------------------------------------------ installs

    def _install_local(self, node_id: int, instr: bool, pregion: int,
                       idx: int, incoming: DataLine, scramble: int) -> None:
        """Place a line into the node's L1 (evicting as needed) and point
        the node's LI at it."""
        if self.tracer is not None:
            self.tracer.emit("l1.install", node=node_id, line=incoming.line,
                             region=pregion, idx=idx,
                             detail=incoming.role.value)
        node = self.nodes[node_id]
        array = node.l1(instr)
        set_idx = array.set_of(incoming.line, scramble)
        way = array.victim_way(
            set_idx,
            cost=lambda s: 0 if s.role is LineRole.REPLICA else 1,
        )
        occupant = array.get(set_idx, way)
        if occupant is not None:
            array.clear(set_idx, way)
            self._handle_local_eviction(node_id, array, occupant)
        array.put(set_idx, way, incoming)
        node.set_li(pregion, idx, LI.in_l1(way, instr))
        if self._bypass_enabled:
            node.active_holder(pregion).installs += 1
        self.energy.charge_write("l1_data")

    def _handle_local_eviction(self, node_id: int, from_array: DataArray,
                               slot: DataLine) -> None:
        """A line left one of the node's arrays (already cleared)."""
        if self.tracer is not None:
            # The victim may belong to a different region than the access
            # that displaced it — emit with the victim's region so the
            # sanitizer re-checks it.
            self.tracer.emit("node.evict", node=node_id, line=slot.line,
                             region=slot.region, detail=slot.role.value)
        node = self.nodes[node_id]
        pregion = slot.region
        idx = self.amap.line_index_in_region(slot.line)
        holder = node.active_holder(pregion)  # inclusion guarantees this
        scramble = holder.scramble

        # With a private L2, L1 victims move down one level (their victim
        # location) instead of leaving the node.
        if node.l2 is not None and from_array is not node.l2:
            set_idx = node.l2.set_of(slot.line, scramble)
            way = node.l2.victim_way(
                set_idx,
                cost=lambda s: 0 if s.role is LineRole.REPLICA else 1,
            )
            occupant = node.l2.get(set_idx, way)
            if occupant is not None:
                node.l2.clear(set_idx, way)
                self._handle_local_eviction(node_id, node.l2, occupant)
            node.l2.put(set_idx, way, slot)
            node.set_li(pregion, idx, LI.in_l2(way))
            self.energy.charge_write("l2_data")
            return

        if slot.role is LineRole.REPLICA:
            if slot.rp is None:
                raise InvariantViolation("replica evicted without an RP")
            if slot.dirty:
                raise InvariantViolation("replica must not be dirty")
            if slot.rp.kind is LIKind.MEM:
                # The master is memory: the L1 copy is the only on-chip
                # one.  Like a master, the replica moves to a victim
                # location in the LLC (paper §II: L1 lines get victim
                # locations in the next level) so reused read-only data —
                # code above all — keeps being served on-chip.
                ref = self._alloc_llc_slot(node_id, slot.line, pregion,
                                           scramble, prefer_local=True)
                self.llc.fill(ref, DataLine(
                    slot.line, pregion, slot.version, dirty=False,
                    role=LineRole.REPLICA, rp=LI.mem(),
                    tracked_by_node=node_id,
                ))
                self.energy.charge_write("llc_data")
                endpoint = self.llc.endpoint(ref)
                if endpoint != node_id:
                    self._send(MessageKind.DIRECT_WRITE_DATA, node_id,
                               endpoint)
                node.set_li(pregion, idx, self.llc.li_for(ref))
            else:
                # Silent replacement: the LI falls back to the RP (the
                # master's location, possibly through a node-private LLC
                # replica).
                node.set_li(pregion, idx, slot.rp)
            self.stats.add("evictions.replica")
            return

        self._relocate_master(
            node_id, slot, idx,
            private=holder.private,
            scramble=scramble,
            set_location=lambda li: node.set_li(pregion, idx, li),
        )

    # ------------------------------------------------------------------ master moves

    def _relocate_master(self, node_id: int, slot: DataLine, idx: int,
                         private: bool, scramble: int, set_location,
                         detach_tracking: bool = False) -> None:
        """Events E/F: a master left a node; its RP names the new master.

        ``detach_tracking`` is set during MD2 spills of private regions:
        the new master location must be MD3-tracked because the node is
        about to lose the region's metadata.
        """
        line, pregion = slot.line, slot.region
        if self.tracer is not None:
            self.tracer.emit("master.relocate", node=node_id, line=line,
                             region=pregion, idx=idx,
                             detail="private" if private else "shared")
        rp = slot.rp if slot.rp is not None else LI.mem()

        vslot: Optional[DataLine] = None
        ref: Optional[SlotRef] = None
        if rp.is_llc:
            ref = self.llc.resolve(rp, line, scramble)
            vslot = self.llc.get(ref)
            if (vslot is None or vslot.line != line
                    or vslot.role is not LineRole.VICTIM_SLOT
                    or vslot.tracked_by_node != node_id):
                raise InvariantViolation(
                    f"node {node_id}: RP of master line {line:#x} does not "
                    f"name its reserved victim slot"
                )

        tracked = None if (detach_tracking or not private) else node_id
        if vslot is not None and ref is not None:
            vslot.version = slot.version
            vslot.dirty = vslot.dirty or slot.dirty
            vslot.role = LineRole.MASTER
            vslot.tracked_by_node = tracked
            self.llc.touch(ref)
            new_li = rp
        else:
            # RP defaults to memory: allocate the victim location in the
            # LLC now ("determined prior to eviction") and copy into it.
            ref = self._alloc_llc_slot(node_id, line, pregion, scramble,
                                       prefer_local=True)
            self.llc.fill(ref, DataLine(
                line, pregion, slot.version, dirty=slot.dirty,
                role=LineRole.MASTER, rp=None, tracked_by_node=tracked,
            ))
            new_li = self.llc.li_for(ref)
        self.energy.charge_write("llc_data")
        endpoint = self.llc.endpoint(ref)
        if endpoint != node_id and slot.dirty:
            self._send(MessageKind.DIRECT_WRITE_DATA, node_id, endpoint)

        set_location(new_li)
        if private:
            self.events.add("E")
            return

        # Event F: shared region — blocking EvictReq with NewMaster multicast.
        self.events.add("F")
        md3_entry = self.md3.peek(pregion)
        if md3_entry is None:
            raise InvariantViolation(
                f"shared region {pregion:#x} missing from MD3 during event F"
            )
        self._send(MessageKind.EVICT_REQ, node_id, FAR_SIDE_HUB)
        self._charge_md3()
        for target in sorted(md3_entry.pb - {node_id}):
            self._send(MessageKind.NEW_MASTER, FAR_SIDE_HUB, target)
            self._update_location(target, pregion, idx, line, new_li)
            self._send(MessageKind.CTRL_REPLY, target, node_id)
        md3_entry.li[idx] = new_li
        self._send(MessageKind.DONE, node_id, FAR_SIDE_HUB)

    def _update_location(self, target_id: int, pregion: int, idx: int,
                         line: int, new_li: LI) -> None:
        """NewMaster processing at a PB node: repoint LI or the RP chain."""
        target = self.nodes[target_id]
        if not target.has_region(pregion):
            raise InvariantViolation(
                f"NewMaster sent to node {target_id} without metadata for "
                f"region {pregion:#x}"
            )
        self._charge_md2()
        holder = target.active_holder(pregion)
        cur = holder.li[idx]
        scramble = holder.scramble
        if cur.is_local_cache:
            slot = self._local_slot(target, cur, line, scramble)
            if slot.rp is not None and slot.rp.is_llc:
                inner_ref = self.llc.resolve(slot.rp, line, scramble)
                inner = self.llc.get(inner_ref)
                if (inner is not None and inner.line == line
                        and inner.role is LineRole.REPLICA
                        and inner.tracked_by_node == target_id):
                    inner.rp = new_li
                    return
            slot.rp = new_li
        elif cur.is_llc:
            ref = self.llc.resolve(cur, line, scramble)
            slot = self.llc.get(ref)
            if (slot is not None and slot.line == line
                    and slot.role is LineRole.REPLICA
                    and slot.tracked_by_node == target_id):
                slot.rp = new_li
            else:
                holder.li[idx] = new_li
        else:
            holder.li[idx] = new_li

    # ------------------------------------------------------------------ LLC allocation

    def _alloc_llc_slot(self, node_id: int, line: int, pregion: int,
                        scramble: int,
                        prefer_local: bool = False) -> SlotRef:
        """Pick (and free) an LLC slot for a fill."""
        if self._near_side and prefer_local:
            llc = self.llc
            ref, occupant = llc.choose_allocation_in(  # type: ignore[attr-defined]
                node_id, line, scramble, self._llc_cost()
            )
        else:
            ref, occupant = self.llc.choose_allocation(
                node_id, line, scramble, self._llc_cost()
            )
        if occupant is not None:
            self._evict_llc_slot(ref, occupant)
            self.llc.clear(ref)
        return ref

    def _evict_llc_slot(self, ref: SlotRef, slot: DataLine) -> None:
        """Release one LLC slot, updating whoever tracks it."""
        line, pregion = slot.line, slot.region
        idx = self.amap.line_index_in_region(line)
        if self.tracer is not None:
            # LLC victims routinely belong to other regions than the
            # access allocating the slot; emit with the victim's region.
            self.tracer.emit("llc.evict", node=slot.tracked_by_node,
                             line=line, region=pregion, idx=idx,
                             detail=slot.role.value)
        self.stats.add("evictions.llc")

        if slot.tracked_by_node is None:
            md3_entry = self.md3.peek(pregion)
            if md3_entry is None:
                raise InvariantViolation(
                    f"LLC slot for line {line:#x} tracked by a region "
                    f"absent from MD3 (inclusion)"
                )
            if slot.role is not LineRole.MASTER:
                raise InvariantViolation(
                    f"MD3-tracked LLC slot for line {line:#x} is not a master"
                )
            self._writeback_if_needed(ref, slot)
            if md3_entry.li and md3_entry.li[idx] != self.llc.li_for(ref):
                # Superseded master MD3 no longer points at (mastership
                # moved to a writer in between): drop silently.
                return
            if md3_entry.pb:
                # Shared region: the master moves to memory; tell sharers.
                for target in sorted(md3_entry.pb):
                    self._send(MessageKind.NEW_MASTER, FAR_SIDE_HUB, target)
                    self._update_location(target, pregion, idx, line, LI.mem())
                    self._send(MessageKind.CTRL_REPLY, target, FAR_SIDE_HUB)
                self.stats.add("evictions.llc_shared")
            else:
                self.stats.add("evictions.llc_untracked")
            if md3_entry.li:
                md3_entry.li[idx] = LI.mem()
            return

        tracker_id = slot.tracked_by_node
        endpoint = self.llc.endpoint(ref)
        if endpoint != tracker_id:
            self._send(MessageKind.RP_UPDATE, endpoint, tracker_id)
        tracker = self.nodes[tracker_id]
        if not tracker.has_region(pregion):
            raise InvariantViolation(
                f"node-tracked LLC slot for line {line:#x} but node "
                f"{tracker_id} has no metadata for region {pregion:#x}"
            )
        self._charge_md2()
        holder = tracker.active_holder(pregion)
        cur = holder.li[idx]
        scramble = holder.scramble
        loc_li = self.llc.li_for(ref)
        if cur == loc_li:
            self._writeback_if_needed(ref, slot)
            holder.li[idx] = (slot.rp if slot.role is LineRole.REPLICA
                              and slot.rp is not None else LI.mem())
        elif cur.is_local_cache:
            lslot = self._local_slot(tracker, cur, line, scramble)
            if lslot.rp == loc_li:
                self._writeback_if_needed(ref, slot)
                lslot.rp = (slot.rp if slot.role is LineRole.REPLICA
                            and slot.rp is not None else LI.mem())
            elif self._repoint_chained(tracker_id, lslot.rp, line, scramble,
                                       ref, slot, loc_li):
                pass
            else:
                raise InvariantViolation(
                    f"node-tracked LLC slot for line {line:#x} is not "
                    f"referenced by node {tracker_id}'s copy"
                )
        elif self._repoint_chained(tracker_id, cur, line, scramble, ref,
                                   slot, loc_li):
            pass
        else:
            raise InvariantViolation(
                f"node-tracked LLC slot for line {line:#x} unreachable from "
                f"node {tracker_id} (LI={cur})"
            )

    def _repoint_chained(self, tracker_id: int, via: Optional[LI], line: int,
                         scramble: int, ref: SlotRef, slot: DataLine,
                         loc_li: LI) -> bool:
        """Release an LLC slot reached through a chained NS-R replica.

        A node-tracked master may be referenced indirectly: the node's
        copy (or LI) names a chained node-private LLC replica whose RP in
        turn names the evicted slot.  Chase that one level — mirror of
        the chain handling in ``_update_location`` — and splice the
        evicted slot out of the chain.
        """
        if via is None or not via.is_llc or via == loc_li:
            return False
        inner_ref = self.llc.resolve(via, line, scramble)
        inner = self.llc.get(inner_ref)
        if (inner is None or inner.line != line
                or inner.role is not LineRole.REPLICA
                or inner.tracked_by_node != tracker_id
                or inner.rp != loc_li):
            return False
        self._writeback_if_needed(ref, slot)
        inner.rp = (slot.rp if slot.role is LineRole.REPLICA
                    and slot.rp is not None else LI.mem())
        return True

    def _writeback_if_needed(self, ref: SlotRef, slot: DataLine) -> None:
        """Write a dirty LLC slot back to memory (version-monotonic)."""
        if not slot.dirty:
            return
        if slot.version < self.memory.peek(slot.line):
            return  # stale reserved-victim data; newer data already committed
        if self.tracer is not None:
            self.tracer.emit("mem.writeback", line=slot.line,
                             region=slot.region)
        self.memory.write_line(slot.line, slot.version)
        self.energy.charge_dram()
        endpoint = self.llc.endpoint(ref)
        if endpoint != FAR_SIDE_HUB:
            self._send(MessageKind.WRITEBACK, endpoint, FAR_SIDE_HUB)

    # ------------------------------------------------------------------ region spills

    def _spill_md2(self, node_id: int, pregion: int) -> None:
        """Forced region eviction at one node (MD2 replacement).

        All of the region's lines leave the node (masters relocate via
        their RPs, replicas drop silently), the node's MD1/MD2 entries are
        dropped, and MD3 is notified (clearing the PB bit; for private
        regions the final LI array travels with the spill so the region
        becomes untracked).
        """
        if self.tracer is not None:
            # A spill is triggered by an access to a *different* region;
            # emit with the spilled region so it is re-checked.
            self.tracer.emit("md2.spill", node=node_id, region=pregion)
        node = self.nodes[node_id]
        holder = node.active_holder(pregion)
        private = holder.private
        scramble = holder.scramble
        self.stats.add("md2.spills")

        # Phase A: this node's private LLC replicas of the region.  A
        # replica of a memory-mastered line is memory-consistent, so it
        # can stay in the LLC and be promoted to an MD3-tracked master in
        # phase C — this is how "most regions become untracked before
        # their cachelines are evicted from LLC" (paper §IV-A): the data
        # survives the spill and later re-accesses find it via D1.
        # Replicas of masters living elsewhere must drop (single master).
        for ref, slot in list(self.llc.lines_of_region(pregion)):
            if slot.tracked_by_node != node_id:
                continue
            if slot.role is LineRole.REPLICA and (
                    not private or slot.rp is None
                    or slot.rp.kind is not LIKind.MEM):
                if self.llc.get(ref) is not slot:
                    continue
                self._evict_llc_slot(ref, slot)
                self.llc.clear(ref)

        # Phase B: evict the region's lines from the node's arrays.
        for array in node.arrays():
            for set_idx, way, slot in array.lines_of_region(pregion):
                if array.get(set_idx, way) is not slot:
                    continue
                array.clear(set_idx, way)
                idx = self.amap.line_index_in_region(slot.line)
                if slot.role is LineRole.REPLICA:
                    if slot.rp is None or slot.rp.is_local_cache:
                        raise InvariantViolation(
                            f"replica of line {slot.line:#x} has a "
                            f"non-global RP during a spill"
                        )
                    node.set_li(pregion, idx, slot.rp)
                else:
                    self._relocate_master(
                        node_id, slot, idx,
                        private=private,
                        scramble=scramble,
                        set_location=(
                            lambda li, i=idx: node.set_li(pregion, i, li)
                        ),
                        detach_tracking=private,
                    )

        # Phase C: remaining node-tracked LLC slots move to MD3 tracking:
        # masters directly; memory-consistent replicas are promoted to
        # masters (the node's LI already names their location).
        for ref, slot in list(self.llc.lines_of_region(pregion)):
            if slot.tracked_by_node != node_id:
                continue
            if self.llc.get(ref) is not slot:
                continue
            if slot.role is LineRole.MASTER:
                slot.tracked_by_node = None
            elif (slot.role is LineRole.REPLICA and slot.rp is not None
                    and slot.rp.kind is LIKind.MEM and not slot.dirty):
                idx = self.amap.line_index_in_region(slot.line)
                if node.li_of(pregion, idx) != self.llc.li_for(ref):
                    raise InvariantViolation(
                        f"promoting LLC replica of line {slot.line:#x} the "
                        f"spilling node does not point at"
                    )
                slot.role = LineRole.MASTER
                slot.rp = None
                slot.tracked_by_node = None
            else:
                raise InvariantViolation(
                    f"orphan {slot.role.value} slot for line {slot.line:#x} "
                    f"survived the spill of region {pregion:#x}"
                )

        # Phase D: notify MD3.
        self._send(MessageKind.MD2_SPILL, node_id, FAR_SIDE_HUB)
        self._charge_md3()
        md3_entry = self.md3.peek(pregion)
        if md3_entry is None or node_id not in md3_entry.pb:
            raise InvariantViolation(
                f"spilling region {pregion:#x} not tracked for node "
                f"{node_id} in MD3"
            )
        md3_entry.pb.discard(node_id)
        if self.tracer is not None:
            self.tracer.emit("md3.pb_clear", node=node_id, region=pregion)
        if private:
            final = list(node.active_holder(pregion).li)
            for idx, li in enumerate(final):
                if li.is_local_cache or li.kind is LIKind.NODE:
                    raise InvariantViolation(
                        f"private spill left a non-global LI {li} at index "
                        f"{idx} of region {pregion:#x}"
                    )
            md3_entry.li = final
        node.drop_md2(pregion)

    def _global_region_eviction(self, md3_entry: MD3Entry) -> None:
        """MD3 replacement: purge a region from the entire machine."""
        pregion = md3_entry.pregion
        if self.tracer is not None:
            self.tracer.emit("md3.global_evict", region=pregion)
        self.stats.add("md3.global_evictions")
        for target_id in sorted(md3_entry.pb):
            self._send(MessageKind.INVALIDATE, FAR_SIDE_HUB, target_id)
            self.stats.add("invalidations_received")
            target = self.nodes[target_id]
            if not target.has_region(pregion):
                raise InvariantViolation(
                    f"PB bit for node {target_id} without MD2 metadata "
                    f"(region {pregion:#x})"
                )
            self._charge_md2()
            for array in target.arrays():
                for set_idx, way, slot in array.lines_of_region(pregion):
                    if array.get(set_idx, way) is not slot:
                        continue
                    array.clear(set_idx, way)
                    if slot.is_master and slot.dirty:
                        self._send(MessageKind.WRITEBACK, target_id,
                                   FAR_SIDE_HUB)
                        self.memory.write_line(slot.line, slot.version)
                        self.energy.charge_dram()
            target.drop_md2(pregion)
            self._send(MessageKind.CTRL_REPLY, target_id, FAR_SIDE_HUB)
        for ref, slot in list(self.llc.lines_of_region(pregion)):
            if self.llc.get(ref) is not slot:
                continue
            self._writeback_if_needed(ref, slot)
            self.llc.clear(ref)
        self.md3.drop(pregion)

    # ------------------------------------------------------------------ reporting

    def finalize(self) -> None:
        """Fold network energy into the accountant (end of run)."""
        self.energy.charge_raw("noc", self.network.energy_pj)
        self.network.flush()
        self.energy.flush()
