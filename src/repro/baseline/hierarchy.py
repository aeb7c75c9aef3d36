"""Base-2L and Base-3L: tag-based hierarchies with a MESI directory.

These model the paper's baseline systems (Figure 4a/4b): per-node L1s
(8-way, perfect way prediction — tag search energy but a single data-way
read), an optional private 256 kB L2 (Base-3L), and a shared, inclusive,
far-side LLC with a full-map directory.  Every L1 miss crosses the NoC,
performs a serialized tag+directory lookup, and may indirect through a
remote owner — exactly the level-by-level/associative search costs D2M
removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.common.errors import InvariantViolation
from repro.common.params import SystemConfig, SystemKind
from repro.common.stats import StatGroup
from repro.common.types import Access, AccessKind, AccessResult, CoherenceState, HitLevel
from repro.baseline.cache import EvictedLine, NodeCaches
from repro.baseline.directory import Directory
from repro.energy.model import EnergyAccountant, sram_structure
from repro.mem.address import AddressMap
from repro.mem.mainmem import MainMemory
from repro.mem.sram import SetAssocStore
from repro.mem.tlb import TwoLevelTLB
from repro.noc.messages import MessageKind
from repro.noc.network import Network
from repro.noc.topology import Crossbar, FAR_SIDE_HUB

# Hot-path stat key tables (avoid per-access string building).
_KEY_L1_ACC = {True: "l1.i.accesses", False: "l1.d.accesses"}
_KEY_L1_HIT = {True: "l1.i.hits", False: "l1.d.hits"}
_KEY_L1_MISS = {True: "l1.i.misses", False: "l1.d.misses"}
_KEY_L2_ACC = {True: "l2.i.accesses", False: "l2.d.accesses"}
_KEY_L2_HIT = {True: "l2.i.hits", False: "l2.d.hits"}


@dataclass
class LLCLine:
    """One line in the shared LLC."""

    version: int = 0
    dirty: bool = False


#: MESI states the fast-path probe compares against, hoisted
_MODIFIED = CoherenceState.MODIFIED
_EXCLUSIVE = CoherenceState.EXCLUSIVE
_SHARED = CoherenceState.SHARED


class BaselineFastPath:
    """The batched driver's fast-path probe for a :class:`BaselineHierarchy`.

    An access is fast-path eligible iff the core's L1 TLB hits the vpage
    (keyed by the hierarchy's page bits), the kind-side L1 holds the
    line, and the MESI state is valid (writable for stores).
    :meth:`hit` classifies with pure reads; an eligible access replays
    :meth:`BaselineHierarchy.access`'s L1-hit prefix exactly: TLB and L1
    LRU touches, the load's value check, and — for stores —
    :meth:`NodeCaches.write_hit`, so the L1-I shootdown and L2 version
    sync can never drift from the scalar path; its latency is ``l1``.
    The matching TLB ``accesses``/``l1_hits`` and ``l1.{i,d}.accesses``
    / ``l1.{i,d}.hits`` stats and the tlb1 + l1 energy charges are
    counted per core and kind and folded in by :meth:`flush`.  Anything
    else returns False with nothing touched; the driver then hands the
    access to :meth:`BaselineHierarchy.access`, whose own TLB and L1
    lookups replay the touches.
    """

    def __init__(self, hierarchy: "BaselineHierarchy",
                 check_load: Optional[Callable[[int, int], None]]) -> None:
        nodes = hierarchy.nodes
        self.key_bits = hierarchy._page_bits
        self.latency = hierarchy._lat.l1
        # per-core (where, live LRU orders) views, split by field
        self._tlb_maps, self._tlb_orders = zip(
            *(t.fastpath_view() for t in hierarchy.tlbs))
        self._tlb_stats = [t.stats for t in hierarchy.tlbs]
        self._l1i_maps, self._l1i_orders = zip(
            *(n.l1i.store.fastpath_view() for n in nodes))
        self._l1d_maps, self._l1d_orders = zip(
            *(n.l1d.store.fastpath_view() for n in nodes))
        self._states = [n.state for n in nodes]
        self._write_hits = [n.write_hit for n in nodes]
        self._check_load = check_load
        self._stats = hierarchy.stats
        self._energy = hierarchy.energy
        #: deferred fast hits per core and kind code (ifetch, load, store)
        self._counts = [[0, 0, 0] for _ in nodes]

    def hit(self, core: int, kcode: int, vpage: int, line: int,
            version: int) -> bool:
        # -- classification: pure reads, no mutation before eligibility.
        lloc = (self._l1d_maps if kcode else self._l1i_maps)[core].get(line)
        if lloc is None:
            return False
        state = self._states[core].get(line)
        if not (state is _MODIFIED or state is _EXCLUSIVE
                or (state is _SHARED and kcode != 2)):
            return False
        tloc = self._tlb_maps[core].get(vpage)
        if tloc is None:
            return False
        # -- commit: the scalar L1-hit prefix.
        order = self._tlb_orders[core][tloc[0]]
        w = tloc[1]
        if order[-1] != w:
            order.remove(w)
            order.append(w)
        order = (self._l1d_orders if kcode else self._l1i_orders)[core][lloc[0]]
        w = lloc[1]
        if order[-1] != w:
            order.remove(w)
            order.append(w)
        if kcode == 2:
            self._write_hits[core](line, version)
        elif self._check_load is not None:
            self._check_load(line, lloc[2].payload.version)
        self._counts[core][kcode] += 1
        return True

    def flush(self) -> None:
        counts = self._counts
        n_i = sum(c[0] for c in counts)
        n_d = sum(c[1] + c[2] for c in counts)
        if not (n_i or n_d):
            return
        stats = self._stats
        if n_i:
            stats.add("l1.i.accesses", float(n_i))
            stats.add("l1.i.hits", float(n_i))
        if n_d:
            stats.add("l1.d.accesses", float(n_d))
            stats.add("l1.d.hits", float(n_d))
        self._energy.charge_read("tlb1", float(n_i + n_d))
        self._energy.charge_read("l1", float(n_i + n_d))
        for group, per_kind in zip(self._tlb_stats, counts):
            n = sum(per_kind)
            if n:
                group.add("accesses", float(n))
                group.add("l1_hits", float(n))
        self.discard()

    def discard(self) -> None:
        self._counts = [[0, 0, 0] for _ in self._counts]


class BaselineHierarchy:
    """A complete Base-2L or Base-3L machine."""

    def __init__(self, config: SystemConfig) -> None:
        if config.kind is not SystemKind.BASELINE:
            raise InvariantViolation(
                f"BaselineHierarchy requires a baseline config, got {config.name}"
            )
        self.config = config
        self.amap = AddressMap(config.line_size, config.region_lines, config.page_size)
        self.stats = StatGroup(config.name)
        self.energy = EnergyAccountant(self.stats.child("energy"))
        self.network = Network(
            Crossbar(config.nodes), config.latency.noc, self.stats.child("noc")
        )
        self.memory = MainMemory(self.stats.child("dram"))
        self.nodes = [NodeCaches(n, config) for n in range(config.nodes)]
        self.tlbs = [
            TwoLevelTLB(
                config.tlb,
                config.latency.tlb_l1,
                config.latency.tlb_l2,
                self.stats.child("tlb"),
            )
            for _ in range(config.nodes)
        ]
        self.llc: SetAssocStore[LLCLine] = SetAssocStore(
            config.llc.sets, config.llc.ways
        )
        self.directory = Directory()
        # Hot-path hoists: the latency table and address bit fields,
        # resolved once instead of per access.
        self._lat = config.latency
        self._line_bits = self.amap.line_bits
        self._page_bits = self.amap.page_bits
        self._register_energy()

    # ------------------------------------------------------------------ setup

    def _register_energy(self) -> None:
        cfg = self.config
        reg = self.energy.register
        reg(sram_structure("tlb1", cfg.tlb.l1_entries * 8, 1.0,
                           cfg.tlb.l1_ways, entry_bytes=8))
        reg(sram_structure("tlb2", cfg.tlb.l2_entries * 8, 1.0,
                           cfg.tlb.l2_ways, entry_bytes=8))
        # Perfect way prediction: all tags searched, one data way read.
        reg(sram_structure("l1", cfg.l1i.size, 1.0, cfg.l1i.ways))
        reg(sram_structure("l1_probe", cfg.l1i.size, 0.0, cfg.l1i.ways))
        if cfg.l2:
            reg(sram_structure("l2", cfg.l2.size, 1.0, cfg.l2.ways))
            reg(sram_structure("l2_probe", cfg.l2.size, 0.0, cfg.l2.ways))
        # Serialized LLC: tag+directory lookup, then one data way.
        dir_bytes = cfg.llc.lines * 2  # ~9 bits of sharer state per line
        reg(sram_structure("llc_tagdir", dir_bytes, 1.0, cfg.llc.ways, entry_bytes=2))
        reg(sram_structure("llc_data", cfg.llc.size, 1.0, 0.0))

    # ------------------------------------------------------------------ helpers

    def _llc_tag_latency(self) -> int:
        return self._lat.llc - self._lat.llc_data

    def _probe_node(self, node: int) -> None:
        """Energy of a coherence probe into a node's private levels."""
        self.energy.charge_read("l1_probe")
        if self.config.l2:
            self.energy.charge_read("l2_probe")

    def _send(self, kind: MessageKind, src: int, dst: int) -> int:
        return self.network.send(kind, src, dst)

    # ------------------------------------------------------------------ access

    def fastpath_probe(self, check_load: Optional[Callable[[int, int], None]] = None
                       ) -> "BaselineFastPath":
        """This machine's probe for the batched driver (``sim.batch``).

        ``check_load(line, version)`` is the driver's value check for a
        fast load, None when values are not checked.
        """
        return BaselineFastPath(self, check_load)

    def access(self, acc: Access, paddr: int, store_version: int = 0) -> AccessResult:
        """Run one memory reference through the hierarchy.

        Args:
            acc: the reference (core, kind, vaddr).
            paddr: translated physical address (the driver owns the page
                table so all systems see identical physical placement).
            store_version: for stores, the oracle's new version number.
        """
        node = acc.core
        line = paddr >> self._line_bits
        kind = acc.kind
        instr = kind is AccessKind.IFETCH
        is_write = kind is AccessKind.STORE
        caches = self.nodes[node]
        energy = self.energy
        stats = self.stats
        latency = 0

        # TLB (L1-TLB latency is folded into the L1 pipeline stage).
        tlb_result = self.tlbs[node].translate(acc.vaddr >> self._page_bits)
        energy.charge_read("tlb1")
        if tlb_result.level >= 2:
            energy.charge_read("tlb2")
            latency += tlb_result.latency - self._lat.tlb_l1

        # L1 lookup.
        energy.charge_read("l1")
        latency += self._lat.l1
        stats.add(_KEY_L1_ACC[instr])
        copy = caches.l1_hit(kind, line)
        if copy is not None and caches.holds(line):
            if not is_write:
                stats.add(_KEY_L1_HIT[instr])
                return AccessResult(HitLevel.L1, latency, version=copy.version)
            if caches.state_of(line).can_write:
                stats.add("l1.d.hits")
                caches.write_hit(line, store_version)
                return AccessResult(HitLevel.L1, latency, version=store_version)
            # Store hit on a Shared line: upgrade through the directory.
            latency += self._upgrade(node, line, store_version)
            stats.add("l1.d.hits")  # data was present; only permission missed
            stats.add("upgrades")
            return AccessResult(HitLevel.L1, latency, version=store_version)

        stats.add(_KEY_L1_MISS[instr])

        # L2 lookup (Base-3L).
        if caches.l2 is not None:
            energy.charge_read("l2")
            latency += self._lat.l2
            stats.add(_KEY_L2_ACC[instr])
            copy2 = caches.l2_hit(line)
            if copy2 is not None and caches.holds(line):
                state = caches.state_of(line)
                if not is_write:
                    stats.add(_KEY_L2_HIT[instr])
                    self._install(caches, kind, line, copy2.version, state,
                                  copy2.dirty)
                    return AccessResult(HitLevel.L2, latency, version=copy2.version)
                if state.can_write:
                    stats.add("l2.d.hits")
                    self._install(caches, kind, line, store_version, state, True)
                    caches.write_hit(line, store_version)
                    return AccessResult(HitLevel.L2, latency, version=store_version)
                self._install(caches, kind, line, copy2.version, state,
                              copy2.dirty)
                latency += self._upgrade(node, line, store_version)
                stats.add("l2.d.hits")
                stats.add("upgrades")
                return AccessResult(HitLevel.L2, latency, version=store_version)

        # Global path across the NoC.
        if is_write:
            level, extra, version = self._global_write(node, kind, line,
                                                       store_version)
        else:
            level, extra, version = self._global_read(node, kind, line)
        return AccessResult(level, latency + extra, version=version)

    # ------------------------------------------------------------------ upgrade

    def _upgrade(self, node: int, line: int, store_version: int) -> int:
        """Store hit on a Shared copy: invalidate other sharers, go M."""
        caches = self.nodes[node]
        latency = self._send(MessageKind.UPGRADE_REQ, node, FAR_SIDE_HUB)
        self.energy.charge_read("llc_tagdir")
        latency += self._llc_tag_latency()
        entry = self.directory.peek(line)
        if entry is None:
            raise InvariantViolation(
                f"upgrade for line {line:#x} not tracked by the directory"
            )
        latency += self._invalidate_sharers(line, exclude=node, collector=None)
        self.directory.set_owner(line, node)
        latency += self._send(MessageKind.CTRL_REPLY, FAR_SIDE_HUB, node)
        if caches.l1d.lookup(line, touch=False) is None:
            # Base-3L: the copy lives only in L2; pull it into L1-D to write.
            self._install(caches, AccessKind.STORE, line, store_version,
                          CoherenceState.MODIFIED, True)
        caches.state[line] = CoherenceState.MODIFIED
        caches.write_hit(line, store_version)
        return latency

    def _invalidate_sharers(self, line: int, exclude: int,
                            collector: Optional[List[Tuple[bool, int]]]) -> int:
        """Multicast invalidations per the directory's sharer set."""
        entry = self.directory.peek(line)
        if entry is None:
            return 0
        worst = 0
        targets = [n for n in sorted(entry.sharers | (
            {entry.owner} if entry.owner is not None else set()
        )) if n != exclude]
        for target in targets:
            lat = self._send(MessageKind.INVALIDATE, FAR_SIDE_HUB, target)
            self._probe_node(target)
            self.stats.add("invalidations_received")
            had_dirty, version = self.nodes[target].invalidate_line(line)
            if collector is not None:
                collector.append((had_dirty, version))
            elif had_dirty:
                # Dirty data pulled back into the LLC with the invalidation.
                llc_line = self.llc.lookup(line, touch=False)
                if llc_line is not None:
                    llc_line.version = max(llc_line.version, version)
                    llc_line.dirty = True
            self.directory.remove_node(line, target)
            lat += self._send(MessageKind.INV_ACK, target, exclude)
            lat += self._lat.l1  # probe latency at the sharer
            worst = max(worst, lat)
        return worst

    # ------------------------------------------------------------------ reads

    def _global_read(self, node: int, kind: AccessKind,
                     line: int) -> Tuple[HitLevel, int, int]:
        latency = self._send(MessageKind.READ_REQ, node, FAR_SIDE_HUB)
        self.energy.charge_read("llc_tagdir")
        latency += self._llc_tag_latency()
        llc_line = self.llc.lookup(line)

        if llc_line is not None:
            entry = self.directory.entry(line)
            if entry.owner is not None and entry.owner != node:
                # 3-hop indirection through the remote owner.
                owner = entry.owner
                latency += self._send(MessageKind.FWD_REQ, FAR_SIDE_HUB, owner)
                self._probe_node(owner)
                latency += self._lat.l1
                was_dirty, version = self.nodes[owner].downgrade_line(line)
                if was_dirty:
                    llc_line.version = max(llc_line.version, version)
                    llc_line.dirty = True
                    self._send(MessageKind.WRITEBACK, owner, FAR_SIDE_HUB)
                self.directory.clear_owner(line)
                latency += self._send(MessageKind.DATA_REPLY, owner, node)
                self.directory.add_sharer(line, node)
                self._finish_fill(node, kind, line, llc_line.version,
                                  CoherenceState.SHARED)
                self.stats.add("reads.remote_node")
                return HitLevel.REMOTE_NODE, latency, llc_line.version

            if entry.owner == node:
                # The requesting node itself owns the line (it sits in its
                # other L1, e.g. an ifetch of a stored-to line): serve the
                # node-local newest version without touching LLC data.
                version = self.nodes[node].current_version(line)
                state = self.nodes[node].state_of(line)
                dirty = state is CoherenceState.MODIFIED
                self._install(self.nodes[node], kind, line, version, state, dirty)
                self.stats.add("reads.self_owner")
                return HitLevel.LLC_REMOTE, latency, version

            self.energy.charge_read("llc_data")
            latency += self._lat.llc_data
            latency += self._send(MessageKind.DATA_REPLY, FAR_SIDE_HUB, node)
            others = bool(entry.sharers - {node})
            if others:
                state = CoherenceState.SHARED
                self.directory.add_sharer(line, node)
            else:
                state = CoherenceState.EXCLUSIVE
                self.directory.set_owner(line, node)
            self._finish_fill(node, kind, line, llc_line.version, state)
            self.stats.add("reads.llc")
            return HitLevel.LLC_REMOTE, latency, llc_line.version

        # LLC miss: fetch from memory, fill the LLC (inclusive), reply.
        version = self.memory.read_line(line)
        self.energy.charge_dram()
        latency += self._lat.memory
        self._fill_llc(line, version, dirty=False)
        # Exclusive grant: the directory must record the node as owner so a
        # silent E->M upgrade is still traceable.
        self.directory.set_owner(line, node)
        latency += self._send(MessageKind.DATA_REPLY, FAR_SIDE_HUB, node)
        self._finish_fill(node, kind, line, version, CoherenceState.EXCLUSIVE)
        self.stats.add("reads.memory")
        return HitLevel.MEMORY, latency, version

    # ------------------------------------------------------------------ writes

    def _global_write(self, node: int, kind: AccessKind, line: int,
                      store_version: int) -> Tuple[HitLevel, int, int]:
        latency = self._send(MessageKind.READ_EX_REQ, node, FAR_SIDE_HUB)
        self.energy.charge_read("llc_tagdir")
        latency += self._llc_tag_latency()
        llc_line = self.llc.lookup(line)

        if llc_line is not None:
            entry = self.directory.entry(line)
            level = HitLevel.LLC_REMOTE
            if entry.owner is not None and entry.owner != node:
                owner = entry.owner
                latency += self._send(MessageKind.FWD_REQ, FAR_SIDE_HUB, owner)
                self._probe_node(owner)
                latency += self._lat.l1
                self.stats.add("invalidations_received")
                had_dirty, version = self.nodes[owner].invalidate_line(line)
                if had_dirty:
                    llc_line.version = max(llc_line.version, version)
                    llc_line.dirty = True
                self.directory.remove_node(line, owner)
                latency += self._send(MessageKind.DATA_REPLY, owner, node)
                level = HitLevel.REMOTE_NODE
            else:
                collected: List[Tuple[bool, int]] = []
                latency += self._invalidate_sharers(line, exclude=node,
                                                    collector=collected)
                for had_dirty, version in collected:
                    if had_dirty:
                        llc_line.version = max(llc_line.version, version)
                        llc_line.dirty = True
                self.energy.charge_read("llc_data")
                latency += self._lat.llc_data
                latency += self._send(MessageKind.DATA_REPLY, FAR_SIDE_HUB, node)
            self.directory.set_owner(line, node)
            self._finish_fill(node, kind, line, store_version,
                              CoherenceState.MODIFIED, dirty=True)
            self.stats.add("writes.llc")
            return level, latency, store_version

        version = self.memory.read_line(line)
        self.energy.charge_dram()
        latency += self._lat.memory
        self._fill_llc(line, version, dirty=False)
        self.directory.set_owner(line, node)
        latency += self._send(MessageKind.DATA_REPLY, FAR_SIDE_HUB, node)
        self._finish_fill(node, kind, line, store_version,
                          CoherenceState.MODIFIED, dirty=True)
        self.stats.add("writes.memory")
        return HitLevel.MEMORY, latency, store_version

    # ------------------------------------------------------------------ fills

    def _finish_fill(self, node: int, kind: AccessKind, line: int, version: int,
                     state: CoherenceState, dirty: bool = False) -> None:
        self._install(self.nodes[node], kind, line, version, state, dirty)

    def _install(self, caches: NodeCaches, kind: AccessKind, line: int,
                 version: int, state: CoherenceState, dirty: bool) -> None:
        for victim in caches.install(kind, line, version, state, dirty):
            self._handle_node_eviction(caches.node, victim)

    def _handle_node_eviction(self, node: int, victim: EvictedLine) -> None:
        self.stats.add("node_evictions")
        if victim.state is CoherenceState.SHARED and not victim.dirty:
            # Silent eviction; directory sharer bits go stale (spurious
            # invalidations are modeled and harmless).
            return
        llc_line = self.llc.lookup(victim.line, touch=False)
        if victim.dirty:
            self._send(MessageKind.WRITEBACK, node, FAR_SIDE_HUB)
            self.energy.charge_write("llc_data")
            if llc_line is not None:
                llc_line.version = max(llc_line.version, victim.version)
                llc_line.dirty = True
            else:
                # The LLC already evicted this line (recall raced in trace
                # order); write straight to memory.
                self.memory.write_line(victim.line, victim.version)
                self.energy.charge_dram()
        else:
            self._send(MessageKind.CTRL_REPLY, node, FAR_SIDE_HUB)
        self.directory.remove_node(victim.line, node)

    def _fill_llc(self, line: int, version: int, dirty: bool) -> None:
        self.energy.charge_write("llc_data")
        victim = self.llc.insert(line, LLCLine(version, dirty))
        if victim is None:
            return
        vline, vpayload = victim
        self._recall(vline, vpayload)

    def _recall(self, line: int, payload: LLCLine) -> None:
        """Inclusive-LLC eviction: pull the line out of every node."""
        self.stats.add("llc_recalls")
        entry = self.directory.drop(line)
        newest = payload.version
        dirty = payload.dirty
        if entry is not None:
            holders = set(entry.sharers)
            if entry.owner is not None:
                holders.add(entry.owner)
            for holder in sorted(holders):
                self._send(MessageKind.INVALIDATE, FAR_SIDE_HUB, holder)
                self._probe_node(holder)
                self.stats.add("invalidations_received")
                had_dirty, version = self.nodes[holder].invalidate_line(line)
                if had_dirty:
                    newest = max(newest, version)
                    dirty = True
                self._send(MessageKind.INV_ACK, holder, FAR_SIDE_HUB)
        if dirty:
            self.memory.write_line(line, newest)
            self.energy.charge_dram()

    # ------------------------------------------------------------------ reporting

    def finalize(self) -> None:
        """Fold network energy into the accountant (end of run)."""
        self.energy.charge_raw("noc", self.network.energy_pj)
        self.network.flush()
        self.energy.flush()
