"""Declarative protocol specs: the single source of truth.

Two machine-readable transition tables — baseline directory-MESI and the
D2M MD-hierarchy protocol — in the classic ``state x event -> guard,
actions, next-state`` form (the MSI tables in SNIPPETS.md are the
template; the D2M table follows the paper's Section 3 event taxonomy
A/B/C/D1-D4/E/F).

Each :class:`Transition` carries three bindings that tie the table to
the rest of the verification subsystem:

* ``evidence`` — anchors into the implementation (module, qualname,
  extracted facts).  :func:`repro.verify.extract.reconcile` requires
  every anchor to resolve and every implemented fact to be claimed here
  (or waived in :data:`WAIVERS` with a justification).
* ``model`` — whether the transition is represented in the BFS model
  (:mod:`repro.verify.model`).  ``model=False`` marks effects below the
  model's abstraction grain (metadata caching, NS replication, trace
  plumbing); every ``model=True`` transition must be *reachable* in the
  exhaustive exploration or the checker reports it unreachable.
* ``coverage`` — runtime signatures (``stat:<key>``, a counter keyed
  relative to the hierarchy's root stat group, and
  ``emit:<kind>[:<detail-prefix>]``, a tracer event), compiled per spec
  into one :class:`SignalTable` that :mod:`repro.verify.coverage` (per
  run) and the slow-tail profiler (per access) classify by.  ``cold``
  carries the justification when a transition is expected to stay
  unexercised by the pinned matrix and its probes.  ``step`` marks a
  row that fires as one step of most accesses (the local install, the
  MD1 lookup) rather than naming a behaviour: the slow-tail profiler
  counts such rows but gives them seconds only when nothing else fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.common.params import SystemKind


@dataclass(frozen=True)
class Evidence:
    """One anchor into the implementation.

    ``facts`` lists the extracted facts (``kind:value`` strings, see
    :mod:`repro.verify.extract`) this transition claims from the anchored
    function.  An empty tuple still pins the function's existence.
    """

    module: str
    qualname: str
    facts: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Transition:
    """One row of a protocol transition table."""

    tid: str
    state: str
    event: str
    guard: str
    actions: Tuple[str, ...]
    next_state: str
    evidence: Tuple[Evidence, ...]
    coverage: Tuple[str, ...] = ()
    model: bool = True
    cold: Optional[str] = None
    step: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    """A named transition table plus its per-protocol metadata."""

    name: str
    description: str
    transitions: Tuple[Transition, ...] = field(default_factory=tuple)

    def by_tid(self) -> Dict[str, Transition]:
        return {t.tid: t for t in self.transitions}

    @cached_property
    def table(self) -> "SignalTable":
        """The coverage signatures compiled for runtime classification."""
        return SignalTable.compile(self)


def _ev(module: str, qualname: str, *facts: str) -> Evidence:
    return Evidence(module, qualname, tuple(facts))


_H = "baseline.hierarchy"
_C = "baseline.cache"
_P = "core.protocol"
_N = "core.node"
_M3 = "core.md3"
_BH = "BaselineHierarchy"
_NC = "NodeCaches"
_DP = "D2MProtocol"
_DN = "D2MNode"


# ---------------------------------------------------------------------------
# Baseline directory-MESI
# ---------------------------------------------------------------------------

MESI_SPEC = ProtocolSpec(
    name="mesi",
    description=("Baseline inclusive-LLC full-map directory MESI "
                 "(Base-2L / Base-3L configurations)"),
    transitions=(
        Transition(
            tid="mesi.load.hit", state="S|E|M", event="load",
            guard="line valid in local L1/L2",
            actions=("serve locally",), next_state="unchanged",
            evidence=(_ev(_H, f"{_BH}.access"),),
            coverage=("stat:l1.d.hits",),
        ),
        Transition(
            tid="mesi.ifetch.hit", state="S|E|M", event="ifetch",
            guard="line valid in local L1-I",
            actions=("serve locally",), next_state="unchanged",
            evidence=(_ev(_H, f"{_BH}.access"),),
            coverage=("stat:l1.i.hits",),
            model=False,  # the model has no I-side; load.hit stands for it
        ),
        Transition(
            tid="mesi.l2.hit", state="S|E|M", event="load|ifetch|store",
            guard="L1 miss, line valid in the node's L2 (Base-3L)",
            actions=("fill the kind-side L1 from L2",
                     "a store on S upgrades as mesi.store.upgrade"),
            next_state="unchanged (M for a store)",
            evidence=(_ev(_H, f"{_BH}.access", "stat:upgrades"),),
            coverage=("stat:l2.i.hits", "stat:l2.d.hits"),
            model=False,  # private levels are below the model's node grain
        ),
        Transition(
            tid="mesi.store.hit_m", state="M", event="store",
            guard="line Modified locally",
            actions=("write in place",), next_state="M",
            evidence=(_ev(_C, f"{_NC}.write_hit", "state:MODIFIED"),),
            coverage=("stat:l1.d.hits",),
        ),
        Transition(
            tid="mesi.store.hit_e", state="E", event="store",
            guard="line Exclusive locally",
            actions=("silent upgrade",), next_state="M",
            evidence=(_ev(_C, f"{_NC}.write_hit", "state:MODIFIED"),),
            coverage=("stat:l1.d.hits",),
        ),
        Transition(
            tid="mesi.store.upgrade", state="S", event="store",
            guard="line Shared locally",
            actions=("UPGRADE_REQ to directory",
                     "invalidate other sharers", "CTRL_REPLY"),
            next_state="M",
            evidence=(
                _ev(_H, f"{_BH}._upgrade", "send:UPGRADE_REQ",
                    "send:CTRL_REPLY", "state:MODIFIED"),
                _ev(_H, f"{_BH}.access", "stat:upgrades"),
            ),
            coverage=("stat:upgrades",),
        ),
        Transition(
            tid="mesi.inv.sharer", state="S (remote sharer)",
            event="remote store/upgrade",
            guard="node in directory sharer set",
            actions=("INVALIDATE to sharer", "INV_ACK"),
            next_state="I",
            evidence=(
                _ev(_H, f"{_BH}._invalidate_sharers", "send:INVALIDATE",
                    "send:INV_ACK", "stat:invalidations_received"),
            ),
            coverage=("stat:invalidations_received",),
        ),
        Transition(
            tid="mesi.load.miss_llc_shared", state="I", event="load",
            guard="LLC holds line, other sharers exist",
            actions=("READ_REQ to directory", "DATA_REPLY from LLC"),
            next_state="S",
            evidence=(
                _ev(_H, f"{_BH}._global_read", "send:READ_REQ",
                    "send:DATA_REPLY", "state:SHARED", "stat:reads.llc"),
            ),
            coverage=("stat:reads.llc",),
        ),
        Transition(
            tid="mesi.load.miss_llc_excl", state="I", event="load",
            guard="LLC holds line, no sharers",
            actions=("READ_REQ to directory", "DATA_REPLY from LLC"),
            next_state="E",
            evidence=(_ev(_H, f"{_BH}._global_read", "state:EXCLUSIVE"),),
            coverage=("stat:reads.llc",),
        ),
        Transition(
            tid="mesi.load.miss_fwd", state="I", event="load",
            guard="remote owner holds line M/E",
            actions=("FWD_REQ to owner", "owner downgrades to S",
                     "owner WRITEBACK to LLC", "DATA_REPLY 3-hop"),
            next_state="S",
            evidence=(
                _ev(_H, f"{_BH}._global_read", "send:FWD_REQ",
                    "send:WRITEBACK", "stat:reads.remote_node"),
                _ev(_C, f"{_NC}.downgrade_line", "state:SHARED"),
            ),
            coverage=("stat:reads.remote_node",),
        ),
        Transition(
            tid="mesi.load.self_owner", state="M|E (other side)",
            event="load",
            guard="requesting node already owns the line via the other "
                  "L1 side (I-side/D-side split)",
            actions=("serve from own L2",), next_state="unchanged",
            evidence=(_ev(_H, f"{_BH}._global_read",
                          "stat:reads.self_owner"),),
            coverage=("stat:reads.self_owner",),
            model=False,  # I-/D-side split is below the model's line grain
        ),
        Transition(
            tid="mesi.load.miss_mem", state="I", event="load",
            guard="line uncached everywhere",
            actions=("memory fetch", "fill LLC", "DATA_REPLY"),
            next_state="E",
            evidence=(_ev(_H, f"{_BH}._global_read", "stat:reads.memory"),),
            coverage=("stat:reads.memory",),
        ),
        Transition(
            tid="mesi.store.miss_llc", state="I", event="store",
            guard="LLC holds line, no remote owner",
            actions=("READ_EX_REQ to directory",
                     "invalidate sharers", "DATA_REPLY"),
            next_state="M",
            evidence=(
                _ev(_H, f"{_BH}._global_write", "send:READ_EX_REQ",
                    "send:DATA_REPLY", "state:MODIFIED", "stat:writes.llc"),
            ),
            coverage=("stat:writes.llc",),
        ),
        Transition(
            tid="mesi.store.miss_fwd", state="I", event="store",
            guard="remote owner holds line M/E",
            actions=("FWD_REQ to owner", "owner invalidated",
                     "DATA_REPLY 3-hop"),
            next_state="M",
            evidence=(_ev(_H, f"{_BH}._global_write", "send:FWD_REQ",
                          "stat:invalidations_received"),),
            coverage=("stat:invalidations_received",),
        ),
        Transition(
            tid="mesi.store.miss_mem", state="I", event="store",
            guard="line uncached everywhere",
            actions=("memory fetch", "fill LLC", "DATA_REPLY"),
            next_state="M",
            evidence=(_ev(_H, f"{_BH}._global_write",
                          "stat:writes.memory"),),
            coverage=("stat:writes.memory",),
        ),
        Transition(
            tid="mesi.evict.clean", state="S|E", event="evict",
            guard="clean local victim",
            actions=("notify directory", "CTRL_REPLY"),
            next_state="I",
            evidence=(
                _ev(_H, f"{_BH}._handle_node_eviction", "send:CTRL_REPLY",
                    "stat:node_evictions"),
                _ev(_C, f"{_NC}._depart", "state:INVALID"),
            ),
            coverage=("stat:node_evictions",),
        ),
        Transition(
            tid="mesi.evict.dirty", state="M", event="evict",
            guard="dirty local victim",
            actions=("WRITEBACK to LLC", "directory owner cleared"),
            next_state="I",
            evidence=(_ev(_H, f"{_BH}._handle_node_eviction",
                          "send:WRITEBACK"),),
            coverage=("stat:node_evictions",),
        ),
        Transition(
            tid="mesi.recall", state="any valid", event="llc_evict",
            guard="inclusive LLC evicts a line with live node copies",
            actions=("INVALIDATE all sharers/owner", "INV_ACK",
                     "dirty data written back to memory"),
            next_state="I (all nodes)",
            evidence=(
                _ev(_H, f"{_BH}._recall", "send:INVALIDATE", "send:INV_ACK",
                    "stat:llc_recalls", "stat:invalidations_received"),
            ),
            coverage=("stat:llc_recalls",),
        ),
    ),
)


# ---------------------------------------------------------------------------
# D2M MD-hierarchy protocol
# ---------------------------------------------------------------------------

D2M_SPEC = ProtocolSpec(
    name="d2m",
    description=("D2M split hierarchy: MD1/MD2/MD3 metadata path, LI "
                 "pointers, region privatization, event taxonomy "
                 "A/B/C/D1-D4/E/F (paper Section 3)"),
    transitions=(
        Transition(
            tid="d2m.hit", state="line cached locally", event="load|store",
            guard="LI points at local L1/L2 and slot holds the line",
            actions=("serve locally",), next_state="unchanged",
            evidence=(_ev(_P, f"{_DP}.access"),),
            coverage=("stat:l1.d.hits",),
        ),
        # -- metadata lookup path (below the model's abstraction) -----------
        Transition(
            tid="d2m.md.md1_hit", state="MD1 has region", event="l1 miss",
            guard="primary MD1 entry valid",
            actions=("LI lookup from MD1",), next_state="unchanged",
            evidence=(_ev(_P, f"{_DP}._metadata", "stat:md.md1_hits"),
                      # the batched driver's fast path, counted per chunk
                      _ev(_P, "D2MFastPath.flush", "stat:md.md1_hits")),
            coverage=("stat:md.md1_hits",), model=False, step=True,
        ),
        Transition(
            tid="d2m.md.md1_cross", state="MD1 has region (cross)",
            event="l1 miss",
            guard="MD1 hit past the private-crossing threshold",
            actions=("LI lookup from MD1",), next_state="unchanged",
            evidence=(_ev(_P, f"{_DP}._metadata",
                          "stat:md.md1_cross_hits"),),
            coverage=("stat:md.md1_cross_hits",), model=False,
        ),
        Transition(
            tid="d2m.md.md2_hit", state="MD2 has region", event="l1 miss",
            guard="MD1 missed, node MD2 entry valid",
            actions=("promote region metadata into MD1",),
            next_state="unchanged",
            evidence=(
                _ev(_P, f"{_DP}._metadata", "stat:md.md2_hits"),
                _ev(_N, f"{_DN}.promote_to_md1", "emit:md1.promote"),
            ),
            coverage=("stat:md.md2_hits",), model=False,
        ),
        Transition(
            tid="d2m.md.miss", state="no local metadata", event="l1 miss",
            guard="MD1 and MD2 both miss",
            actions=("READ_MM to home MD3 bank", "MD_REPLY with region "
                     "classification and LI"),
            next_state="region classified (D1-D4)",
            evidence=(
                _ev(_P, f"{_DP}._metadata", "stat:md.misses"),
                _ev(_P, f"{_DP}._md_miss", "send:READ_MM",
                    "send:MD_REPLY"),
            ),
            coverage=("stat:md.misses",), model=False,
        ),
        # -- MD3 classification outcomes (paper D1-D4) ----------------------
        Transition(
            tid="d2m.D1", state="region untracked", event="md miss",
            guard="no MD3 entry for the region",
            actions=("create MD3 entry", "set PB={requester}",
                     "classify private"),
            next_state="region private, tracked",
            evidence=(
                _ev(_P, f"{_DP}._md_miss", "devent:D1", "emit:md3.classify",
                    "emit:md3.pb_add"),
                _ev(_M3, "MD3Store.create", "emit:md3.fill"),
            ),
            coverage=("emit:md3.classify:D1",),
        ),
        Transition(
            tid="d2m.D2", state="region private to another node",
            event="md miss",
            guard="MD3 entry private, PB holds a different node",
            actions=("GET_MD to private owner", "owner's region metadata "
                     "shared back", "PB += requester", "DONE"),
            next_state="region shared",
            evidence=(
                _ev(_P, f"{_DP}._md_miss", "devent:D2", "send:GET_MD",
                    "send:DONE"),
                _ev(_P, f"{_DP}._convert_private_to_shared",
                    "emit:region.share"),
            ),
            coverage=("emit:md3.classify:D2",),
        ),
        Transition(
            tid="d2m.D3", state="region shared", event="md miss",
            guard="MD3 entry shared, requester not in PB",
            actions=("PB += requester", "MD_REPLY"),
            next_state="region shared",
            evidence=(_ev(_P, f"{_DP}._md_miss", "devent:D3"),),
            coverage=("emit:md3.classify:D3",),
        ),
        Transition(
            tid="d2m.D4", state="region tracked, PB empty",
            event="md miss",
            guard="MD3 entry exists but no node caches the region",
            actions=("PB={requester}", "classify private"),
            next_state="region private",
            evidence=(_ev(_P, f"{_DP}._md_miss", "devent:D4"),),
            coverage=("emit:md3.classify:D4",),
        ),
        # -- read misses (event A, by data source) --------------------------
        Transition(
            tid="d2m.A.node", state="master at remote node", event="load",
            guard="LI names a remote node master",
            actions=("DIRECT_READ to master node", "DATA_REPLY",
                     "install replica"),
            next_state="requester holds replica",
            evidence=(
                _ev(_P, f"{_DP}.access", "devent:A", "devent:A_node"),
                _ev(_P, f"{_DP}._read_remote_node", "send:DIRECT_READ",
                    "send:DATA_REPLY", "role:REPLICA"),
            ),
            coverage=("stat:events.A_node",),
        ),
        Transition(
            tid="d2m.A.llc", state="master in LLC", event="load",
            guard="LI names an LLC master slot",
            actions=("DIRECT_READ to LLC", "DATA_REPLY",
                     "install replica"),
            next_state="requester holds replica",
            evidence=(
                _ev(_P, f"{_DP}.access", "devent:A_llc"),
                _ev(_P, f"{_DP}._read_llc", "send:DIRECT_READ",
                    "send:DATA_REPLY", "role:REPLICA"),
            ),
            coverage=("stat:events.A_llc",),
        ),
        Transition(
            tid="d2m.A.mem", state="line uncached", event="load",
            guard="LI points at memory",
            actions=("MEM_READ", "MEM_DATA", "fill master (LLC for "
                     "shared regions, requesting node for private)",
                     "install replica"),
            next_state="master + requester replica",
            evidence=(
                _ev(_P, f"{_DP}.access", "devent:A_mem"),
                _ev(_P, f"{_DP}._read_memory", "send:MEM_READ",
                    "send:MEM_DATA", "emit:llc.fill", "role:MASTER",
                    "role:REPLICA"),
            ),
            coverage=("stat:events.A_mem",),
        ),
        Transition(
            tid="d2m.A.redirect", state="master busy/relocating",
            event="load",
            guard="memory read raced a master relocation",
            actions=("DIRECT_WRITE_DATA redirect", "FWD_REQ",
                     "DATA_REPLY from redirected server"),
            next_state="requester holds replica",
            evidence=(
                _ev(_P, f"{_DP}._read_memory", "stat:mem_reads_redirected",
                    "send:DIRECT_WRITE_DATA"),
                _ev(_P, f"{_DP}._serve_redirected", "send:FWD_REQ",
                    "send:DATA_REPLY", "role:REPLICA"),
            ),
            coverage=("stat:mem_reads_redirected",),
            model=False,  # in-flight races are below the atomic-event model
        ),
        Transition(
            tid="d2m.read.bypass", state="private region", event="load",
            guard="private-region read served without an LLC fill "
                  "(LLC bypass policy)",
            actions=("data straight from source to requester",),
            next_state="unchanged",
            evidence=(
                _ev(_P, f"{_DP}._read_llc", "stat:bypass.reads"),
                _ev(_P, f"{_DP}._read_memory", "stat:bypass.reads"),
                _ev(_P, f"{_DP}._serve_redirected", "stat:bypass.reads"),
            ),
            coverage=("stat:bypass.reads",),
            model=False,  # placement policy, not a coherence transition
        ),
        Transition(
            tid="d2m.read.replicate", state="shared region (NS-R)",
            event="load",
            guard="NS-R policy replicates a shared line into the LLC",
            actions=("chain LLC replica behind the master",),
            next_state="LLC holds replica",
            evidence=(
                _ev(_P, f"{_DP}._read_llc", "stat:ns.replications"),
                _ev(_P, f"{_DP}._serve_redirected", "stat:ns.replications"),
                _ev(_P, f"{_DP}._chain_local_replica", "emit:llc.fill",
                    "role:REPLICA"),
            ),
            coverage=("stat:ns.replications",),
            model=False,  # NS-R replica chains are FS-model extensions
        ),
        # -- writes (events B and C) ----------------------------------------
        Transition(
            tid="d2m.B", state="private region", event="store",
            guard="region private to the writer",
            actions=("claim mastership (pull data via DIRECT_READ / "
                     "MEM_READ if needed)", "write in place",
                     "no global coherence traffic"),
            next_state="writer is master",
            evidence=(
                _ev(_P, f"{_DP}._write_private", "devent:B", "role:MASTER",
                    "send:DIRECT_READ", "send:DATA_REPLY", "send:MEM_READ",
                    "send:MEM_DATA"),
                _ev(_P, f"{_DP}._claim_mastership", "emit:master.claim",
                    "role:VICTIM_SLOT"),
            ),
            coverage=("stat:events.B",),
        ),
        Transition(
            tid="d2m.C", state="shared region", event="store",
            guard="region shared",
            actions=("blocking READ_EX_REQ via home MD3",
                     "DIRECT_READ_EX / MEM_READ for data",
                     "writer becomes master", "DONE"),
            next_state="writer is master",
            evidence=(
                _ev(_P, f"{_DP}._write_shared", "devent:C",
                    "send:READ_EX_REQ", "send:DIRECT_READ_EX",
                    "send:DATA_REPLY", "send:MEM_READ", "send:MEM_DATA",
                    "send:DONE", "role:MASTER"),
            ),
            coverage=("stat:events.C",),
        ),
        Transition(
            tid="d2m.C.inv", state="shared copies at PB nodes",
            event="store (C)",
            guard="PB-scoped invalidation multicast",
            actions=("INVALIDATE to PB nodes", "INV_ACK collected"),
            next_state="other copies invalid",
            evidence=(
                _ev(_P, f"{_DP}._write_shared", "send:INVALIDATE",
                    "send:INV_ACK", "emit:inv.apply",
                    "stat:invalidations_received"),
            ),
            coverage=("stat:invalidations_received",),
        ),
        Transition(
            tid="d2m.C.master_node", state="master at another node",
            event="store (C)",
            guard="line master lives at a PB node",
            actions=("invalidate the remote master copy",),
            next_state="master moves to writer",
            evidence=(
                _ev(_P, f"{_DP}._invalidate_master_node", "emit:inv.master",
                    "stat:invalidations_received"),
            ),
            coverage=("emit:inv.master",),
        ),
        Transition(
            tid="d2m.C.prune", state="region shared", event="store (C)",
            guard="post-C pruning clears stale PB members",
            actions=("MD2_SPILL pruned members' metadata",
                     "clear PB bits at MD3"),
            next_state="PB pruned toward the writer",
            evidence=(
                _ev(_P, f"{_DP}._maybe_prune", "emit:md2.prune",
                    "emit:md3.pb_clear", "send:MD2_SPILL",
                    "stat:md2.prunes"),
            ),
            coverage=("stat:md2.prunes",),
        ),
        Transition(
            tid="d2m.C.privatize", state="region shared, PB={writer}",
            event="store (C)",
            guard="pruning left only the writer in PB",
            actions=("reclassify region private",),
            next_state="region private",
            evidence=(
                _ev(_P, f"{_DP}._privatize", "emit:region.privatize",
                    "stat:reprivatizations"),
            ),
            coverage=("stat:reprivatizations",),
        ),
        # -- evictions (events E and F) -------------------------------------
        Transition(
            tid="d2m.E", state="private master at node", event="evict",
            guard="node evicts a line it masters, region private",
            actions=("relocate master (DIRECT_WRITE_DATA to LLC / "
                     "EVICT_REQ)", "CTRL_REPLY", "DONE"),
            next_state="master in LLC",
            evidence=(
                _ev(_P, f"{_DP}._relocate_master", "devent:E",
                    "emit:master.relocate", "role:MASTER", "send:EVICT_REQ",
                    "send:CTRL_REPLY", "send:DIRECT_WRITE_DATA",
                    "send:DONE"),
            ),
            coverage=("stat:events.E",),
        ),
        Transition(
            tid="d2m.F", state="shared master at node", event="evict",
            guard="node evicts a line it masters, region shared",
            actions=("relocate master", "NEW_MASTER multicast to PB"),
            next_state="master in LLC, PB LIs updated",
            evidence=(
                _ev(_P, f"{_DP}._relocate_master", "devent:F",
                    "send:NEW_MASTER"),
            ),
            coverage=("stat:events.F",),
        ),
        Transition(
            tid="d2m.evict.replica", state="replica at node", event="evict",
            guard="node evicts a non-master copy",
            actions=("drop replica (DIRECT_WRITE_DATA to master when "
                     "dirty)",),
            next_state="copy gone, master keeps data",
            evidence=(
                _ev(_P, f"{_DP}._handle_local_eviction", "emit:node.evict",
                    "role:REPLICA", "send:DIRECT_WRITE_DATA",
                    "stat:evictions.replica"),
            ),
            coverage=("stat:evictions.replica",),
        ),
        Transition(
            tid="d2m.evict.llc_tracked", state="master in LLC",
            event="llc_evict",
            guard="LLC evicts a tracked master slot",
            actions=("relocate mastership (RP_UPDATE / CTRL_REPLY)",),
            next_state="master at a PB node or memory",
            evidence=(
                _ev(_P, f"{_DP}._evict_llc_slot", "emit:llc.evict",
                    "send:CTRL_REPLY", "send:RP_UPDATE",
                    "stat:evictions.llc"),
            ),
            coverage=("stat:evictions.llc",),
        ),
        Transition(
            tid="d2m.evict.llc_shared", state="shared master in LLC",
            event="llc_evict",
            guard="evicted slot's region is shared",
            actions=("NEW_MASTER multicast to PB nodes",),
            next_state="PB LIs repointed",
            evidence=(
                _ev(_P, f"{_DP}._evict_llc_slot", "send:NEW_MASTER",
                    "stat:evictions.llc_shared"),
            ),
            coverage=("stat:evictions.llc_shared",),
        ),
        Transition(
            tid="d2m.evict.llc_untracked", state="untracked line in LLC",
            event="llc_evict",
            guard="slot's region no longer tracked by MD3",
            actions=("silent drop",),
            next_state="slot free",
            evidence=(
                _ev(_P, f"{_DP}._evict_llc_slot",
                    "stat:evictions.llc_untracked"),
            ),
            coverage=("stat:evictions.llc_untracked",),
            model=False,  # model keeps every cached line MD3-tracked
        ),
        Transition(
            tid="d2m.wb", state="dirty master leaving caches",
            event="llc_evict|global_evict",
            guard="newest data would otherwise be lost",
            actions=("WRITEBACK to memory",),
            next_state="memory fresh",
            evidence=(
                _ev(_P, f"{_DP}._writeback_if_needed", "send:WRITEBACK",
                    "emit:mem.writeback"),
            ),
            coverage=("emit:mem.writeback",),
        ),
        Transition(
            tid="d2m.free_master", state="master slot in LLC",
            event="ownership move",
            guard="mastership moved elsewhere",
            actions=("free the LLC master slot",),
            next_state="slot reusable",
            evidence=(_ev(_P, f"{_DP}._free_llc_master",
                          "emit:llc.free_master"),),
            coverage=("emit:llc.free_master",),
            model=False,  # bookkeeping half of B/C master moves
        ),
        # -- metadata capacity events ---------------------------------------
        Transition(
            tid="d2m.spill", state="node MD2 at capacity", event="spill",
            guard="MD2 set conflict evicts a region's node metadata",
            actions=("MD2_SPILL region summary to MD3",
                     "clear node's PB bit", "drop MD1/MD2 entries"),
            next_state="node no longer tracks region",
            evidence=(
                _ev(_P, f"{_DP}._spill_md2", "emit:md2.spill",
                    "emit:md3.pb_clear", "send:MD2_SPILL", "role:MASTER",
                    "stat:md2.spills"),
                _ev(_N, f"{_DN}._spill_md1", "emit:md1.spill"),
                _ev(_N, f"{_DN}.insert_md2", "emit:md1.spill"),
                _ev(_N, f"{_DN}.drop_md1", "emit:md1.drop"),
                _ev(_N, f"{_DN}.drop_md2", "emit:md2.drop"),
            ),
            coverage=("stat:md2.spills",),
        ),
        Transition(
            tid="d2m.global_evict", state="MD3 set at capacity",
            event="global_evict",
            guard="MD3 conflict forces a region out of the global "
                  "directory",
            actions=("INVALIDATE every cached copy", "WRITEBACK dirty "
                     "data", "CTRL_REPLY", "drop MD3 entry"),
            next_state="region untracked",
            evidence=(
                _ev(_P, f"{_DP}._global_region_eviction",
                    "emit:md3.global_evict", "send:INVALIDATE",
                    "send:WRITEBACK", "send:CTRL_REPLY",
                    "stat:invalidations_received",
                    "stat:md3.global_evictions"),
                _ev(_M3, "MD3Store.drop", "emit:md3.drop"),
            ),
            coverage=("stat:md3.global_evictions",),
        ),
        # -- local plumbing below the model grain ---------------------------
        Transition(
            tid="d2m.install", state="reply arrived", event="fill",
            guard="completed access installs into local L1/L2",
            actions=("write slot", "update LI"),
            next_state="line cached locally",
            evidence=(_ev(_P, f"{_DP}._install_local", "emit:l1.install"),),
            coverage=("emit:l1.install",), model=False, step=True,
        ),
        Transition(
            tid="d2m.retrack", state="region re-enters LLC tracking",
            event="fill",
            guard="a shared-region line returns to an LLC whose region "
                  "view had lapsed",
            actions=("re-register region in the LLC's region table",),
            next_state="region tracked by LLC",
            evidence=(_ev(_P, f"{_DP}._retrack_region_llc",
                          "emit:llc.retrack"),),
            coverage=("emit:llc.retrack",), model=False,
        ),
        Transition(
            tid="d2m.miss.private_region", state="private region",
            event="l1 miss",
            guard="accounting: miss fell in a private region",
            actions=("bump private-region miss counter",),
            next_state="unchanged",
            evidence=(_ev(_P, f"{_DP}.access",
                          "stat:misses.private_region"),),
            coverage=("stat:misses.private_region",), model=False,
        ),
        Transition(
            tid="d2m.pressure", state="LLC under pressure", event="tick",
            guard="periodic pressure sharing between LLC banks",
            actions=("PRESSURE_SHARE broadcast",),
            next_state="unchanged",
            evidence=(_ev(_P, f"{_DP}._tick_pressure",
                          "send:PRESSURE_SHARE"),),
            coverage=("emit:noc.msg:PRESSURE_SHARE",), model=False,
        ),
    ),
)


SPECS: Dict[str, ProtocolSpec] = {
    MESI_SPEC.name: MESI_SPEC,
    D2M_SPEC.name: D2M_SPEC,
}


def spec_transitions() -> Iterator[Transition]:
    """All transitions across both specs."""
    for spec in SPECS.values():
        yield from spec.transitions


#: Extracted facts deliberately outside the transition tables.
#: Key: (module, qualname, fact) -> justification.  A waiver that stops
#: matching real code becomes a ``stale-waiver`` finding — waivers cannot
#: outlive the code they excuse.
WAIVERS: Dict[Tuple[str, str, str], str] = {
    (_P, f"{_DP}._send", "emit:noc.msg"):
        "generic per-message trace emit inside the send helper; each "
        "individual message is anchored via a send:<KIND> fact on its "
        "originating transition",
    (_C, f"{_NC}.state_of", "state:INVALID"):
        "read accessor's dict-get default for untracked lines, not a "
        "state write",
}


# ---------------------------------------------------------------------------
# Runtime classification: observed signals -> transition ids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalTable:
    """One spec's coverage signatures compiled for lookup: ``stats``
    maps a stat key to its ``(tid, signature)`` rows, ``emits`` a tracer
    event kind to its ``(detail_prefix, tid, signature)`` rows (``""``
    matches any detail).  Rows sharing a signature fire together.
    ``steps`` holds the tids of the spec's step rows."""

    stats: Dict[str, Tuple[Tuple[str, str], ...]]
    emits: Dict[str, Tuple[Tuple[str, str, str], ...]]
    steps: FrozenSet[str] = frozenset()

    @classmethod
    def compile(cls, spec: "ProtocolSpec") -> "SignalTable":
        stats: Dict[str, list] = {}
        emits: Dict[str, list] = {}
        for row in spec.transitions:
            for signature in row.coverage:
                scheme, _, rest = signature.partition(":")
                if scheme == "stat":
                    stats.setdefault(rest, []).append((row.tid, signature))
                elif scheme == "emit":
                    kind, _, prefix = rest.partition(":")
                    emits.setdefault(kind, []).append(
                        (prefix, row.tid, signature))
                else:
                    raise ValueError(
                        f"unknown coverage signature {signature!r}")
        return cls({key: tuple(rows) for key, rows in stats.items()},
                   {kind: tuple(rows) for kind, rows in emits.items()},
                   frozenset(row.tid for row in spec.transitions
                             if row.step))

    def classify(self, stats: Iterable[str],
                 emits: Iterable[Tuple[str, str]]) -> Dict[str, str]:
        """``{tid: signature}`` for each transition the signals exercise:
        ``stats`` are stat keys that fired (nonzero over a run, or grown
        over one access), ``emits`` observed ``(kind, detail)`` pairs.
        The signature is the first of the row's found firing (stat keys
        in the order given, then emits)."""
        fired: Dict[str, str] = {}
        for key in stats:
            for tid, signature in self.stats.get(key, ()):
                fired.setdefault(tid, signature)
        for kind, detail in emits:
            for prefix, tid, signature in self.emits.get(kind, ()):
                if detail.startswith(prefix):
                    fired.setdefault(tid, signature)
        return fired


def spec_for(hierarchy_or_config: object) -> ProtocolSpec:
    """The spec a hierarchy (or its config) runs: ``d2m`` when it has a
    D2M protocol, else ``mesi``."""
    config = getattr(hierarchy_or_config, "config", hierarchy_or_config)
    return D2M_SPEC if config.kind is SystemKind.D2M else MESI_SPEC
