"""Runtime transition coverage and driver equivalence over the pinned matrix.

Every transition in :mod:`repro.verify.spec` carries coverage
signatures — ``stat:<key>`` (a nonzero counter, keyed relative to the
hierarchy's root stat group) and ``emit:<kind>[:<detail-prefix>]`` (a
tracer event).  This pass runs the pinned matrix
(:mod:`repro.sim.bench`) at quick budgets plus a set of *stress
probes* (shrunken cache/metadata geometries that force capacity
events: spills, global region evictions, LLC recalls) on the reference
loop and classifies each run's signals once, through its own family's
:class:`~repro.verify.spec.SignalTable`; a transition is exercised when
some run of its protocol fired one of its signatures.

A transition that nothing exercises is a finding unless the spec
annotates it ``cold`` with a justification.  Each matrix cell and
stress probe is also run through the batched driver, and its
:func:`~repro.sim.bench.result_snapshot` must equal the reference
run's; a divergent run is a finding too.  Both are gates CI keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.common.params import (CacheGeometry, MetadataGeometry,
                                 SystemConfig, all_configs)
from repro.common.stats import StatGroup
from repro.sim.bench import (BENCH_CONFIGS, BENCH_SEED, BENCH_WORKLOADS,
                             QUICK_INSTRUCTIONS, QUICK_WARMUP,
                             result_snapshot)
from repro.verify.spec import SPECS, ProtocolSpec, spec_for

#: stress probes: (label, base config name, workload, instructions) —
#: geometries shrunk by :func:`_stressed` so capacity events (MD2
#: spills, MD3 global evictions, LLC recalls/evictions, master
#: relocations) fire within a small budget
PROBES: Tuple[Tuple[str, str, str, int], ...] = (
    ("probe:Base-2L", "Base-2L", "mix1", 12_000),
    ("probe:Base-3L", "Base-3L", "mix1", 12_000),
    ("probe:D2M-FS", "D2M-FS", "mix1", 12_000),
    ("probe:D2M-NS-R", "D2M-NS-R", "mix1", 12_000),
)


def _stressed(config: SystemConfig) -> SystemConfig:
    """Shrink caches and metadata stores to force capacity events."""
    return replace(
        config,
        l1i=CacheGeometry(4096, 4),
        l1d=CacheGeometry(4096, 4),
        llc=CacheGeometry(64 * 1024, 16),
        md1=MetadataGeometry(32, 4),
        md2=MetadataGeometry(128, 4),
        md3=MetadataGeometry(256, 4),
    )


class SignalCollector:
    """Minimal event observer recording ``(kind, detail)`` pairs.

    Not ``fast_path_safe``: every access must reach the protocol.
    """

    def __init__(self) -> None:
        self.emits: Set[Tuple[str, str]] = set()

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        self.emits.add((kind, detail))


def fired_stats(root: StatGroup) -> Set[str]:
    """Nonzero counters of a stats tree, keyed relative to its root."""
    skip = len(root.name) + 1 if root.name else 0
    return {key[skip:] for key, value in root.flatten().items() if value > 0}


@dataclass
class RunSignals:
    """Observable signals one run of one protocol family produced."""

    label: str
    spec: ProtocolSpec
    stats: Set[str] = field(default_factory=set)   # relative keys, > 0
    emits: Set[Tuple[str, str]] = field(default_factory=set)
    #: the batched run matched the reference run (None: not compared)
    equivalent: Optional[bool] = None

    def merge(self, other: "RunSignals") -> None:
        self.stats |= other.stats
        self.emits |= other.emits

    def exercised(self) -> Dict[str, str]:
        """``{tid: signature}`` of the transitions these signals fired,
        matched against this run's own family only."""
        return self.spec.table.classify(sorted(self.stats),
                                        sorted(self.emits))


@dataclass
class TransitionCoverage:
    """Coverage verdict for one spec transition."""

    tid: str
    protocol: str
    exercised: bool
    via: str                       # run label + signature that matched
    cold: Optional[str]

    @property
    def ok(self) -> bool:
        return self.exercised or self.cold is not None


@dataclass
class CoverageReport:
    """The full pass: which transitions the matrix exercised, and which
    runs' batched driver diverged from the reference loop."""

    runs: List[str] = field(default_factory=list)
    transitions: List[TransitionCoverage] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)
    divergent: List[str] = field(default_factory=list)

    @property
    def unexercised(self) -> List[TransitionCoverage]:
        return [t for t in self.transitions if not t.exercised]

    @property
    def findings(self) -> List[TransitionCoverage]:
        """Never-exercised transitions with no cold justification."""
        return [t for t in self.transitions if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.findings and not self.divergent

    def to_json(self) -> Dict[str, object]:
        return {
            "runs": list(self.runs),
            "equivalence": {
                "compared": list(self.compared),
                "divergent": list(self.divergent),
            },
            "transitions": [
                {
                    "tid": t.tid,
                    "protocol": t.protocol,
                    "exercised": t.exercised,
                    "via": t.via,
                    "cold": t.cold,
                    "ok": t.ok,
                }
                for t in self.transitions
            ],
            "summary": {
                "total": len(self.transitions),
                "exercised": sum(1 for t in self.transitions
                                 if t.exercised),
                "cold": sum(1 for t in self.transitions
                            if not t.exercised and t.cold is not None),
                "findings": [t.tid for t in self.findings],
                "ok": self.ok,
            },
        }


#: region = 16 lines x 64 B = 1 KiB of address space (default AddressMap)
_LINE = 64
_REGION = 1024


def _play(hierarchy: object, ops: List[Tuple[int, "AccessKind", int]]) -> None:
    """Drive a hierarchy with a hand-written access sequence."""
    from repro.common.types import Access, AccessKind
    version = 0
    for core, kind, addr in ops:
        if kind is AccessKind.STORE:
            version += 1
            hierarchy.access(Access(core, kind, addr), addr, version)  # type: ignore[attr-defined]
        else:
            hierarchy.access(Access(core, kind, addr), addr)  # type: ignore[attr-defined]


def _directed_signals_one(label: str, config: SystemConfig,
                          ops: List[Tuple[int, "AccessKind", int]]
                          ) -> RunSignals:
    from repro.core.hierarchy import build_hierarchy
    from repro.common.observe import attach

    hierarchy = build_hierarchy(config)
    collector = SignalCollector()
    attach(hierarchy, collector)  # no-op on the MESI baselines
    _play(hierarchy, ops)
    return RunSignals(label, spec_for(config), fired_stats(hierarchy.stats),
                      collector.emits)


def _mesi_directed_ops() -> List[Tuple[int, "AccessKind", int]]:
    """Upgrade (S-store) and self-owner (ifetch of a stored line)."""
    from repro.common.types import AccessKind
    a, b = 0x10000, 0x20000
    return [
        (0, AccessKind.LOAD, a),     # node 0: E
        (1, AccessKind.LOAD, a),     # node 1: S (node 0 downgraded)
        (1, AccessKind.STORE, a),    # store hit on S -> upgrade
        (0, AccessKind.STORE, b),    # node 0 owns b (M, in L1-D)
        (0, AccessKind.IFETCH, b),   # I-side miss, directory owner == self
    ]


def _l1_flush_ops(core: int, base_region: int, congruent_to: int,
                  store: bool = False
                  ) -> List[Tuple[int, "AccessKind", int]]:
    """Four filler regions x 16 consecutive lines = 64 fills.

    Exactly fills a stressed L1 (16 sets x 4 ways): 16 consecutive lines
    of one region touch each set once (any XOR scramble is a bijection),
    so four regions flush every set.  Loads install replicas — the
    cheapest eviction victims, which can never displace a resident
    master; pass ``store=True`` to claim mastership per filler line so
    stale masters become the preferred victims instead.  The filler
    region numbers are congruent to ``congruent_to`` mod 8 — pass the
    probed region to land all four in its stressed MD1 set (8 sets;
    evicting its entry) while its 4-way MD2 set (32 sets; stride 8 puts
    only the k=4 filler there) keeps the entry alive, or any other
    congruence class to leave the probed region's metadata alone.
    """
    from repro.common.types import AccessKind
    kind = AccessKind.STORE if store else AccessKind.LOAD
    regions = [base_region + 8 * k + (congruent_to % 8)
               for k in range(1, 5)]
    return [(core, kind, r * _REGION + j * _LINE)
            for r in regions for j in range(16)]


def _d2m_directed_ops() -> List[Tuple[int, "AccessKind", int]]:
    """MD1 cross hit, C-store pruning/privatization, and shared LLC
    master eviction, against the ``_stressed`` geometry (64-line L1s,
    32-entry MD1, 128-entry MD2, 256-entry MD3, 1024-line LLC).
    """
    from repro.common.types import AccessKind
    load, store, ifetch = (AccessKind.LOAD, AccessKind.STORE,
                           AccessKind.IFETCH)
    ops: List[Tuple[int, AccessKind, int]] = []

    # MD1 cross: I-side establishes the region, D-side hits across.
    ops += [(0, ifetch, 0x30000), (0, load, 0x30040)]

    # Prune + privatize: share region ``d``, then retire node 1's copy
    # (L1 flush) and its MD1 entry (set-congruent fillers) while its MD2
    # entry survives; node 0's C-store then prunes node 1 out of the PB,
    # leaving only the writer -> re-privatization.
    d_region = 0x40000 // _REGION          # 256 = 0 mod 32
    ops += [(0, load, 0x40000), (1, load, 0x40000)]
    ops += _l1_flush_ops(1, 0x100000 // _REGION, d_region)
    ops += [(0, store, 0x40000)]

    # Shared LLC master eviction: stream shared regions past LLC
    # capacity.  Sharing a line immediately parks its master in the LLC
    # (MD3-tracked, PB = {0, 1}), and the victim-cost ranking makes
    # shared masters the most expensive victims — only other shared
    # masters can displace them.  70 regions x 16 lines = 1120 shared
    # masters > 1024 LLC lines forces evictions among them, while MD2
    # (128 regions per node) never spills the sharers and MD3 (256
    # regions) keeps every streamed region tracked throughout.
    ops += [(n, load, 0x300000 + r * _REGION + j * _LINE)
            for r in range(70) for j in range(16) for n in (0, 1)]

    # D1 (untracked -> private): establish region ``g``, evict node 0's
    # MD2 entry with four filler regions congruent to ``g``'s MD2 set (5
    # mod 32) but *not* its MD3 set (g is 5 mod 64, fillers 37) — once
    # the spill empties the PB, ``g``'s MD3 entry is the preferred
    # victim for any fill of its own set, so the fillers must classify
    # elsewhere.  Touching a *different* line of ``g`` then finds the
    # surviving MD3 entry with an empty PB and re-classifies private.
    g = 517 * _REGION                  # 517 = 5 mod 32, clear of all above
    ops += [(0, load, g)]
    ops += [(0, load, (517 + 32 * (2 * k - 1)) * _REGION)
            for k in range(1, 5)]
    ops += [(0, load, g + _LINE)]
    return ops


def _nsr_directed_ops() -> List[Tuple[int, "AccessKind", int]]:
    """Free-master: store through a chained NS-R replica.

    Shared-region masters are relocated into node 0's LLC slice, then
    instruction-fetched from node 1 — NS-R replicates instruction reads
    unconditionally, chaining a node-private replica whose RP names the
    master.  Node 1's store claims mastership through the chain, freeing
    the superseded master.  Several regions are used so remote-slice
    placement is guaranteed for some.
    """
    from repro.common.types import AccessKind
    load, store, ifetch = (AccessKind.LOAD, AccessKind.STORE,
                           AccessKind.IFETCH)
    ops: List[Tuple[int, AccessKind, int]] = []
    targets = [0x500000 + k * 0x1000 for k in range(8)]
    for t in targets:
        ops += [(0, load, t), (1, load, t), (0, store, t)]
    # Evict node 0's masters into the LLC (F relocations).  The flush
    # must *store*: load fillers install replicas, which are cheaper
    # victims than the resident masters and so can never push them out.
    # Store fillers claim mastership at equal victim cost and the stale
    # targets lose on recency.  Targets sit in classes 0 and 4 mod 8;
    # class-1 fillers leave their metadata alone.
    ops += _l1_flush_ops(0, 0x700000 // _REGION, 1, store=True)
    for t in targets:
        ops += [(1, ifetch, t)]  # NS-R chains a local replica under L1-I
        ops += [(1, store, t)]   # claim through the chain -> free master
    return ops


def _bypass_directed_ops() -> List[Tuple[int, "AccessKind", int]]:
    """Streaming region with zero reuse trips the LLC bypass policy."""
    from repro.common.types import AccessKind
    return [(0, AccessKind.LOAD, 0x60000 + i * _LINE) for i in range(16)]


def directed_signals() -> List[RunSignals]:
    """Targeted probes for transitions the matrix cannot reach.

    Each sequence is written against one spec transition's trigger
    condition; see the ops builders for the per-transition reasoning.
    """
    configs = {c.name: c for c in all_configs()}
    bypass_config = _stressed(configs["D2M-FS"])
    bypass_config = replace(
        bypass_config,
        policy=replace(bypass_config.policy, bypass_low_reuse=True))
    return [
        _directed_signals_one("directed:mesi", configs["Base-2L"],
                              _mesi_directed_ops()),
        _directed_signals_one("directed:d2m", _stressed(configs["D2M-FS"]),
                              _d2m_directed_ops()),
        _directed_signals_one("directed:ns-r",
                              _stressed(configs["D2M-NS-R"]),
                              _nsr_directed_ops()),
        _directed_signals_one("directed:bypass", bypass_config,
                              _bypass_directed_ops()),
    ]


def _run_signals(config: SystemConfig, workload: str, instructions: int,
                 warmup: int, label: str) -> RunSignals:
    """Signals of one reference-loop run, and whether a batched run of
    the same cell reports an identical :func:`result_snapshot`."""
    from repro.sim.runner import run_workload

    collector = SignalCollector()
    reference = run_workload(config, workload, instructions=instructions,
                             seed=BENCH_SEED, warmup=warmup,
                             observers=[collector], batched=False)
    batched = run_workload(config, workload, instructions=instructions,
                           seed=BENCH_SEED, warmup=warmup)
    equivalent = (
        result_snapshot(batched.result, batched.perf.cycles)
        == result_snapshot(reference.result, reference.perf.cycles))
    return RunSignals(label, spec_for(config),
                      fired_stats(reference.result.stats), collector.emits,
                      equivalent)


def collect_matrix_signals() -> List[RunSignals]:
    """Run the pinned matrix at its quick budgets plus the stress and
    directed probes, collecting signals."""
    configs = {c.name: c for c in all_configs()}
    collected: List[RunSignals] = []
    for config_name in BENCH_CONFIGS:
        for workload in BENCH_WORKLOADS:
            collected.append(_run_signals(
                configs[config_name], workload, QUICK_INSTRUCTIONS,
                QUICK_WARMUP, f"{config_name}/{workload}"))
    for label, config_name, workload, instructions in PROBES:
        collected.append(_run_signals(
            _stressed(configs[config_name]), workload, instructions,
            instructions // 4, label))
    collected.extend(directed_signals())
    return collected


def coverage_from_signals(signal_sets: List[RunSignals]
                          ) -> CoverageReport:
    """Map collected signals onto every spec transition: ``via`` names
    the first run (in ``signal_sets`` order) that exercised it."""
    via: Dict[str, str] = {}
    for signals in signal_sets:
        for tid, signature in signals.exercised().items():
            via.setdefault(tid, f"{signals.label} [{signature}]")
    report = CoverageReport(
        runs=[s.label for s in signal_sets],
        compared=[s.label for s in signal_sets if s.equivalent is not None],
        divergent=[s.label for s in signal_sets if s.equivalent is False])
    for spec in SPECS.values():
        for transition in spec.transitions:
            report.transitions.append(TransitionCoverage(
                tid=transition.tid, protocol=spec.name,
                exercised=transition.tid in via,
                via=via.get(transition.tid, ""), cold=transition.cold))
    return report


def run_coverage() -> CoverageReport:
    """The full pass: run the matrix, map signals, build the report."""
    return coverage_from_signals(collect_matrix_signals())
