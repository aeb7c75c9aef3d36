"""Serializable per-run metric records (the experiment currency).

A :class:`RunRecord` captures every number the paper's tables and figures
need from one (workload, system) simulation, so finished runs can be
cached on disk and shared across all experiment harnesses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet

from repro.common.types import HitLevel
from repro.sim.runner import extras_of

#: every scalar metric field of :class:`RunRecord`, in declaration order —
#: the flat-diffable surface consumed by ``repro.obs.compare`` (events and
#: histogram digests are structured and diffed separately).
SCALAR_METRICS = (
    "msgs_per_ki",
    "d2m_msgs_per_ki",
    "bytes_per_ki",
    "l1i_miss",
    "l1d_miss",
    "l1i_late",
    "l1d_late",
    "l2_hit_ratio_i",
    "l2_hit_ratio_d",
    "ns_hit_i",
    "ns_hit_d",
    "invalidations",
    "private_miss_fraction",
    "cycles",
    "cpi",
    "cache_energy_pj",
    "edp",
    "edp_d2m_share",
    "avg_miss_latency",
    "memory_ops",
    "md1_hits",
    "md2_hits",
    "md_misses",
    "mem_reads_redirected",
    "direct_ns_fraction",
)


@dataclass
class RunRecord:
    """Metrics of one finished simulation run."""

    workload: str
    category: str
    config: str
    instructions: int

    # traffic (Figure 5)
    msgs_per_ki: float = 0.0
    d2m_msgs_per_ki: float = 0.0
    bytes_per_ki: float = 0.0

    # hit ratios (Table IV)
    l1i_miss: float = 0.0
    l1d_miss: float = 0.0
    l1i_late: float = 0.0
    l1d_late: float = 0.0
    l2_hit_ratio_i: float = 0.0   # Base-3L: L2 hits / L1-I misses
    l2_hit_ratio_d: float = 0.0
    ns_hit_i: float = 0.0         # near-side local / all LLC-level hits
    ns_hit_d: float = 0.0

    # coherence (Table V)
    invalidations: float = 0.0
    private_miss_fraction: float = 0.0

    # energy/performance (Figures 6/7)
    cycles: float = 0.0
    cpi: float = 0.0              # summed per-core cycles / instructions
    cache_energy_pj: float = 0.0
    edp: float = 0.0
    edp_d2m_share: float = 0.0    # D2M-only structures' share of the EDP bar
    avg_miss_latency: float = 0.0

    # protocol events (appendix) and metadata behaviour
    events: Dict[str, float] = field(default_factory=dict)
    memory_ops: float = 0.0       # loads + stores + ifetches (PKMO base)
    md1_hits: float = 0.0
    md2_hits: float = 0.0
    md_misses: float = 0.0
    mem_reads_redirected: float = 0.0
    direct_ns_fraction: float = 0.0  # MD1-hit accesses (footnote-5 metric)

    # correctness-checking provenance (sanitizer / invariant walk)
    sanitized: bool = False           # ran with the coherence sanitizer
    invariants_checked: bool = False  # final-state invariant walk performed
    invariants_ok: bool = True        # walk passed (vacuously True otherwise)
    invariant_error: str = ""         # first violation message when not ok

    # histogram telemetry digests: name -> {count, mean, max, p50, p90, p99}
    # ({} when the run was simulated with telemetry off)
    hists: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # slow-tail attribution profile (repro.obs.profile digest; {} when the
    # run was simulated without --profile-attrib)
    profile: Dict[str, object] = field(default_factory=dict)

    # epoch time-series (repro.obs.timeline summary; {} when the run was
    # simulated without --timeline, {"epochs": 0} when sampled but empty)
    timeline: Dict[str, object] = field(default_factory=dict)

    @property
    def extras(self) -> FrozenSet[str]:
        """The extras this record carries; it serves any request whose
        :attr:`~repro.sim.runner.RunSpec.extras` are a subset."""
        return extras_of(hist=self.hists, profile=self.profile,
                         timeline=self.timeline, sanitize=self.sanitized,
                         invariants=self.invariants_checked)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "RunRecord":
        return RunRecord(**data)


def record_from_outcome(outcome, category: str) -> RunRecord:
    """Build a :class:`RunRecord` from a live ``RunOutcome``."""
    result = outcome.result
    stats = outcome.hierarchy.stats
    split = outcome.edp_split()
    total_bar = split["standard"] + split["d2m-only"]

    def l2_ratio(instr: bool) -> float:
        hits = stats.get("l2.i.hits" if instr else "l2.d.hits")
        misses = stats.get("l1.i.misses" if instr else "l1.d.misses")
        return hits / misses if misses else 0.0

    accesses = result.accesses or 1
    md1 = stats.get("md.md1_hits") + stats.get("md.md1_cross_hits")
    return RunRecord(
        workload=outcome.spec.workload,
        category=category,
        config=outcome.spec.config.name,
        instructions=result.instructions,
        msgs_per_ki=outcome.msgs_per_ki,
        d2m_msgs_per_ki=outcome.d2m_msgs_per_ki,
        bytes_per_ki=outcome.bytes_per_ki,
        l1i_miss=result.miss_ratio(True),
        l1d_miss=result.miss_ratio(False),
        l1i_late=result.late_hit_ratio(True),
        l1d_late=result.late_hit_ratio(False),
        l2_hit_ratio_i=l2_ratio(True),
        l2_hit_ratio_d=l2_ratio(False),
        ns_hit_i=result.ns_hit_ratio(True),
        ns_hit_d=result.ns_hit_ratio(False),
        invalidations=outcome.invalidations,
        private_miss_fraction=outcome.private_miss_fraction,
        cycles=outcome.perf.cycles,
        cpi=outcome.perf.cpi,
        cache_energy_pj=outcome.cache_energy_pj,
        edp=outcome.edp,
        edp_d2m_share=split["d2m-only"] / total_bar if total_bar else 0.0,
        avg_miss_latency=outcome.avg_l1_miss_latency,
        events={k: v for k, v in outcome.hierarchy.stats.child(
            "events").counters().items()},
        memory_ops=float(accesses),
        md1_hits=md1,
        md2_hits=stats.get("md.md2_hits"),
        md_misses=stats.get("md.misses"),
        mem_reads_redirected=stats.get("mem_reads_redirected"),
        direct_ns_fraction=md1 / accesses if accesses else 0.0,
        sanitized=outcome.sanitized,
        invariants_checked=outcome.spec.check_invariants,
        invariants_ok=outcome.invariants_ok,
        invariant_error=outcome.invariant_error,
        hists=outcome.hist_summaries(),
        profile=outcome.profile_summary(),
        timeline=outcome.timeline_summary(),
    )


#: hit levels counted as "LLC-level" service points (Table IV NS ratios)
LLC_LEVELS = (HitLevel.LLC_LOCAL, HitLevel.LLC_REMOTE)
