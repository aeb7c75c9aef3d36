"""Run one (config x workload) simulation and derive paper metrics."""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from itertools import compress
from typing import Any, Dict, FrozenSet, Optional, Sequence

from repro.common.errors import InvariantViolation
from repro.common.params import SystemConfig
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import check_invariants as _full_invariant_walk
from repro.sim.perf import PerfModel, PerfSummary
from repro.sim.simulator import SimResult, Simulator
from repro.workloads.registry import make_workload

#: default instruction budget per run; override with REPRO_INSTRUCTIONS
DEFAULT_INSTRUCTIONS = 120_000
#: default warm-up instructions (region-of-interest measurement)
DEFAULT_WARMUP_FRACTION = 0.5


def instruction_budget(default: int = DEFAULT_INSTRUCTIONS) -> int:
    """Per-run instruction count, overridable via REPRO_INSTRUCTIONS."""
    value = os.environ.get("REPRO_INSTRUCTIONS", "")
    return int(value) if value else default


def warmup_budget(instructions: int) -> int:
    """Warm-up instruction count, overridable via REPRO_WARMUP."""
    value = os.environ.get("REPRO_WARMUP", "")
    if value:
        return int(value)
    return int(instructions * DEFAULT_WARMUP_FRACTION)


def extras_of(hist: object = False, profile: object = False,
              timeline: object = False, sanitize: object = False,
              invariants: object = False) -> FrozenSet[str]:
    """The extras whose flag or payload is truthy: one vocabulary for
    what a request asks for (:attr:`RunSpec.extras`) and what a cached
    record carries (``RunRecord.extras``)."""
    names = ("hist", "profile", "timeline", "sanitize", "invariants")
    return frozenset(compress(names, (hist, profile, timeline, sanitize,
                                      invariants)))


@dataclass
class RunSpec:
    """One (system, workload) simulation request.  ``instructions=0``
    and ``warmup=None`` resolve on construction (env or defaults)."""

    config: SystemConfig
    workload: str
    instructions: int = 0
    seed: int = 1
    check_values: bool = False  # oracle checking is for tests; slow
    warmup: Optional[int] = None  # None = REPRO_WARMUP or the default fraction
    sanitize: bool = False        # attach the coherence sanitizer (D2M only)
    sanitize_every: int = 0       # full-walk sampling period (0 = off)
    check_invariants: bool = False  # full invariant walk on the final state
    telemetry: bool = False       # collect histogram telemetry (obs package)
    profile: bool = False         # slow-tail attribution (obs package)
    trace: str = ""               # serve-layer correlation id ("" = none)
    timeline: int = 0             # epoch length for interval sampling (0 = off)
    progress_dir: str = ""        # sweep heartbeat directory ("" = none)

    def __post_init__(self) -> None:
        self.instructions = self.instructions or instruction_budget()
        if self.warmup is None:
            self.warmup = warmup_budget(self.instructions)

    @property
    def extras(self) -> FrozenSet[str]:
        """The extras this request asks for (see :func:`extras_of`)."""
        return extras_of(hist=self.telemetry, profile=self.profile,
                         timeline=self.timeline, sanitize=self.sanitize,
                         invariants=self.check_invariants)


@dataclass
class RunOutcome:
    """A finished run with the paper's derived metrics."""

    spec: RunSpec
    result: SimResult
    perf: PerfSummary
    hierarchy: object
    sanitized: bool = False         # ran with the coherence sanitizer attached
    invariants_ok: bool = True      # walk passed (vacuously True if not run)
    invariant_error: str = ""       # first violation message when not ok
    telemetry: Optional[object] = None  # obs.telemetry.Telemetry when collected
    profile: Optional[Dict[str, object]] = None  # slow-tail attribution digest
    timeline: Optional[Dict[str, object]] = None  # epoch time-series summary

    def hist_summaries(self) -> Dict[str, Dict[str, float]]:
        """Histogram percentile digests ({} when telemetry was off)."""
        if self.telemetry is None:
            return {}
        return self.telemetry.summaries()  # type: ignore[attr-defined]

    def profile_summary(self) -> Dict[str, object]:
        """The attribution profile digest ({} when profiling was off)."""
        return dict(self.profile) if self.profile else {}

    def timeline_summary(self) -> Dict[str, object]:
        """The epoch time-series summary ({} when sampling was off)."""
        return dict(self.timeline) if self.timeline else {}

    # -- Figure 5 ---------------------------------------------------------

    @property
    def msgs_per_ki(self) -> float:
        return 1000.0 * self.hierarchy.network.total_messages / max(
            self.result.instructions, 1
        )

    @property
    def d2m_msgs_per_ki(self) -> float:
        per_class = self.hierarchy.network.messages_by_class()
        return 1000.0 * per_class["d2m-only"] / max(self.result.instructions, 1)

    @property
    def bytes_per_ki(self) -> float:
        return 1000.0 * self.hierarchy.network.total_bytes / max(
            self.result.instructions, 1
        )

    # -- Table V ---------------------------------------------------------

    @property
    def invalidations(self) -> float:
        return self.hierarchy.stats.get("invalidations_received")

    @property
    def private_miss_fraction(self) -> float:
        stats = self.hierarchy.stats
        misses = stats.get("l1.i.misses") + stats.get("l1.d.misses")
        if not misses:
            return 0.0
        return stats.get("misses.private_region") / misses

    # -- Figure 6 ---------------------------------------------------------

    @property
    def energy_pj(self) -> float:
        """Total energy including DRAM (for completeness)."""
        return self.hierarchy.energy.total_pj(self.perf.cycles)

    @property
    def cache_energy_pj(self) -> float:
        """Cache-hierarchy energy (SRAM + NoC, no off-chip DRAM) — the
        population Figure 6's EDP is computed over."""
        acct = self.hierarchy.energy
        return (acct.dynamic_pj(include_dram=False)
                + acct.static_pj(self.perf.cycles))

    @property
    def edp(self) -> float:
        """Cache-hierarchy energy-delay product (Figure 6)."""
        return self.cache_energy_pj * self.perf.cycles

    def edp_split(self) -> Dict[str, float]:
        """Standard vs D2M-only structure contribution to the EDP bar."""
        acct = self.hierarchy.energy
        cycles = self.perf.cycles
        d2m = acct.dynamic_pj(d2m_only=True) + acct.static_pj(cycles,
                                                              d2m_only=True)
        total = self.cache_energy_pj
        return {
            "standard": (total - d2m) * cycles,
            "d2m-only": d2m * cycles,
        }

    # -- latency ---------------------------------------------------------

    @property
    def avg_l1_miss_latency(self) -> float:
        return self.result.avg_miss_latency()


def run_workload(config: SystemConfig, workload_name: str,
                 instructions: int = 0, seed: int = 1,
                 check_values: bool = False,
                 warmup: Optional[int] = None,
                 sanitize: bool = False,
                 sanitize_every: int = 0,
                 check_invariants: bool = False,
                 telemetry: bool = False,
                 observers: Sequence[Any] = (),
                 heartbeat: Optional[Any] = None,
                 batched: bool = True,
                 profile: bool = False,
                 trace: str = "",
                 timeline: int = 0) -> RunOutcome:
    """Simulate one workload on one system configuration.

    The run settings are :class:`RunSpec`'s fields; the spec built from
    them is the outcome's ``spec``.  ``warmup=None`` derives the warm-up
    budget from ``REPRO_WARMUP`` (or the default fraction); passing it
    explicitly pins the run so workers in other processes reproduce it
    bit-for-bit regardless of their environment.  ``sanitize`` attaches
    the coherence sanitizer (with a whole-machine walk every
    ``sanitize_every`` accesses when nonzero); a sanitizer violation
    raises out of the run, while ``check_invariants`` records the
    final-state walk's pass/fail on the outcome instead of raising.

    ``telemetry`` turns on a :class:`repro.obs.telemetry.Telemetry`
    that collects latency / occupancy / dwell histograms and lands on
    the outcome.  ``observers`` join the run's own
    (:mod:`repro.common.observe`; e.g. an
    :class:`~repro.analysis.events.EventRing` recording the protocol
    event stream).  ``heartbeat`` is a sweep-progress
    :class:`~repro.obs.progress.Heartbeat` beating at chunk boundaries.

    The run uses the batched driver (:mod:`repro.sim.batch`);
    ``batched=False`` selects the reference loop instead, whose
    statistics are bit-identical.

    ``profile`` attaches the slow-tail attribution profiler
    (:mod:`repro.obs.profile`) and forces the batched driver — the
    fast/slow split it measures only exists there.  ``trace`` is the
    serve-layer correlation id; it rides on this run's log events (and
    is otherwise inert).

    ``timeline`` (an epoch length in accesses, 0 = off) attaches a
    :class:`repro.obs.timeline.TimelineSampler` collecting per-epoch
    stat deltas; the series lands on the outcome bit-identically in
    either driver.  Under a sweep heartbeat the sampler also streams
    each epoch to a ``tl-<pid>.jsonl`` next to the heartbeat file, which
    ``repro serve`` tails for live timelines.
    """
    spec = RunSpec(config, workload_name, instructions, seed, check_values,
                   warmup, sanitize=sanitize, sanitize_every=sanitize_every,
                   check_invariants=check_invariants, telemetry=telemetry,
                   profile=profile, trace=trace, timeline=timeline)
    return _simulate(spec, observers, heartbeat, batched)


def run_spec(spec: RunSpec) -> RunOutcome:
    """Execute one :class:`RunSpec` — the unit parallel workers run.

    When the spec names a sweep-progress directory (``progress_dir``),
    the run beats into it so ``repro sweep`` can render live per-worker
    progress.
    """
    from repro.obs.progress import heartbeat_in_directory
    heartbeat = heartbeat_in_directory(
        spec.progress_dir, f"{spec.workload}/{spec.config.name}",
        trace=spec.trace)
    return _simulate(spec, (), heartbeat, True)


def _simulate(spec: RunSpec, observers: Sequence[Any],
              heartbeat: Optional[Any], batched: bool) -> RunOutcome:
    """Run ``spec`` (see :func:`run_workload` for the settings)."""
    config = spec.config
    assert spec.warmup is not None  # resolved by RunSpec.__post_init__
    do_batched = batched or spec.profile
    hierarchy = build_hierarchy(config)
    protocol = getattr(hierarchy, "protocol", None)
    sanitizer = None
    if spec.sanitize:
        from repro.analysis.sanitizer import attach_sanitizer
        sanitizer = attach_sanitizer(hierarchy, every=spec.sanitize_every)
    from repro.obs import run_observers, runlog
    watch = run_observers(telemetry=spec.telemetry, profile=spec.profile,
                          timeline=spec.timeline, heartbeat=heartbeat)
    workload = make_workload(spec.workload, config.nodes, hierarchy.amap,
                             seed=spec.seed)
    log_extra: Dict[str, object] = {"trace": spec.trace} if spec.trace else {}
    runlog.emit("run.start", workload=spec.workload, config=config.name,
                instructions=spec.instructions, warmup=spec.warmup,
                seed=spec.seed, sanitize=spec.sanitize,
                telemetry=spec.telemetry, batched=do_batched, **log_extra)
    started = _time.monotonic()
    simulator = Simulator(hierarchy, check_values=spec.check_values,
                          observers=[*watch.values(), *observers])
    result = simulator.run(workload, spec.instructions, seed=spec.seed,
                           warmup=spec.warmup, batched=do_batched)
    if sanitizer is not None:
        sanitizer.check_md1_index()  # MD1 entries installed with no event
    perf = PerfModel(config.ooo).summarize(result)
    elapsed = _time.monotonic() - started
    runlog.emit("run.end", workload=spec.workload, config=config.name,
                instructions=result.instructions, accesses=result.accesses,
                cycles=perf.cycles, elapsed_s=round(elapsed, 3),
                ips=round(result.accesses / elapsed, 1) if elapsed else 0.0,
                **log_extra)
    invariants_ok = True
    invariant_error = ""
    if spec.check_invariants and protocol is not None:
        try:  # baselines pass vacuously
            _full_invariant_walk(protocol)
        except InvariantViolation as exc:
            invariants_ok = False
            invariant_error = str(exc)
    return RunOutcome(
        spec=spec,
        result=result,
        perf=perf,
        hierarchy=hierarchy,
        # Baselines have no protocol to sanitize; a requested sanitize is
        # vacuously satisfied for them (mirrors the invariant walk).
        sanitized=sanitizer is not None or (spec.sanitize
                                            and protocol is None),
        invariants_ok=invariants_ok,
        invariant_error=invariant_error,
        telemetry=watch.get("telemetry"),
        profile=watch["profile"].summary() if spec.profile else None,
        timeline=watch["timeline"].summary() if spec.timeline else None,
    )
