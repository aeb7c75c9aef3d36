"""The trace-driven simulation driver.

The simulator feeds a workload's access stream through one hierarchy,
keeping per-core clocks, an MSHR model (accesses to a line whose miss is
still outstanding become *late hits* with the residual latency, matching
the paper's Table IV "Late Hits" columns), and an optional sequential
value checker (every load must observe the version written by the
globally most recent store — a strong coherence oracle available because
the trace is processed in one total order).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.common.errors import TraceError
from repro.common.observe import Observers, attach
from repro.common.stats import StatGroup
from repro.common.types import Access, AccessKind, AccessResult, HitLevel
from repro.mem.mainmem import VersionOracle


@dataclass
class LatencyBucket:
    """Count/total-latency accumulator."""

    count: int = 0
    total_latency: int = 0

    def add(self, latency: int) -> None:
        self.count += 1
        self.total_latency += latency

    @property
    def mean(self) -> float:
        return self.total_latency / self.count if self.count else 0.0


@dataclass
class SimResult:
    """Everything an experiment needs from one simulation run."""

    name: str
    instructions: int
    accesses: int
    stats: StatGroup
    #: latency accumulators keyed by (is_instruction, HitLevel)
    buckets: Dict[Tuple[bool, HitLevel], LatencyBucket]
    #: per-core (instructions, instr-stall-latency, data-stall-latency)
    core_instructions: Dict[int, int] = field(default_factory=dict)
    core_instr_miss_latency: Dict[int, int] = field(default_factory=dict)
    core_data_miss_latency: Dict[int, int] = field(default_factory=dict)

    def bucket(self, instr: bool, level: HitLevel) -> LatencyBucket:
        return self.buckets.get((instr, level), LatencyBucket())

    def count_where(self, instr: Optional[bool] = None,
                    levels: Optional[Tuple[HitLevel, ...]] = None) -> int:
        total = 0
        for (is_instr, level), bucket in self.buckets.items():
            if instr is not None and is_instr != instr:
                continue
            if levels is not None and level not in levels:
                continue
            total += bucket.count
        return total

    def miss_ratio(self, instr: bool) -> float:
        """Paper Table IV: L1 misses / L1 accesses for the I or D side."""
        misses = sum(
            b.count for (i, lvl), b in self.buckets.items()
            if i == instr and lvl.is_l1_miss
        )
        accesses = sum(
            b.count for (i, _lvl), b in self.buckets.items() if i == instr
        )
        return misses / accesses if accesses else 0.0

    def late_hit_ratio(self, instr: bool) -> float:
        late = self.bucket(instr, HitLevel.LATE).count
        accesses = sum(
            b.count for (i, _lvl), b in self.buckets.items() if i == instr
        )
        return late / accesses if accesses else 0.0

    def avg_miss_latency(self) -> float:
        """Average latency of accesses that left the L1."""
        total = count = 0
        for (_i, level), bucket in self.buckets.items():
            if level.is_l1_miss:
                total += bucket.total_latency
                count += bucket.count
        return total / count if count else 0.0

    def ns_hit_ratio(self, instr: bool) -> float:
        """Fraction of LLC accesses served by the local (near-side) slice."""
        local = self.bucket(instr, HitLevel.LLC_LOCAL).count
        remote = self.bucket(instr, HitLevel.LLC_REMOTE).count
        total = local + remote
        return local / total if total else 0.0


class Simulator:
    """Drives one workload through one hierarchy."""

    def __init__(self, hierarchy: Any, check_values: bool = True,
                 observers: Iterable[Any] = ()) -> None:
        self.hierarchy = hierarchy
        self.check_values = check_values
        #: every run observer behind one hook set (see repro.common.observe)
        self.observers = Observers(observers)
        self.oracle = VersionOracle()
        self._core_time: Dict[int, float] = {}
        self._outstanding: Dict[Tuple[int, int], float] = {}
        self._issue_interval = hierarchy.config.ooo.base_cpi
        self._mshr_inserts = 0

    def run(self, workload: Any, n_instructions: int, seed: int = 0,
            warmup: int = 0, batched: bool = False) -> SimResult:
        """Simulate ``n_instructions`` of ``workload``.

        The workload's ``generate`` yields :class:`Access` objects and
        its ``translate(core, vaddr)`` maps them to physical addresses;
        an IFETCH marks an instruction boundary for the per-core clocks
        and the msgs/KI metrics.

        ``warmup`` instructions run first with full protocol behaviour
        (and value checking) but are excluded from every reported metric,
        emulating the paper's region-of-interest measurement.

        The default is the *reference* loop: every access goes through
        the hierarchy's full ``access`` in trace order, with no fast
        paths and no hand-tuning.  It is the oracle the production path
        is checked against, so it is kept deliberately plain.

        ``batched=True`` is the production path: the batched driver
        (:func:`repro.sim.batch.run_batched`) precompiles the stream
        into flat chunk arrays and resolves L1 fast paths inline.  Its
        statistics are bit-identical to this loop's (``repro verify
        --coverage`` gates on it over the pinned matrix).

        Both drivers call the observers' hooks (:mod:`repro.common.observe`)
        at the same stream positions; only the batched driver has the
        slow-tail hooks.
        """
        # Neither driver creates reference cycles, so the cyclic
        # collector's gen-0 scans are pure overhead in these
        # allocation-heavy loops; reference counting still frees
        # everything promptly while it is paused.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(workload, n_instructions, seed, warmup,
                             batched)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, workload: Any, n_instructions: int, seed: int,
             warmup: int, batched: bool) -> SimResult:
        if batched:
            from repro.sim.batch import run_batched
            return run_batched(self, workload, n_instructions, seed=seed,
                               warmup=warmup)
        hierarchy = self.hierarchy
        result = SimResult(
            name=hierarchy.config.name,
            instructions=0,
            accesses=0,
            stats=hierarchy.stats,
            buckets={},
        )
        observers = self._observe(result)
        tick = observers.tick
        on_roi = observers.on_roi
        on_chunk = observers.on_chunk
        chunk = observers.chunk
        streamed = 0
        # Warm-up/ROI state lives in these locals and nowhere else — the
        # batched driver keeps its own copies with the same semantics,
        # and _apply_mshr receives ``recording`` explicitly.
        recording = warmup == 0
        warmup_left = warmup
        roi_pending = False
        for acc in workload.generate(warmup + n_instructions, seed):
            paddr = workload.translate(acc.core, acc.vaddr)
            if paddr < 0:
                raise TraceError(f"negative physical address for {acc}")
            line = hierarchy.amap.line_of(paddr)

            # -- per-core clock + warm-up/ROI accounting.
            if roi_pending:
                # The region of interest starts *here*, at the first
                # access after the one that exhausted the warm-up budget:
                # the final warm-up access belongs entirely to the
                # warm-up (it is neither counted nor recorded, and its
                # stats are reset away below).
                hierarchy.stats.reset()
                hierarchy.network.reset()
                hierarchy.energy.reset()
                recording = True
                roi_pending = False
                if on_roi is not None:
                    on_roi()
            now = self._core_time.get(acc.core, 0.0)
            if acc.kind is AccessKind.IFETCH:
                now += self._issue_interval
                self._core_time[acc.core] = now
                if recording:
                    result.instructions += 1
                    result.core_instructions[acc.core] = (
                        result.core_instructions.get(acc.core, 0) + 1)
                elif warmup_left > 0:
                    warmup_left -= 1
                    if warmup_left == 0:
                        roi_pending = True
            if recording:
                result.accesses += 1
            if tick is not None:
                tick()

            if acc.kind is AccessKind.STORE:
                version = (self.oracle.on_store(line) if self.check_values
                           else 1)
                outcome = hierarchy.access(acc, paddr, version)
            else:
                outcome = hierarchy.access(acc, paddr)
                if self.check_values:
                    self.oracle.check_load(line, outcome.version)

            outcome = self._apply_mshr(acc.core, line, now, outcome,
                                       recording)
            if recording:
                self._record(result, acc, outcome)

            streamed += 1
            if on_chunk is not None and streamed % chunk == 0:
                on_chunk(result.instructions, result.accesses, streamed)
        if on_chunk is not None and streamed % chunk:
            on_chunk(result.instructions, result.accesses, streamed)
        hierarchy.finalize()
        if observers.finalize is not None:
            observers.finalize()
        return result

    # ------------------------------------------------------------------ internals

    def _observe(self, result: SimResult) -> Observers:
        """Attach the observers' event half and bind them to this run."""
        observers = self.observers
        attach(self.hierarchy, *observers.watchers)
        if observers.bind is not None:
            observers.bind(self.hierarchy, result)
        return observers

    def _record(self, result: SimResult, acc: Access,
                outcome: AccessResult) -> None:
        """Account one region-of-interest access: its latency bucket and,
        for an access that left the L1, the core's stall total."""
        instr = acc.kind is AccessKind.IFETCH
        key = (instr, outcome.level)
        bucket = result.buckets.get(key)
        if bucket is None:
            bucket = result.buckets[key] = LatencyBucket()
        bucket.add(outcome.latency)
        on_access = self.observers.on_access
        if on_access is not None:
            on_access(outcome.level, outcome.latency)
        if outcome.level is not HitLevel.L1 \
                and outcome.level is not HitLevel.LATE:
            stalls = (result.core_instr_miss_latency if instr
                      else result.core_data_miss_latency)
            stalls[acc.core] = stalls.get(acc.core, 0) + outcome.latency

    #: sweep the MSHR map for completed entries every this many inserts
    _MSHR_PRUNE_PERIOD = 8192

    def _apply_mshr(self, core: int, line: int, now: float,
                    outcome: AccessResult,
                    recording: bool = True) -> AccessResult:
        """Convert accesses under an outstanding miss into late hits.

        MSHR semantics (both cases observe the *existing* completion time;
        a second miss never extends or restarts the outstanding fill):

        * an L1 hit to a line whose miss is still outstanding is a *late
          hit* with the residual latency (paper Table IV);
        * a repeat L1 *miss* to such a line (the first fill did not
          install locally — eviction in between, or a bypassed read)
          *coalesces* into the existing MSHR entry: the memory request is
          already in flight, so the access completes as a late hit with
          the residual latency instead of issuing — and timing — a whole
          new fill.
        """
        key = (core, line)
        completion = self._outstanding.get(key)
        if completion is not None and completion <= now:
            del self._outstanding[key]
            completion = None
        if completion is not None:
            residual = max(1, int(completion - now))
            return AccessResult(HitLevel.LATE, residual,
                                version=outcome.version,
                                private_region=outcome.private_region)
        if outcome.level is HitLevel.L1:
            return outcome
        self._outstanding[key] = now + outcome.latency
        on_mshr = self.observers.on_mshr
        if on_mshr is not None and recording:
            on_mshr(outcome.latency)
        # Entries for lines never re-accessed would otherwise accumulate
        # forever; periodically drop every entry whose fill has completed
        # (observable behaviour is identical — completed entries are
        # treated as absent on lookup anyway).
        self._mshr_inserts += 1
        if self._mshr_inserts >= self._MSHR_PRUNE_PERIOD:
            self._mshr_inserts = 0
            core_time = self._core_time
            dead = [k for k, done in self._outstanding.items()
                    if done <= core_time.get(k[0], 0.0)]
            for k in dead:
                del self._outstanding[k]
        return outcome
