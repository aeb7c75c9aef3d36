"""Batched simulation driver: chunked streams + per-machine fast-path probes.

:func:`run_batched` is the ``batched=True`` face of
:meth:`repro.sim.simulator.Simulator.run`.  It consumes the workload's
*translated* stream as flat parallel arrays (``cores``/``kinds``/
``vaddrs``/``paddrs`` chunks from :meth:`generate_batch`, which
translates each stream through address spaces of its own — or replays
the read-only chunks of a same-key stream this process already drained
— so this loop never translates), derives line and probe-key ids per
chunk with numpy when available, and runs one per-access loop for
every machine.  The only per-family code is the machine's fast-path
*probe* (:class:`repro.common.types.FastPathProbe`), which the machine
builds next to the ``access`` it replays: the D2M MD1-hit + LI-direct
L1 hit (:class:`repro.core.protocol.D2MFastPath`) and the baseline
TLB-hit + tag-checked L1 hit
(:class:`repro.baseline.hierarchy.BaselineFastPath`).  Every access the
probe declines goes to the full state machine (the machine's
``access``): misses, ownership transitions, upgrades, and every
MD3-mediated event.  A machine without a probe runs the same loop
all-slow.

The contract is **bit-identical accounting**.  The scalar loop stays the
oracle; this driver must produce the same stats tree, energy counts,
latency buckets, version-oracle stream, and telemetry histograms for any
workload.  Three rules enforce that:

* *Pure-check-then-mutate*: a probe classifies with pure reads of the
  shared structures (``_where`` maps, LI arrays, data-array slots).
  Only a fully eligible access commits its effect set; anything else is
  handed, untouched, to the machine's ``access`` — which then replays
  the lookups (including their recency touches) exactly as the scalar
  loop would have.
* *Exact effect replay*: a committed fast access performs precisely the
  mutations the scalar hit path performs — policy/LRU touches, version
  and dirty bits, bypass rehit counters, the near-side pressure tick in
  the probe, the MSHR transform here — in an order that is
  observationally equivalent (the reordered steps touch disjoint state).
* *Deferred aggregation only where it commutes*: per-access stat and
  energy increments of the fast path are counted in plain ints (by the
  probe; the L1 latency buckets here) and folded in per chunk as one
  float add.  Counter values are integer floats well below 2**53,
  nothing reads them mid-run, and a warm-up/ROI reset simply discards
  the pending counts (reset-after-flush and discard-without-flush are
  the same operation on a cleared dict).

Observers (:mod:`repro.common.observe`) see the same hooks at the same
stream positions as under the scalar loop; chunk ends are the
``on_chunk`` boundaries, and the slow tail is bracketed by
``slow_start``/``slow_done``.  An event observer is the one thing the
fast path cannot satisfy in general: while the ``tracer`` slot holds one
that is not ``fast_path_safe`` (the sanitizer, an event ring), every
access takes the slow path — still batched, still bit-identical.  With
no observer at all the loop makes no observer call.
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_ns
from typing import Any, Iterator, List, Optional, Sequence

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional by design
    _np = None

from repro.common.errors import TraceError
from repro.common.types import (
    Access,
    CODE_KIND,
    FastPathProbe,
    HitLevel,
    KIND_CODE,
)
from repro.mem.address import translate_chunk
from repro.sim.simulator import LatencyBucket, SimResult
from repro.workloads.base import Chunk

#: minimum chunk length worth a numpy round-trip
_NUMPY_MIN = 1024


def _chunks_from_scalar(workload: Any, total: int, seed: int,
                        chunk: int) -> Iterator[Chunk]:
    """Generic chunker over a workload without :meth:`generate_batch`.

    Drains ``generate`` and repacks the stream into the same
    ``(cores, kinds, vaddrs, paddrs)`` tuples, translating each chunk
    in stream order — through the workload's per-core address spaces
    (``_spaces``) when it has them, else its ``translate``.
    """
    kind_code = KIND_CODE
    cores: List[int] = []
    kinds: List[int] = []
    vaddrs: List[int] = []
    for acc in workload.generate(total, seed):
        cores.append(acc.core)
        kinds.append(kind_code[acc.kind])
        vaddrs.append(acc.vaddr)
        if len(cores) >= chunk:
            yield cores, kinds, vaddrs, _translated(workload, cores, vaddrs)
            cores = []
            kinds = []
            vaddrs = []
    if cores:
        yield cores, kinds, vaddrs, _translated(workload, cores, vaddrs)


def _translated(workload: Any, cores: List[int],
                vaddrs: List[int]) -> List[int]:
    spaces = getattr(workload, "_spaces", None)
    paddrs = (translate_chunk(spaces, cores, vaddrs) if spaces
              else list(map(workload.translate, cores, vaddrs)))
    if min(paddrs) < 0:
        i = next(i for i, paddr in enumerate(paddrs) if paddr < 0)
        raise TraceError(f"negative physical address for core {cores[i]} "
                         f"vaddr {vaddrs[i]:#x}")
    return paddrs


def _chunk_stream(workload: Any, total: int, seed: int,
                  chunk: int) -> Iterator[Chunk]:
    gen_batch = getattr(workload, "generate_batch", None)
    if gen_batch is not None:
        return gen_batch(total, seed, chunk)
    return _chunks_from_scalar(workload, total, seed, chunk)


def _shells(nodes: int) -> List[List[Access]]:
    """One reusable frozen-Access per (kind code, core) for the slow tail."""
    return [[Access(core, kind, 0) for core in range(nodes)]
            for kind in CODE_KIND]


def _vector(values: Any, n: int) -> Any:
    """A chunk column (a list, ``bytes`` or an ``array``) as numpy ints."""
    if isinstance(values, list):
        return _np.fromiter(values, _np.int64, n)
    return _np.asarray(memoryview(values))


def _shifted(values: Sequence[int], bits: int, n: int,
             use_np: bool) -> List[int]:
    """``[v >> bits for v in values]``, through numpy when ``use_np``."""
    if use_np:
        return (_vector(values, n) >> bits).tolist()
    return [v >> bits for v in values]


def run_batched(sim: Any, workload: Any, n_instructions: int, seed: int = 0,
                warmup: int = 0, chunk: int = 0) -> SimResult:
    """Batched twin of :meth:`Simulator.run` (same arguments, same result).

    Asks the machine for its ``fastpath_probe``; a machine without one
    — or with an event observer that is not ``fast_path_safe`` — runs
    the same loop all-slow.  ``chunk`` (0 = the observers' chunk
    length) sets the flush granularity.
    """
    hierarchy = sim.hierarchy
    machine = getattr(hierarchy, "protocol", hierarchy)
    stats = hierarchy.stats
    network = hierarchy.network
    energy = hierarchy.energy
    nodes = hierarchy.config.nodes
    line_bits = hierarchy.amap.line_bits
    check_values = sim.check_values
    on_store = sim.oracle.on_store
    check_load = sim.oracle.check_load

    result = SimResult(
        name=hierarchy.config.name,
        instructions=0,
        accesses=0,
        stats=stats,
        buckets={},
    )
    observers = sim._observe(result)
    tick = observers.tick
    on_access = observers.on_access
    on_mshr = observers.on_mshr
    on_roi = observers.on_roi
    on_chunk = observers.on_chunk
    slow_start = observers.slow_start
    slow_done = observers.slow_done
    # Observer boundaries must coincide with chunk flushes (deferred
    # fast-path aggregates fold in there) for the scalar loop to hit
    # the same stream positions.
    chunk = chunk or observers.chunk
    streamed = 0

    tracer = getattr(machine, "tracer", None)
    probe_fn = getattr(machine, "fastpath_probe", None)
    probe: Optional[FastPathProbe] = None
    if probe_fn is not None and (tracer is None or tracer.fast_path_safe):
        probe = probe_fn(check_load if check_values else None)
    probe_hit = probe.hit if probe is not None else None
    key_bits = probe.key_bits if probe is not None else 0
    lat_fast = probe.latency if probe is not None else 0
    machine_access = machine.access
    core_time = sim._core_time
    issue_interval = sim._issue_interval
    mshr_inserts = sim._mshr_inserts
    prune_period = sim._MSHR_PRUNE_PERIOD
    # Per-core clocks as a dense list and MSHR keys as ints
    # (``(line << shift) | core``) — cheaper than dict-of-tuple
    # bookkeeping on the per-access path.  Both are folded back into the
    # simulator's canonical dicts before returning, so the scalar loop
    # can pick up where a batched run left off.
    core_shift = max(1, (nodes - 1).bit_length())
    core_mask = (1 << core_shift) - 1
    core_times = [0.0] * nodes
    for c, t in core_time.items():
        if c < nodes:
            core_times[c] = t
    out_src = sim._outstanding
    outstanding = {(ln << core_shift) | c: v
                   for (c, ln), v in out_src.items()}

    shells = _shells(nodes)
    mutate = object.__setattr__

    hit_l1 = HitLevel.L1
    hit_late = HitLevel.LATE
    bkey_i = (True, hit_l1)
    bkey_d = (False, hit_l1)

    buckets = result.buckets
    core_instructions = result.core_instructions
    instr_miss_latency = result.core_instr_miss_latency
    data_miss_latency = result.core_data_miss_latency
    recording = warmup == 0
    warmup_left = warmup
    roi_pending = False
    instructions = 0
    accesses = 0
    b_i = b_d = 0  # recorded fast L1 hits per side (flushed per chunk)

    for cores_c, kinds_c, vaddrs_c, paddrs_c in _chunk_stream(
            workload, warmup + n_instructions, seed, chunk):
        n = len(cores_c)
        use_np = _np is not None and n >= _NUMPY_MIN
        lines = _shifted(paddrs_c, line_bits, n, use_np)
        vkeys = (_shifted(vaddrs_c, key_bits, n, use_np)
                 if probe is not None else lines)
        # Chunk-level bookkeeping: when no ROI boundary or telemetry
        # tick can fire inside this chunk, the per-access instruction
        # and access counting folds into vector ops up front and the
        # loop prologue shrinks to the clock advance.
        book_inline = True
        if use_np and tick is None and not roi_pending:
            ks = _vector(kinds_c, n)
            n_instr = n - int(_np.count_nonzero(ks))
            if recording:
                if n_instr:
                    cs = _vector(cores_c, n)
                    for c, v in enumerate(_np.bincount(
                            cs[ks == 0], minlength=nodes).tolist()):
                        if v:
                            core_instructions[c] = (
                                core_instructions.get(c, 0) + v)
                instructions += n_instr
                accesses += n
                book_inline = False
            elif warmup_left > n_instr:
                warmup_left -= n_instr
                book_inline = False
        for core, kcode, vaddr, paddr, line, vkey in zip(
                cores_c, kinds_c, vaddrs_c, paddrs_c, lines, vkeys):
            if book_inline:
                if roi_pending:
                    # ROI starts here (see the scalar loop): drop
                    # warm-up stats — including the probe's
                    # not-yet-flushed pending counts, which a flush
                    # would only have moved into the dicts reset() is
                    # about to clear.
                    stats.reset()
                    network.reset()
                    energy.reset()
                    if probe is not None:
                        probe.discard()
                    recording = True
                    roi_pending = False
                    if on_roi is not None:
                        on_roi()
                if kcode == 0:
                    now = core_times[core] + issue_interval
                    core_times[core] = now
                    if recording:
                        instructions += 1
                        core_instructions[core] = (
                            core_instructions.get(core, 0) + 1
                        )
                    elif warmup_left > 0:
                        warmup_left -= 1
                        if warmup_left == 0:
                            roi_pending = True
                else:
                    now = core_times[core]
                if recording:
                    accesses += 1
                if tick is not None:
                    tick()
            elif kcode == 0:
                now = core_times[core] + issue_interval
                core_times[core] = now
            else:
                now = core_times[core]

            if kcode == 2:
                version = on_store(line) if check_values else 1
            else:
                version = 0

            if probe_hit is not None and probe_hit(core, kcode, vkey, line,
                                                   version):
                # -- fast hit: the probe committed the hit-path effects;
                # only the MSHR transform and the bucket remain.
                key = (line << core_shift) | core
                completion = outstanding.get(key)
                if completion is not None:
                    if completion > now:
                        if recording:
                            residual = int(completion - now)
                            if residual < 1:
                                residual = 1
                            bkey = (kcode == 0, hit_late)
                            bucket = buckets.get(bkey)
                            if bucket is None:
                                bucket = LatencyBucket()
                                buckets[bkey] = bucket
                            bucket.count += 1
                            bucket.total_latency += residual
                            if on_access is not None:
                                on_access(hit_late, residual)
                        continue
                    del outstanding[key]
                if recording:
                    if kcode:
                        b_d += 1
                    else:
                        b_i += 1
                    if on_access is not None:
                        on_access(hit_l1, lat_fast)
                continue

            # -- slow tail: the full state machine, untouched.  The
            # slow hooks (observation only — no state is touched) time
            # each fallback dispatch.
            if slow_start is not None:
                slow_start()
                slow_t0 = _perf_ns()
            shell = shells[kcode][core]
            mutate(shell, "vaddr", vaddr)
            if kcode == 2:
                outcome = machine_access(shell, paddr, version)
            else:
                outcome = machine_access(shell, paddr)
                if check_values:
                    check_load(line, outcome.version)
            if slow_done is not None:
                slow_done(_perf_ns() - slow_t0)
            key = (line << core_shift) | core
            completion = outstanding.get(key)
            if completion is not None and completion <= now:
                del outstanding[key]
                completion = None
            if completion is not None:
                level = hit_late
                latency = int(completion - now)
                if latency < 1:
                    latency = 1
            else:
                level = outcome.level
                latency = outcome.latency
                if level is not hit_l1:
                    outstanding[key] = now + latency
                    if on_mshr is not None and recording:
                        on_mshr(latency)
                    mshr_inserts += 1
                    if mshr_inserts >= prune_period:
                        mshr_inserts = 0
                        dead = [k for k, done in outstanding.items()
                                if done <= core_times[k & core_mask]]
                        for k in dead:
                            del outstanding[k]
            if recording:
                instr = kcode == 0
                bkey = (instr, level)
                bucket = buckets.get(bkey)
                if bucket is None:
                    bucket = LatencyBucket()
                    buckets[bkey] = bucket
                bucket.count += 1
                bucket.total_latency += latency
                if on_access is not None:
                    on_access(level, latency)
                if level is not hit_l1 and level is not hit_late:
                    lat = instr_miss_latency if instr else data_miss_latency
                    lat[core] = lat.get(core, 0) + latency

        # -- chunk flush: fold the deferred fast-path aggregates in.
        if probe is not None:
            probe.flush()
        for bkey, count in ((bkey_i, b_i), (bkey_d, b_d)):
            if count:
                bucket = buckets.get(bkey)
                if bucket is None:
                    bucket = LatencyBucket()
                    buckets[bkey] = bucket
                bucket.count += count
                bucket.total_latency += count * lat_fast
        b_i = b_d = 0
        streamed += n
        if on_chunk is not None:
            on_chunk(instructions, accesses, streamed)

    result.instructions = instructions
    result.accesses = accesses
    sim._mshr_inserts = mshr_inserts
    # Restore the simulator's canonical dict forms.
    out_src.clear()
    for k, v in outstanding.items():
        out_src[(k & core_mask, k >> core_shift)] = v
    for c in range(nodes):
        t = core_times[c]
        if t != 0.0 or c in core_time:
            core_time[c] = t
    hierarchy.finalize()
    if observers.finalize is not None:
        observers.finalize()
    return result
