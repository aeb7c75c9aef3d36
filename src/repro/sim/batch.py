"""Batched simulation driver: chunked streams + inlined L1 fast paths.

:func:`run_batched` is the ``batched=True`` face of
:meth:`repro.sim.simulator.Simulator.run`.  It precompiles the workload's
access stream into flat parallel arrays (``cores``/``kinds``/``vaddrs``
chunks from :meth:`generate_batch`, vectorized into region/page ids per
chunk with numpy when available), resolves the common fast paths inline
— the D2M MD1-hit + LI-direct L1 hit, the baseline TLB-hit + L1 hit —
and falls back to the full protocol state machine
(:meth:`D2MProtocol.access` / :meth:`BaselineHierarchy.access`) for the
slow tail: misses, ownership transitions, upgrades, and every
MD3-mediated event.

The contract is **bit-identical accounting**.  The scalar loop stays the
oracle; this driver must produce the same stats tree, energy counts,
latency buckets, version-oracle stream, and telemetry histograms for any
workload.  Three rules enforce that:

* *Pure-check-then-mutate*: classification reads shared structures
  (``_where`` maps, LI arrays, data-array slots) without touching them.
  Only a fully eligible access commits its effect set; anything else is
  handed, untouched, to the machine's ``access`` — which then replays
  the probe (including its recency touch) exactly as the scalar loop
  would have.
* *Exact effect replay*: a committed fast access performs precisely the
  mutations the scalar hit path performs — policy/LRU touches, version
  and dirty bits, bypass rehit counters, the near-side pressure tick,
  and the MSHR transform — in an order that is observationally
  equivalent (the reordered steps touch disjoint state).
* *Deferred aggregation only where it commutes*: per-access stat and
  energy increments of the fast path are accumulated in plain ints and
  flushed per chunk as one float add.  Counter values are integer floats
  well below 2**53, nothing reads them mid-run, and a warm-up/ROI reset
  simply zeroes the pending counts (reset-after-flush and
  discard-without-flush are the same operation on a cleared dict).

Tracers are the one observer the fast path cannot satisfy in general: a
hierarchy with an attached ``tracer`` runs all-slow (still batched,
still bit-identical — this is how ``--sanitize`` composes) unless the
tracer declares ``fast_path_safe`` (e.g. :class:`Telemetry`, whose
tracer hooks are no-ops on the hit path).
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional by design
    _np = None

from repro.common.errors import TraceError
from repro.common.types import (
    Access,
    AccessKind,
    CoherenceState,
    HitLevel,
    KIND_CODE,
)
from repro.core.datastore import _SCRAMBLE_SPREAD, LineRole
from repro.core.li import LIKind
from repro.mem.replacement import LRUPolicy
from repro.sim.simulator import LatencyBucket, SimResult

#: flush/vectorization granularity (accesses per chunk)
DEFAULT_CHUNK = 4096

#: minimum chunk length worth a numpy round-trip
_NUMPY_MIN = 1024


def _chunks_from_scalar(workload: Any, total: int, seed: int,
                        chunk: int) -> Iterator[Tuple[List[int], List[int],
                                                      List[int]]]:
    """Generic chunker over a workload without :meth:`generate_batch`.

    Drains ``generate`` and repacks the stream into the same
    ``(cores, kinds, vaddrs)`` tuples.
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
            yield cores, kinds, vaddrs
            cores = []
            kinds = []
            vaddrs = []
    if cores:
        yield cores, kinds, vaddrs


def _chunk_stream(workload: Any, total: int, seed: int,
                  chunk: int) -> Iterator[Tuple[List[int], List[int],
                                                List[int]]]:
    gen_batch = getattr(workload, "generate_batch", None)
    if gen_batch is not None:
        return gen_batch(total, seed, chunk)
    return _chunks_from_scalar(workload, total, seed, chunk)


def _lru_orders(policies: Sequence[Any]) -> Optional[List[List[int]]]:
    """Per-set ``_order`` lists when every policy is plain LRU, else None.

    The hot loop inlines the LRU touch (MRU early-out + remove/append);
    a store with any other policy is simply not fast-pathed, keeping the
    inlined touch exactly equivalent to ``LRUPolicy.touch``.
    """
    if all(type(p) is LRUPolicy for p in policies):
        return [p._order for p in policies]
    return None


def _shells(nodes: int) -> Tuple[List[Access], List[Access], List[Access]]:
    """One reusable frozen-Access per (kind, core) for the slow tail."""
    return (
        [Access(core, AccessKind.IFETCH, 0) for core in range(nodes)],
        [Access(core, AccessKind.LOAD, 0) for core in range(nodes)],
        [Access(core, AccessKind.STORE, 0) for core in range(nodes)],
    )


def _translation(workload: Any, hierarchy: Any
                 ) -> Tuple[Optional[List[Any]], int, int]:
    """``(page_maps, page_bits, offset_mask)`` for inline translation.

    When the workload exposes per-core :class:`AddressSpace` objects
    (``_spaces``), a mapped page resolves without the ``translate`` call
    — same bit math, same result; first-touch allocations still go
    through ``translate`` in access order.
    """
    spaces = getattr(workload, "_spaces", None)
    if spaces:
        return ([sp._pages for sp in spaces], spaces[0]._page_bits,
                spaces[0]._offset_mask)
    return None, hierarchy.amap.page_bits, 0


def run_batched(sim: Any, workload: Any, n_instructions: int, seed: int = 0,
                warmup: int = 0, chunk: int = DEFAULT_CHUNK) -> SimResult:
    """Batched twin of :meth:`Simulator.run` (same arguments, same result).

    Dispatches on the machine's ``fastpath_handles`` contract; a
    hierarchy without one falls back to the scalar loop outright.
    """
    hierarchy = sim.hierarchy
    machine = getattr(hierarchy, "protocol", hierarchy)
    handles_fn = getattr(machine, "fastpath_handles", None)
    if handles_fn is None:
        return sim.run(workload, n_instructions, seed=seed, warmup=warmup)
    handles = handles_fn()
    tracer = getattr(machine, "tracer", None)
    fast_ok = tracer is None or getattr(tracer, "fast_path_safe", False)
    result = SimResult(
        name=hierarchy.config.name,
        instructions=0,
        accesses=0,
        stats=hierarchy.stats,
        buckets={},
    )
    timeline = getattr(sim, "timeline", None)
    if timeline is not None:
        # Epoch boundaries must coincide with chunk flushes (deferred
        # fast-path aggregates fold in there), so the chunk size becomes
        # the epoch length — the scalar loop then snapshots at exactly
        # the same stream positions.
        chunk = timeline.epoch
        timeline.bind(hierarchy, result)
    if handles["kind"] == "d2m":
        _drive_d2m(sim, workload, machine, handles, result,
                   n_instructions, seed, warmup, fast_ok, chunk)
    else:
        _drive_baseline(sim, workload, machine, handles, result,
                        n_instructions, seed, warmup, fast_ok, chunk)
    hierarchy.finalize()
    return result


def _drive_d2m(sim: Any, workload: Any, machine: Any, handles: Dict[str, Any],
               result: SimResult, n_instructions: int, seed: int,
               warmup: int, fast_ok: bool, chunk: int) -> None:
    hierarchy = sim.hierarchy
    stats = hierarchy.stats
    network = hierarchy.network
    energy = hierarchy.energy
    stats_add = stats.add
    charge_read = energy.charge_read
    charge_write = energy.charge_write

    node_views = handles["nodes"]
    nodes = len(node_views)
    mi_maps = [v[0][0] for v in node_views]
    md_maps = [v[1][0] for v in node_views]
    l1i_slots = [v[2][0] for v in node_views]
    l1i_lru = [v[2][1] for v in node_views]
    l1i_mask = [v[2][2] for v in node_views]
    l1d_slots = [v[3][0] for v in node_views]
    l1d_lru = [v[3][1] for v in node_views]
    l1d_mask = [v[3][2] for v in node_views]
    mi_orders = [_lru_orders(v[0][1]) for v in node_views]
    md_orders = [_lru_orders(v[1][1]) for v in node_views]
    if any(o is None for o in mi_orders) or any(o is None for o in md_orders):
        fast_ok = False

    lat_fast = handles["lat_fast"]
    idx_mask = handles["idx_mask"]
    region_bits = handles["region_bits"]
    line_bits = handles["line_bits"]
    bypass = handles["bypass"]
    ns = handles["ns_llc"]
    tick_pressure = handles["tick_pressure"]
    ns_window = ns.pressure_window if ns is not None else 0

    machine_access = machine.access
    check_values = sim.check_values
    on_store = sim.oracle.on_store
    check_load = sim.oracle.check_load
    telemetry = sim.telemetry
    tele_tick = telemetry.tick if telemetry is not None else None
    tele_access = telemetry.on_access if telemetry is not None else None
    profiler = getattr(sim, "profiler", None)
    prof_slow_start = profiler.slow_start if profiler is not None else None
    prof_slow_done = profiler.slow_done if profiler is not None else None
    prof_chunk_done = profiler.chunk_done if profiler is not None else None
    timeline = getattr(sim, "timeline", None)
    tl_snapshot = timeline.snapshot if timeline is not None else None
    tl_epoch = timeline.epoch if timeline is not None else 0
    tl_pending = 0  # accesses since the last epoch boundary
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

    page_maps, page_bits, offset_mask = _translation(workload, hierarchy)
    translate = workload.translate
    if_shells, ld_shells, st_shells = _shells(nodes)
    mutate = object.__setattr__

    lik_l1 = LIKind.L1
    role_master = LineRole.MASTER
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
    # Deferred fast-path aggregates (flushed per chunk; zeroed at ROI).
    f_i = f_d = f_w = 0          # fast accesses per side / fast stores
    b_i = b_d = 0                # recorded L1 buckets at lat_fast

    prof_t = _perf_ns() if prof_chunk_done is not None else 0
    for cores_c, kinds_c, vaddrs_c in _chunk_stream(
            workload, warmup + n_instructions, seed, chunk):
        n = len(cores_c)
        use_np = _np is not None and n >= _NUMPY_MIN
        if use_np:
            va = _np.fromiter(vaddrs_c, _np.int64, n)
            vregs = (va >> region_bits).tolist()
            vpgs = (va >> page_bits).tolist() if page_maps is not None \
                else vaddrs_c
        else:
            vregs = [v >> region_bits for v in vaddrs_c]
            vpgs = [v >> page_bits for v in vaddrs_c] \
                if page_maps is not None else vaddrs_c
        # Chunk-level bookkeeping: when no ROI boundary or telemetry
        # tick can fire inside this chunk, the per-access instruction
        # and access counting folds into vector ops up front and the
        # loop prologue shrinks to the clock advance.
        book_inline = True
        if use_np and tele_tick is None and not roi_pending:
            ks = _np.fromiter(kinds_c, _np.int64, n)
            n_instr = n - int(_np.count_nonzero(ks))
            if recording:
                if n_instr:
                    cs = _np.fromiter(cores_c, _np.int64, n)
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
        for core, kcode, vaddr, vreg, vpg in zip(
                cores_c, kinds_c, vaddrs_c, vregs, vpgs):
            if book_inline:
                if roi_pending:
                    # ROI starts here (see the scalar loop): drop
                    # warm-up stats — including the fast path's
                    # not-yet-flushed pending counts, which a flush
                    # would only have moved into the dicts reset() is
                    # about to clear.
                    stats.reset()
                    network.reset()
                    energy.reset()
                    f_i = f_d = f_w = 0
                    recording = True
                    roi_pending = False
                    if timeline is not None:
                        timeline.mark_roi()
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
                if tele_tick is not None:
                    tele_tick()
            elif kcode == 0:
                now = core_times[core] + issue_interval
                core_times[core] = now
            else:
                now = core_times[core]

            if page_maps is not None:
                ppage = page_maps[core].get(vpg)
                if ppage is not None:
                    paddr = (ppage << page_bits) | (vaddr & offset_mask)
                else:
                    paddr = translate(core, vaddr)
                    if paddr < 0:
                        raise TraceError(
                            f"negative physical address for core {core} "
                            f"vaddr {vaddr:#x}")
            else:
                paddr = translate(core, vaddr)
                if paddr < 0:
                    raise TraceError(
                        f"negative physical address for core {core} "
                        f"vaddr {vaddr:#x}")
            line = paddr >> line_bits

            if fast_ok:
                # -- classification (pure reads; no mutation before full
                # eligibility).  Fast iff: access-side MD1 primary hit,
                # LI[idx] is an L1 pointer whose slot holds the line,
                # and (stores) the region is private + slot is master.
                if kcode:
                    loc = md_maps[core].get(vreg)
                else:
                    loc = mi_maps[core].get(vreg)
                if loc is not None:
                    entry = loc[2].payload
                    li = entry.li[line & idx_mask]
                    if li.kind is lik_l1 and (kcode != 2 or entry.private):
                        way = li.way
                        if li.instr:
                            set_idx = ((line ^ entry.scramble
                                        * _SCRAMBLE_SPREAD)
                                       & l1i_mask[core])
                            slot = l1i_slots[core][set_idx][way]
                            lru_set = l1i_lru[core][set_idx]
                        else:
                            set_idx = ((line ^ entry.scramble
                                        * _SCRAMBLE_SPREAD)
                                       & l1d_mask[core])
                            slot = l1d_slots[core][set_idx][way]
                            lru_set = l1d_lru[core][set_idx]
                        if (slot is not None and slot.line == line
                                and (kcode != 2
                                     or slot.role is role_master)):
                            # -- commit: the scalar hit path's effects.
                            ordm = (md_orders if kcode
                                    else mi_orders)[core][loc[0]]
                            w = loc[1]
                            if ordm[-1] != w:
                                ordm.remove(w)
                                ordm.append(w)
                            if lru_set[-1] != way:
                                lru_set.remove(way)
                                lru_set.append(way)
                            if kcode == 2:
                                slot.version = (on_store(line)
                                                if check_values else 1)
                                slot.dirty = True
                                f_w += 1
                            elif check_values:
                                check_load(line, slot.version)
                            if kcode:
                                f_d += 1
                                instr = False
                            else:
                                f_i += 1
                                instr = True
                            if bypass:
                                entry.rehits += 1
                            if ns is not None:
                                c = ns._accesses_since_share + 1
                                if c < ns_window:
                                    ns._accesses_since_share = c
                                else:
                                    tick_pressure()
                            key = (line << core_shift) | core
                            completion = outstanding.get(key)
                            if completion is not None:
                                if completion <= now:
                                    del outstanding[key]
                                    completion = None
                                else:
                                    residual = int(completion - now)
                                    if residual < 1:
                                        residual = 1
                                    if recording:
                                        bkey = (instr, hit_late)
                                        bucket = buckets.get(bkey)
                                        if bucket is None:
                                            bucket = LatencyBucket()
                                            buckets[bkey] = bucket
                                        bucket.count += 1
                                        bucket.total_latency += residual
                                        if tele_access is not None:
                                            tele_access(hit_late, residual)
                                    continue
                            if recording:
                                if instr:
                                    b_i += 1
                                else:
                                    b_d += 1
                                if tele_access is not None:
                                    tele_access(hit_l1, lat_fast)
                            continue

            # -- slow tail: the full state machine, untouched.  The
            # profiler (observation only — no state is touched) times
            # each fallback dispatch and attributes it via the events
            # the machine emits under it.
            if prof_slow_start is not None:
                prof_slow_start()
                slow_t0 = _perf_ns()
            if kcode == 2:
                shell = st_shells[core]
                mutate(shell, "vaddr", vaddr)
                outcome = machine_access(
                    shell, paddr, on_store(line) if check_values else 1)
            else:
                shell = if_shells[core] if kcode == 0 else ld_shells[core]
                mutate(shell, "vaddr", vaddr)
                outcome = machine_access(shell, paddr)
                if check_values:
                    check_load(line, outcome.version)
            if prof_slow_done is not None:
                prof_slow_done(_perf_ns() - slow_t0)
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
                    if telemetry is not None and recording:
                        telemetry.on_mshr(latency)
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
                if tele_access is not None:
                    tele_access(level, latency)
                if level is not hit_l1 and level is not hit_late:
                    lat = instr_miss_latency if instr else data_miss_latency
                    lat[core] = lat.get(core, 0) + latency

        # -- chunk flush: fold the deferred fast-path aggregates in.
        if f_i or f_d:
            n_fast = f_i + f_d
            if f_i:
                fi = float(f_i)
                stats_add("l1.i.accesses", fi)
                stats_add("l1.i.hits", fi)
            if f_d:
                fd = float(f_d)
                stats_add("l1.d.accesses", fd)
                stats_add("l1.d.hits", fd)
            stats_add("md.md1_hits", float(n_fast))
            charge_read("md1", float(n_fast))
            reads = n_fast - f_w
            if reads:
                charge_read("l1_data", float(reads))
            if f_w:
                charge_write("l1_data", float(f_w))
            f_i = f_d = f_w = 0
        if b_i:
            bucket = buckets.get(bkey_i)
            if bucket is None:
                bucket = LatencyBucket()
                buckets[bkey_i] = bucket
            bucket.count += b_i
            bucket.total_latency += b_i * lat_fast
            b_i = 0
        if b_d:
            bucket = buckets.get(bkey_d)
            if bucket is None:
                bucket = LatencyBucket()
                buckets[bkey_d] = bucket
            bucket.count += b_d
            bucket.total_latency += b_d * lat_fast
            b_d = 0
        if prof_chunk_done is not None:
            now_ns = _perf_ns()
            prof_chunk_done(now_ns - prof_t)
            prof_t = now_ns
        # -- epoch boundary: chunks are epoch-sized when sampling (see
        # run_batched), so every full chunk flush closes one epoch; the
        # trailing partial chunk is flushed by finalize() below.
        if tl_snapshot is not None:
            tl_pending += n
            if tl_pending >= tl_epoch:
                tl_pending -= tl_epoch
                tl_snapshot(instructions, accesses)

    if timeline is not None:
        timeline.finalize(instructions, accesses, partial=tl_pending > 0)
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


def _drive_baseline(sim: Any, workload: Any, machine: Any,
                    handles: Dict[str, Any], result: SimResult,
                    n_instructions: int, seed: int, warmup: int,
                    fast_ok: bool, chunk: int) -> None:
    hierarchy = sim.hierarchy
    stats = hierarchy.stats
    network = hierarchy.network
    energy = hierarchy.energy
    stats_add = stats.add
    charge_read = energy.charge_read

    node_views = handles["nodes"]
    nodes = len(node_views)
    tlb_maps = [v[0] for v in handles["tlbs"]]
    tlb_orders = [_lru_orders(v[1]) for v in handles["tlbs"]]
    tlb_stats = handles["tlb_stats"]
    l1i_maps = [v[0][0] for v in node_views]
    l1i_orders = [_lru_orders(v[0][1]) for v in node_views]
    l1d_maps = [v[1][0] for v in node_views]
    l1d_orders = [_lru_orders(v[1][1]) for v in node_views]
    states = [v[2] for v in node_views]
    write_hits = handles["write_hits"]
    if (any(o is None for o in tlb_orders)
            or any(o is None for o in l1i_orders)
            or any(o is None for o in l1d_orders)):
        fast_ok = False

    lat_fast = handles["lat_fast"]
    line_bits = handles["line_bits"]

    machine_access = machine.access
    check_values = sim.check_values
    on_store = sim.oracle.on_store
    check_load = sim.oracle.check_load
    telemetry = sim.telemetry
    tele_tick = telemetry.tick if telemetry is not None else None
    tele_access = telemetry.on_access if telemetry is not None else None
    profiler = getattr(sim, "profiler", None)
    prof_slow_start = profiler.slow_start if profiler is not None else None
    prof_slow_done = profiler.slow_done if profiler is not None else None
    prof_chunk_done = profiler.chunk_done if profiler is not None else None
    timeline = getattr(sim, "timeline", None)
    tl_snapshot = timeline.snapshot if timeline is not None else None
    tl_epoch = timeline.epoch if timeline is not None else 0
    tl_pending = 0  # accesses since the last epoch boundary
    core_time = sim._core_time
    issue_interval = sim._issue_interval
    mshr_inserts = sim._mshr_inserts
    prune_period = sim._MSHR_PRUNE_PERIOD
    # Same dense-list clocks and int MSHR keys as the D2M driver.
    core_shift = max(1, (nodes - 1).bit_length())
    core_mask = (1 << core_shift) - 1
    core_times = [0.0] * nodes
    for c, t in core_time.items():
        if c < nodes:
            core_times[c] = t
    out_src = sim._outstanding
    outstanding = {(ln << core_shift) | c: v
                   for (c, ln), v in out_src.items()}

    # The TLB is keyed by the *hierarchy's* page number; the workload's
    # address spaces may (in principle) use a different page size, so the
    # inline translation keeps its own shift.
    tlb_bits = hierarchy.amap.page_bits
    page_maps, wl_page_bits, offset_mask = _translation(workload, hierarchy)
    same_page_bits = wl_page_bits == tlb_bits
    translate = workload.translate
    if_shells, ld_shells, st_shells = _shells(nodes)
    mutate = object.__setattr__

    modified = CoherenceState.MODIFIED
    exclusive = CoherenceState.EXCLUSIVE
    shared = CoherenceState.SHARED
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
    f_i = f_d = 0                       # fast accesses per side
    tlb_fast = [0] * nodes              # per-core (the group is shared,
    b_i = b_d = 0                       # but flushing per core is exact
    #                                     either way)

    prof_t = _perf_ns() if prof_chunk_done is not None else 0
    for cores_c, kinds_c, vaddrs_c in _chunk_stream(
            workload, warmup + n_instructions, seed, chunk):
        n = len(cores_c)
        use_np = _np is not None and n >= _NUMPY_MIN
        if use_np:
            vpgs = (_np.fromiter(vaddrs_c, _np.int64, n)
                    >> tlb_bits).tolist()
        else:
            vpgs = [v >> tlb_bits for v in vaddrs_c]
        # Chunk-level bookkeeping (see _drive_d2m).
        book_inline = True
        if use_np and tele_tick is None and not roi_pending:
            ks = _np.fromiter(kinds_c, _np.int64, n)
            n_instr = n - int(_np.count_nonzero(ks))
            if recording:
                if n_instr:
                    cs = _np.fromiter(cores_c, _np.int64, n)
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
        for core, kcode, vaddr, vpage in zip(
                cores_c, kinds_c, vaddrs_c, vpgs):
            if book_inline:
                if roi_pending:
                    stats.reset()
                    network.reset()
                    energy.reset()
                    f_i = f_d = 0
                    for c in range(nodes):
                        tlb_fast[c] = 0
                    recording = True
                    roi_pending = False
                    if timeline is not None:
                        timeline.mark_roi()
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
                if tele_tick is not None:
                    tele_tick()
            elif kcode == 0:
                now = core_times[core] + issue_interval
                core_times[core] = now
            else:
                now = core_times[core]

            if page_maps is not None:
                ppage = page_maps[core].get(
                    vpage if same_page_bits else vaddr >> wl_page_bits)
                if ppage is not None:
                    paddr = (ppage << wl_page_bits) | (vaddr & offset_mask)
                else:
                    paddr = translate(core, vaddr)
                    if paddr < 0:
                        raise TraceError(
                            f"negative physical address for core {core} "
                            f"vaddr {vaddr:#x}")
            else:
                paddr = translate(core, vaddr)
                if paddr < 0:
                    raise TraceError(
                        f"negative physical address for core {core} "
                        f"vaddr {vaddr:#x}")
            line = paddr >> line_bits

            if fast_ok:
                # -- classification: L1-TLB hit + kind-side L1 hit +
                # valid MESI state (writable for stores).
                tloc = tlb_maps[core].get(vpage)
                if tloc is not None:
                    if kcode:
                        lloc = l1d_maps[core].get(line)
                    else:
                        lloc = l1i_maps[core].get(line)
                    if lloc is not None:
                        state = states[core].get(line)
                        if (state is modified or state is exclusive
                                or (state is shared and kcode != 2)):
                            # -- commit: the scalar L1-hit prefix.
                            ordt = tlb_orders[core][tloc[0]]
                            w = tloc[1]
                            if ordt[-1] != w:
                                ordt.remove(w)
                                ordt.append(w)
                            ordl = (l1d_orders if kcode
                                    else l1i_orders)[core][lloc[0]]
                            w = lloc[1]
                            if ordl[-1] != w:
                                ordl.remove(w)
                                ordl.append(w)
                            if kcode == 2:
                                write_hits[core](
                                    line, on_store(line)
                                    if check_values else 1)
                            elif check_values:
                                check_load(line, lloc[2].payload.version)
                            if kcode:
                                f_d += 1
                                instr = False
                            else:
                                f_i += 1
                                instr = True
                            tlb_fast[core] += 1
                            key = (line << core_shift) | core
                            completion = outstanding.get(key)
                            if completion is not None:
                                if completion <= now:
                                    del outstanding[key]
                                    completion = None
                                else:
                                    residual = int(completion - now)
                                    if residual < 1:
                                        residual = 1
                                    if recording:
                                        bkey = (instr, hit_late)
                                        bucket = buckets.get(bkey)
                                        if bucket is None:
                                            bucket = LatencyBucket()
                                            buckets[bkey] = bucket
                                        bucket.count += 1
                                        bucket.total_latency += residual
                                        if tele_access is not None:
                                            tele_access(hit_late, residual)
                                    continue
                            if recording:
                                if instr:
                                    b_i += 1
                                else:
                                    b_d += 1
                                if tele_access is not None:
                                    tele_access(hit_l1, lat_fast)
                            continue

            # -- slow tail.
            if prof_slow_start is not None:
                prof_slow_start()
                slow_t0 = _perf_ns()
            if kcode == 2:
                shell = st_shells[core]
                mutate(shell, "vaddr", vaddr)
                outcome = machine_access(
                    shell, paddr, on_store(line) if check_values else 1)
            else:
                shell = if_shells[core] if kcode == 0 else ld_shells[core]
                mutate(shell, "vaddr", vaddr)
                outcome = machine_access(shell, paddr)
                if check_values:
                    check_load(line, outcome.version)
            if prof_slow_done is not None:
                prof_slow_done(_perf_ns() - slow_t0)
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
                    if telemetry is not None and recording:
                        telemetry.on_mshr(latency)
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
                if tele_access is not None:
                    tele_access(level, latency)
                if level is not hit_l1 and level is not hit_late:
                    lat = instr_miss_latency if instr else data_miss_latency
                    lat[core] = lat.get(core, 0) + latency

        # -- chunk flush.
        if f_i or f_d:
            n_fast = f_i + f_d
            if f_i:
                fi = float(f_i)
                stats_add("l1.i.accesses", fi)
                stats_add("l1.i.hits", fi)
            if f_d:
                fd = float(f_d)
                stats_add("l1.d.accesses", fd)
                stats_add("l1.d.hits", fd)
            fn = float(n_fast)
            charge_read("tlb1", fn)
            charge_read("l1", fn)
            for c in range(nodes):
                cnt = tlb_fast[c]
                if cnt:
                    group = tlb_stats[c]
                    group.add("accesses", float(cnt))
                    group.add("l1_hits", float(cnt))
                    tlb_fast[c] = 0
            f_i = f_d = 0
        if b_i:
            bucket = buckets.get(bkey_i)
            if bucket is None:
                bucket = LatencyBucket()
                buckets[bkey_i] = bucket
            bucket.count += b_i
            bucket.total_latency += b_i * lat_fast
            b_i = 0
        if b_d:
            bucket = buckets.get(bkey_d)
            if bucket is None:
                bucket = LatencyBucket()
                buckets[bkey_d] = bucket
            bucket.count += b_d
            bucket.total_latency += b_d * lat_fast
            b_d = 0
        if prof_chunk_done is not None:
            now_ns = _perf_ns()
            prof_chunk_done(now_ns - prof_t)
            prof_t = now_ns
        # -- epoch boundary: chunks are epoch-sized when sampling (see
        # run_batched), so every full chunk flush closes one epoch; the
        # trailing partial chunk is flushed by finalize() below.
        if tl_snapshot is not None:
            tl_pending += n
            if tl_pending >= tl_epoch:
                tl_pending -= tl_epoch
                tl_snapshot(instructions, accesses)

    if timeline is not None:
        timeline.finalize(instructions, accesses, partial=tl_pending > 0)
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
