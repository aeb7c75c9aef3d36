"""One benchmark session: set-up, sim pass, sweep passes and serve stream.

A workload is a set of simulated programs.  Every session drives the
same user-visible surfaces over that set, through the public functions
of ``repro.sim``, ``repro.experiments.runner`` and ``repro.serve.app``:

* the batched driver over every (program, config) cell, cross-checked
  against the scalar driver;
* ``repro sweep``'s ``plan_matrix``/``execute_plan`` path: a cold pass,
  fully cached re-plans, an observed pass (timeline + profile) and a
  checked pass (sanitizer + invariant walk) on the D2M cells;
* an in-process ``ServeApp`` driven over HTTP by one closed-loop client
  (this thread): cached matrices and fresh single cells, each fresh
  cell submitted twice back-to-back.

Every operation counts as attempted; :meth:`Session.check` counts the
failed ones.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.params import SystemConfig, all_configs
from repro.core.hierarchy import build_hierarchy
from repro.experiments import runner as exp
from repro.experiments.records import RunRecord
from repro.serve.app import ServeApp
from repro.serve.schema import validate_payload
from repro.sim.bench import result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.runner import run_workload
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload

import layers

#: workload name -> the simulated programs it runs
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    # small private hot sets: the inline L1/MD1 fast path dominates
    "sim-hit": ("swaptions", "water", "blackscholes"),
    # tpcc: 1.5 MB code + shared buffer pool, most MD3 events;
    # canneal: 48 MB random shared set that spills to DRAM
    "sim-miss": ("tpcc", "canneal"),
}

#: the configs of the sim pass (one per hierarchy family)
SIM_CONFIGS = ("Base-2L", "D2M-FS", "D2M-NS-R")

#: poll interval of the serve client while a job runs
POLL_S = 0.002

#: seconds one HTTP exchange or one job may take before it fails
HTTP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Budget:
    """How much work one session does (warm-up is half of each budget).

    A session runs ``rounds`` rounds; the per-round counts below apply
    to each.  A shared 2-core host was seen to run this code up to
    1.75x slower for tens of seconds at a time.  Spreading every metric's samples over the
    rounds and reporting medians keeps a run's figures those of the
    host's usual state, so the rare fast or slow spell moves the run's
    median little.
    """

    rounds: int
    sim_instructions: int
    sweep_instructions: int
    checked_instructions: int
    miss_instructions: int
    serve_hits: int
    serve_misses: int
    warm_replans: int
    timeline_epoch: int


FULL = Budget(rounds=4, sim_instructions=40_000, sweep_instructions=3_000,
              checked_instructions=300, miss_instructions=2_000,
              serve_hits=100, serve_misses=3, warm_replans=5,
              timeline_epoch=512)

#: the self-tests' budget: every phase and metric, in seconds
QUICK = Budget(rounds=2, sim_instructions=2_000, sweep_instructions=1_000,
               checked_instructions=200, miss_instructions=500,
               serve_hits=6, serve_misses=1, warm_replans=2,
               timeline_epoch=256)


@dataclass
class Cell:
    program: str
    config: SystemConfig
    hierarchy: Any
    workload: Any

    @property
    def label(self) -> str:
        return f"{self.program}/{self.config.name}"


@dataclass
class SimPass:
    """One pass of the batched driver over every cell."""

    #: simulated instructions (warm-up + ROI) of one cell
    cell_instructions: int
    #: label -> host seconds of ``Simulator.run``
    times: Dict[str, float]
    snapshots: Dict[str, Dict[str, object]]
    model: Dict[str, float]

    @property
    def host_s(self) -> float:
        return sum(self.times.values())


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def host_kernel_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed state.

    Reported beside the metrics, never folded into them, so that a run
    made during one of the host's slow spells can be told apart.
    """
    times = []
    for _rep in range(5):
        t0 = perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Session:
    """State and results of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, budget: Budget,
                 workdir: Path, jobs: int,
                 log: Callable[[str], None] = lambda line: None) -> None:
        self.programs = WORKLOADS[workload]
        self.seed = seed
        self.budget = budget
        self.workdir = workdir
        self.jobs = jobs
        self.log = log
        self.configs = list(all_configs())
        by_name = {config.name: config for config in self.configs}
        self.sim_configs = [by_name[name] for name in SIM_CONFIGS]
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.details: Dict[str, object] = {}
        #: per-round samples of each timing, one dict per round
        self.rounds: List[Dict[str, List[float]]] = []
        self.sim_passes: List[SimPass] = []
        self.sims = 0          # daemon simulations for the fresh cells
        self.fresh_cells = 0   # fresh cells submitted (each twice)

    # ----------------------------------------------------------- helpers

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            self.log(f"FAILED: {what}")
        return ok

    def fresh_cache(self, label: str) -> Path:
        """A new empty run cache, made current for the sweep functions."""
        path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.workdir))
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    @staticmethod
    def _half(instructions: int) -> int:
        return instructions // 2

    def _sample(self, name: str, value: float) -> None:
        self.rounds[-1].setdefault(name, []).append(value)

    def pooled(self, name: str) -> List[float]:
        """Every sample of ``name``, over all rounds."""
        return [v for samples in self.rounds for v in samples.get(name, [])]

    def _cell(self, program: str, config: SystemConfig) -> Cell:
        hierarchy = build_hierarchy(config)
        workload = make_workload(program, config.nodes, hierarchy.amap,
                                 seed=self.seed)
        return Cell(program, config, hierarchy, workload)

    def build_cells(self) -> List[Cell]:
        return [self._cell(program, config) for program in self.programs
                for config in self.sim_configs]

    # ------------------------------------------------------------- rounds

    def round(self, tracer: Optional[layers.Tracer] = None,
              sim: bool = True) -> None:
        """One sample of every surface.

        The set-up sample is the sum of what a user pays before each
        surface's first operation: the cold sweep's ``plan_matrix``, a
        ``ServeApp`` start until ``/healthz`` answers, and the sim
        cells' ``build_hierarchy`` + ``make_workload``.
        """
        self.rounds.append({})
        self._sample("host_kernel", host_kernel_s())
        cache, plan_s = self.sweep_cold(tracer)
        self.sweep_warm(cache, tracer)
        start_s = self.serve(cache)
        build_s = 0.0
        if sim:
            t0 = perf_counter()
            cells = self.build_cells()
            build_s = perf_counter() - t0
            self.sim_passes.append(self.sim_pass(cells))
            del cells  # forked sweep workers need not inherit them
        self.sweep_warm(cache)
        self.sweep_observed()
        self.sweep_warm(cache)
        self.sweep_checked()
        self.sweep_warm(cache)
        self._sample("setup", plan_s + start_s + build_s)
        self._sample("host_kernel", host_kernel_s())

    def finish(self) -> None:
        """Reduce the rounds' samples to the end-to-end metrics."""
        first = self.sim_passes[0]
        for later in self.sim_passes[1:]:
            for label, snapshot in later.snapshots.items():
                self.check(snapshot == first.snapshots.get(label),
                           f"sim {label}: rounds disagree")
        typical = {label: statistics.median(
            p.times[label] for p in self.sim_passes if label in p.times)
            for label in first.times}
        self.check(bool(typical), "sim pass measured no cell")
        self.e2e["sim_ips"] = (first.cell_instructions * len(typical)
                               / max(sum(typical.values()), 1e-9))
        for metric, name in (("setup_s", "setup"),
                             ("sweep_cold_s", "cold"),
                             ("sweep_observed_s", "observed"),
                             ("sweep_checked_s", "checked")):
            self.e2e[metric] = statistics.median(self.pooled(name))
        # A re-plan takes about a millisecond, short enough to fall
        # between the host's slow spells; the fastest one is the cost of
        # the work itself.
        self.e2e["sweep_warm_ms"] = min(self.pooled("warm")) * 1000.0
        self.serve_metrics()
        self.details["rounds"] = self.rounds

    # ----------------------------------------------------------- sim pass

    def sim_pass(self, cells: List[Cell],
                 clock: Callable[[], float] = process_time) -> SimPass:
        """Run the batched driver once over every cell.

        Only ``Simulator.run`` is timed; the perf summary and the
        snapshot are taken outside the timed region.
        """
        n = self.budget.sim_instructions
        warmup = self._half(n)
        times: Dict[str, float] = {}
        snapshots: Dict[str, Dict[str, object]] = {}
        model = dict.fromkeys(("cycles", "md1_hits", "md2_hits",
                               "md3_events", "noc_msgs", "dram_accesses"),
                              0.0)
        for cell in cells:
            simulator = Simulator(cell.hierarchy, check_values=False)
            try:
                t0 = clock()
                result = simulator.run(cell.workload, n, seed=self.seed,
                                       warmup=warmup, batched=True)
                elapsed = clock() - t0
                snapshot = _snapshot(cell.config, result)
            except Exception:
                self.check(False, f"sim {cell.label} raised:\n"
                                  + traceback.format_exc())
                continue
            times[cell.label] = elapsed
            snapshots[cell.label] = snapshot
            flat = snapshot["stats"]
            prefix = cell.config.name
            model["cycles"] += snapshot["cycles"]
            model["md1_hits"] += flat.get(f"{prefix}.md.md1_hits", 0.0)
            model["md2_hits"] += flat.get(f"{prefix}.md.md2_hits", 0.0)
            model["md3_events"] += flat.get(f"{prefix}.md3.lookups", 0.0)
            model["noc_msgs"] += cell.hierarchy.network.total_messages
            model["dram_accesses"] += cell.hierarchy.energy.dram_accesses
        return SimPass(n + warmup, times, snapshots, model)

    def verify(self, sim: SimPass, every_cell: bool) -> None:
        """Compare batched snapshots with the scalar driver's.

        With ``every_cell`` false, one cell is checked, rotating with the
        seed, so consecutive seeds cover every cell.
        """
        n = self.budget.sim_instructions
        chosen = self.seed % (len(self.programs) * len(self.sim_configs))
        for index, program in enumerate(self.programs):
            for offset, config in enumerate(self.sim_configs):
                if not every_cell and (index * len(self.sim_configs)
                                       + offset != chosen):
                    continue
                label = f"{program}/{config.name}"
                batched = sim.snapshots.get(label)
                if batched is None:
                    continue  # the batched run raised; already counted
                cell = self._cell(program, config)
                result = Simulator(cell.hierarchy, check_values=False).run(
                    cell.workload, n, seed=self.seed, warmup=self._half(n))
                self.check(_snapshot(config, result) == batched,
                           f"sim {label}: batched snapshot differs from "
                           f"the scalar driver's")
        self.details["verified_cells"] = "all" if every_cell else "rotating"

    def traced_sim(self, untraced: SimPass) -> None:
        """Repeat the sim pass under the layer wrappers.

        ``untraced`` must have been timed with ``perf_counter``, the
        clock of the spans.  Tracing must not change a single simulated
        count, and the self times of all spans must add up to the
        traced pass's wall time.
        """
        tracer = layers.Tracer()
        tracer.install(layers.SIM_HOOKS)
        try:
            with tracer.span("bench.sim"):
                traced = self.sim_pass(self.build_cells(), clock=perf_counter)
        finally:
            self.restore(tracer)
        self.details["missing_hooks"] = tracer.missing
        self.check(traced.model == untraced.model,
                   f"tracing changed the simulated counts: "
                   f"{traced.model} != {untraced.model}")
        for name, value in traced.model.items():
            self.layer[f"model.{name}"] = value

        wall = tracer.total_s("bench.sim")
        covered = sum(v[2] for v in tracer.totals.values())
        self.check(abs(covered - wall) <= 1e-6 * max(wall, 1.0),
                   f"span self times cover {covered:.6f} s of a "
                   f"{wall:.6f} s traced pass")
        self.details["self_time_shares"] = {
            name: v[2] / wall for name, v in sorted(
                tracer.totals.items(), key=lambda kv: -kv[1][2])
            if v[2] > 0}

        driver = tracer.total_s("sim.driver")
        slow = sum(tracer.edge_s("sim.driver", name)
                   for name in layers.SLOW_TAIL)
        generate = tracer.edge_s("sim.driver", "workloads.generate")
        accesses = tracer.items.get("workloads.generate", 0)
        slow_calls = sum(tracer.calls(name) for name in layers.SLOW_TAIL)
        self.layer["workloads.generate_s"] = tracer.total_s(
            "workloads.generate")
        self.layer["workloads.accesses"] = float(accesses)
        self.layer["sim.driver_s"] = driver
        self.layer["sim.fast_s"] = driver - slow - generate
        self.layer["sim.fast_frac"] = 1.0 - slow_calls / max(accesses, 1)
        self.layer["sim.perf_s"] = tracer.self_s("sim.perf")
        for layer in ("core.access", "core.md1", "core.md2", "core.md3",
                      "core.llc", "baseline.access", "noc.send",
                      "energy.charge", "mem.dram"):
            self.layer[f"{layer}.calls"] = float(tracer.calls(layer))
            self.layer[f"{layer}_s"] = tracer.self_s(layer)
        for layer in ("baseline.directory", "mem.tlb", "stats.add"):
            self.layer[f"{layer}.calls"] = float(tracer.calls(layer))
        self.layer["trace.overhead_frac"] = (
            driver / max(untraced.host_s, 1e-9) - 1.0)
        self.layer["trace.unattributed_frac"] = (
            tracer.self_s("sim.driver") / max(driver, 1e-9))
        self.details["trace"] = tracer.dump()

    # -------------------------------------------------------------- sweep

    def _sweep_cells(self, plan: exp.SweepPlan, failures: List[Any],
                     label: str,
                     accept: Callable[[RunRecord], bool] = lambda r: True
                     ) -> None:
        """One check per planned cell: simulated, persisted, parseable."""
        failed = {(f.workload, f.config) for f in failures}
        for failure in failures:
            self.log(f"{label}: {failure}")
        for program in plan.workloads:
            for config in plan.configs:
                name = f"{label} {program}/{config.name}"
                if (program, config.name) in failed:
                    self.check(False, f"{name}: run failed")
                    continue
                key = exp.run_cache_key(program, config.name,
                                        plan.instructions, plan.seed,
                                        plan.warmup)
                path = exp.runs_dir() / f"{key}.json"
                try:
                    record = RunRecord.from_json(
                        json.loads(path.read_text()))
                except (OSError, ValueError, TypeError) as exc:
                    self.check(False, f"{name}: record rejected: {exc}")
                    continue
                self.check(accept(record), f"{name}: record fails checks")

    def _cold(self, label: str, configs: List[SystemConfig],
              instructions: int,
              accept: Callable[[RunRecord], bool] = lambda r: True,
              **options: Any) -> Tuple[Path, float, float]:
        """A sweep into a fresh cache: (cache, plan seconds, wall s)."""
        cache = self.fresh_cache(label)
        t0 = perf_counter()
        plan = exp.plan_matrix(self.programs, configs,
                               instructions=instructions, seed=self.seed,
                               warmup=self._half(instructions), **options)
        t1 = perf_counter()
        failures = exp.execute_plan(plan, jobs=self.jobs, quiet=True)
        elapsed = perf_counter() - t0
        self._sweep_cells(plan, failures, label, accept)
        return cache, t1 - t0, elapsed

    def sweep_cold(self, tracer: Optional[layers.Tracer] = None
                   ) -> Tuple[Path, float]:
        """The default sweep into a fresh cache: (cache, plan seconds)."""
        before = _span_totals(tracer)
        cache, plan_s, elapsed = self._cold(
            "sweep", self.configs, self.budget.sweep_instructions)
        self._sample("cold", elapsed)
        if tracer is not None:
            spans = _span_delta(tracer, before)
            self.layer["experiments.plan_cold_s"] = spans["experiments.plan"]
            self.layer["experiments.execute_s"] = \
                spans["experiments.execute"]
        return cache, plan_s

    def sweep_warm(self, cache: Path,
                   tracer: Optional[layers.Tracer] = None) -> None:
        """Re-plan the cold sweep's matrix, served entirely from cache."""
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        n = self.budget.sweep_instructions
        before = _span_totals(tracer)
        for _rep in range(self.budget.warm_replans):
            t0 = perf_counter()
            plan = exp.plan_matrix(self.programs, self.configs,
                                   instructions=n, seed=self.seed,
                                   warmup=self._half(n))
            self._sample("warm", perf_counter() - t0)
            self.check(not plan.pending and plan.cached == plan.total,
                       f"warm re-plan left {len(plan.pending)} cells "
                       f"pending")
        if tracer is not None:
            spans = _span_delta(tracer, before)
            reps = max(1, self.budget.warm_replans)
            self.layer["experiments.plan_warm_s"] = \
                spans["experiments.plan"] / reps
            self.layer["experiments.record_load_s"] = \
                spans["experiments.record_load"] / reps
            self.layer["experiments.record_bytes"] = float(sum(
                path.stat().st_size
                for path in (cache / "runs").glob("*.json")))

    def sweep_observed(self) -> None:
        """A cold sweep with the timeline and the slow-tail profiler."""
        _, _, elapsed = self._cold(
            "observed", self.configs, self.budget.sweep_instructions,
            accept=lambda r: bool(r.profile) and bool(r.timeline),
            timeline=self.budget.timeline_epoch, profile=True)
        self._sample("observed", elapsed)

    def sweep_checked(self) -> None:
        """A cold D2M sweep under the sanitizer and the invariant walk."""
        d2m = [c for c in self.configs if c.name.startswith("D2M")]
        _, _, elapsed = self._cold(
            "checked", d2m, self.budget.checked_instructions,
            accept=lambda r: (r.sanitized and r.invariants_checked
                              and r.invariants_ok),
            sanitize=True, check_invariants=True)
        self._sample("checked", elapsed)

    # -------------------------------------------------------------- serve

    def serve(self, cache: Path) -> float:
        """Closed-loop HTTP client against an in-process daemon.

        The daemon serves the cold sweep's cache, so every hit
        submission (one program x all five configs at the sweep budget)
        is answered from cached records.  Returns the seconds from the
        daemon's start until ``/healthz`` answered.
        """
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        config_names = [c.name for c in self.configs]
        n = self.budget.sweep_instructions
        m = self.budget.miss_instructions
        t0 = perf_counter()
        with ServeThread(cache) as server:
            port = server.port
            sims_before = self._health(port)
            start_s = perf_counter() - t0
            for k in range(self.budget.serve_hits):
                body = {"workloads": [self.programs[k % len(self.programs)]],
                        "configs": config_names, "instructions": n,
                        "seed": self.seed, "warmup": self._half(n)}
                t0 = perf_counter()
                job = self._submit_and_wait(port, body)
                if job is None:
                    continue
                cell = job["cells"][k % len(job["cells"])]
                etag = self._get_record(port, cell["key"])
                self._sample("hit", perf_counter() - t0)
                self._revalidate(port, cell["key"], etag)

            for _k in range(self.budget.serve_misses):
                k = self.fresh_cells
                self.fresh_cells += 1
                body = {"workloads": [self.programs[k % len(self.programs)]],
                        "configs": [SIM_CONFIGS[k % len(SIM_CONFIGS)]],
                        "instructions": m, "warmup": self._half(m),
                        "seed": 10_000 + 100 * self.seed + k}
                t0 = perf_counter()
                first = self._post(port, body)
                second = self._post(port, body)
                for index, job_id in enumerate((first, second)):
                    job = self._wait(port, job_id) if job_id else None
                    if job is not None:
                        self._get_record(port, job["cells"][0]["key"])
                        if index == 0:
                            self._sample("miss", perf_counter() - t0)
            self.sims += self._health(port) - sims_before
        return start_s

    def serve_metrics(self) -> None:
        """Latency medians over every round's samples.

        The tail is each round's p90 (of 100 hits, so 10 lie beyond),
        and the median over rounds: pooled, one round caught in a slow
        spell would set the tail of the whole run.
        """
        hits = self.pooled("hit")
        misses = self.pooled("miss")
        if not self.check(bool(hits) and bool(misses),
                          "serve stream completed no round trip"):
            return
        self.e2e["serve_hit_p50_ms"] = statistics.median(hits) * 1000.0
        self.e2e["serve_hit_p90_ms"] = statistics.median(
            percentile(samples["hit"], 90.0) for samples in self.rounds
            if samples.get("hit")) * 1000.0
        self.e2e["serve_miss_p50_ms"] = statistics.median(misses) * 1000.0
        for name in ("post", "poll", "record", "revalidate"):
            self.layer[f"serve.{name}_ms"] = statistics.median(
                self.pooled(name)) * 1000.0
        self.layer["serve.polls_per_job"] = statistics.mean(
            self.pooled("polls"))
        self.layer["serve.sims_per_unique_cell"] = (
            self.sims / max(1, self.fresh_cells))

    def _json(self, status: int, raw: bytes, kind: str, what: str,
              ok_status: Tuple[int, ...] = (200, 201)) -> Optional[dict]:
        """Parse and validate one response; None (and a failure) if bad."""
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        problems = validate_payload(kind, payload)
        if not self.check(status in ok_status and not problems,
                          f"{what}: HTTP {status} {problems[:2]}"):
            return None
        return payload

    def _health(self, port: int) -> int:
        status, _h, raw = http_exchange(port, "GET", "/healthz")
        payload = self._json(status, raw, "health", "GET /healthz")
        return int(payload["simulations"]) if payload else 0

    def _post(self, port: int, body: dict) -> Optional[str]:
        t0 = perf_counter()
        status, _h, raw = http_exchange(port, "POST", "/runs", body)
        self._sample("post", perf_counter() - t0)
        job = self._json(status, raw, "job", "POST /runs", (201,))
        return str(job["id"]) if job else None

    def _wait(self, port: int, job_id: str) -> Optional[dict]:
        """Poll a job until it ends; None if it failed or timed out."""
        deadline = perf_counter() + JOB_TIMEOUT_S
        polls = 0
        while True:
            t0 = perf_counter()
            status, _h, raw = http_exchange(port, "GET", f"/runs/{job_id}")
            self._sample("poll", perf_counter() - t0)
            polls += 1
            job = self._json(status, raw, "job", f"GET /runs/{job_id}")
            if job is None:
                return None
            if job["state"] in ("done", "failed"):
                self._sample("polls", polls)
                ok = self.check(job["state"] == "done",
                                f"job {job_id} failed: {job['error']}")
                return job if ok else None
            if perf_counter() > deadline:
                self.check(False, f"job {job_id} still {job['state']} "
                                  f"after {JOB_TIMEOUT_S:.0f} s")
                return None
            time.sleep(POLL_S)

    def _submit_and_wait(self, port: int, body: dict) -> Optional[dict]:
        job_id = self._post(port, body)
        return self._wait(port, job_id) if job_id else None

    def _get_record(self, port: int, key: str) -> str:
        t0 = perf_counter()
        status, headers, raw = http_exchange(port, "GET", f"/records/{key}")
        self._sample("record", perf_counter() - t0)
        self._json(status, raw, "record", f"GET /records/{key}")
        return headers.get("etag", "")

    def _revalidate(self, port: int, key: str, etag: str) -> None:
        t0 = perf_counter()
        status, _h, _raw = http_exchange(port, "GET", f"/records/{key}",
                                         headers={"If-None-Match": etag})
        self._sample("revalidate", perf_counter() - t0)
        self.check(status == 304, f"conditional GET /records/{key} "
                                  f"answered {status}, not 304")

    # ------------------------------------------------- observability cost

    def overheads(self) -> None:
        """Price each observability switch against a plain run.

        One switch at a time, ``run_workload`` on every program with
        D2M-NS-R, in this process; the sanitizer at the checked budget.
        """
        config = next(c for c in all_configs() if c.name == "D2M-NS-R")

        def timed(instructions: int, **switches: Any) -> float:
            t0 = perf_counter()
            for program in self.programs:
                run_workload(config, program, instructions, seed=self.seed,
                             warmup=self._half(instructions),
                             **{"telemetry": False, "sanitize": False,
                                "batched": False, **switches})
            return perf_counter() - t0

        n = self.budget.sweep_instructions
        plain = timed(n)
        self.layer["obs.hist.overhead_s"] = timed(n, telemetry=True) - plain
        self.layer["obs.timeline.overhead_s"] = (
            timed(n, timeline=self.budget.timeline_epoch) - plain)
        plain_batched = timed(n, batched=True)
        self.layer["obs.profile.overhead_s"] = (
            timed(n, batched=True, profile=True) - plain_batched)
        c = self.budget.checked_instructions
        self.layer["analysis.sanitize.overhead_s"] = (
            timed(c, sanitize=True) - timed(c))
        tracer = layers.Tracer()
        tracer.install(layers.CHECK_HOOKS)
        try:
            timed(n, check_invariants=True)
        finally:
            self.restore(tracer)
        self.layer["analysis.invariants_s"] = tracer.total_s(
            "analysis.invariants")
        if not tracer.missing:
            self.check(tracer.calls("analysis.invariants")
                       == len(self.programs), "invariant walk not traced")

    def restore(self, tracer: layers.Tracer) -> None:
        problems = tracer.restore()
        self.check(not problems, f"wrappers not restored: {problems}")


def _snapshot(config: SystemConfig, result: Any) -> Dict[str, object]:
    """Everything the run reports (``repro.sim.bench``'s comparison form)."""
    return result_snapshot(result, PerfModel(config.ooo).summarize(result)
                           .cycles)


def _span_totals(tracer: Optional[layers.Tracer]) -> Dict[str, float]:
    if tracer is None:
        return {}
    return {name: v[1] for name, v in tracer.totals.items()}


def _span_delta(tracer: Optional[layers.Tracer],
                before: Dict[str, float]) -> Dict[str, float]:
    now = _span_totals(tracer)
    return {name: now.get(name, 0.0) - before.get(name, 0.0)
            for name in set(now) | {s[3] for s in layers.SWEEP_HOOKS}}


# ------------------------------------------------------------------ HTTP


def http_exchange(port: int, method: str, path: str,
                  body: Optional[dict] = None,
                  headers: Optional[Dict[str, str]] = None
                  ) -> Tuple[int, Dict[str, str], bytes]:
    """One request on a fresh connection (the daemon closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body)
        send_headers = dict(headers or {})
        if payload is not None:
            send_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=send_headers)
        response = conn.getresponse()
        raw = response.read()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()}, raw)
    finally:
        conn.close()


class ServeThread:
    """A ``ServeApp`` on its own event-loop thread, bound to a free port.

    Used as a context manager: entering starts the daemon and returns
    once it listens; leaving stops it, shuts its executor down and joins
    the thread.
    """

    def __init__(self, cache_root: Path) -> None:
        self.cache_root = cache_root
        self.port = 0
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-serve", daemon=True)

    def _main(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        app = None
        try:
            app = ServeApp(cache_root=self.cache_root)
            loop.run_until_complete(app.start(port=0))
            self.port = app.port
        except Exception as exc:  # reported to the starting thread
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(app.stop())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def __enter__(self) -> "ServeThread":
        self._thread.start()
        if not self._ready.wait(HTTP_TIMEOUT_S) or self._error is not None:
            self.__exit__(None, None, None)
            raise RuntimeError(f"serve daemon did not start: {self._error}")
        return self

    def __exit__(self, *exc: object) -> None:
        if self._error is None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(JOB_TIMEOUT_S)
        if self._thread.is_alive():
            print("perfbench: serve thread did not stop", file=sys.stderr)
