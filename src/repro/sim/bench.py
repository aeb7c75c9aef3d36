"""Pinned-matrix performance benchmark for the simulator itself.

``repro bench`` measures how fast the *simulator* runs — not anything
about the simulated machines — over a fixed matrix of three systems
(Base-2L, D2M-FS, D2M-NS-R) by three workloads (tpcc, swaptions, mix1)
with pinned seeds and instruction budgets, so numbers are comparable
across commits.  Each cell reports instructions/second twice — ``ips``
over a replayed stream and ``cold_ips`` over a freshly drawn and
translated one (see :func:`_time_cell`) — plus the wall time of stats
summarization, and the whole report lands in a machine-readable
``BENCH_<date>.json`` with an environment fingerprint.  The per-layer
split lives in ``perfbench``'s traced run.

The benchmark doubles as a correctness gate for the production path:
every cell is run once through the *reference* loop
(``Simulator.run`` over :meth:`SyntheticWorkload.generate`) and once
through the *batched* driver (:mod:`repro.sim.batch`), and the two
runs' full statistics — flattened stat counters, latency buckets,
per-core totals, and model cycles — must be bit-identical.  Any
divergence fails the run with a nonzero exit, which is what CI's
bench-compare job keys on.

Each cell's ``ips`` and ``cold_ips`` measure the batched driver, the
path every ``repro run``, sweep and serve job takes.

Timing uses ``time.process_time`` (CPU time; robust against noisy
co-tenants) with a best-of-``repetitions`` policy per cell.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.params import SystemConfig, all_configs
from repro.core.hierarchy import build_hierarchy
from repro.sim.perf import PerfModel
from repro.sim.simulator import SimResult, Simulator
from repro.workloads.base import forget_replays
from repro.workloads.registry import make_workload

#: the pinned matrix — one representative per hierarchy family, three
#: workloads spanning instruction-heavy (tpcc), private-data
#: (swaptions), and mixed (mix1) behaviour
BENCH_CONFIGS: Tuple[str, ...] = ("Base-2L", "D2M-FS", "D2M-NS-R")
BENCH_WORKLOADS: Tuple[str, ...] = ("tpcc", "swaptions", "mix1")
BENCH_SEED = 1

FULL_INSTRUCTIONS = 20_000
FULL_WARMUP = 10_000
FULL_REPETITIONS = 3
QUICK_INSTRUCTIONS = 4_000
QUICK_WARMUP = 2_000
QUICK_REPETITIONS = 1

#: Throughput of the pre-optimization tree on the full matrix, measured
#: interleaved (seed cell, then optimized cell) in subprocesses on the
#: reference machine, best-of-3 ``process_time`` with a warm-up run.
#: ``ips`` is (warmup + instructions) / best-time.  This is the "1.0x"
#: the first optimized BENCH report is compared against.
SEED_BASELINE: Dict[str, object] = {
    "commit": "83554fc",
    "method": "interleaved A/B, subprocess per cell, best-of-3 "
              "process_time, ips = 30000 / best",
    "ips": {
        "Base-2L/tpcc": 25893.0,
        "Base-2L/swaptions": 35883.0,
        "Base-2L/mix1": 27107.0,
        "D2M-FS/tpcc": 20486.0,
        "D2M-FS/swaptions": 30173.0,
        "D2M-FS/mix1": 22517.0,
        "D2M-NS-R/tpcc": 22343.0,
        "D2M-NS-R/swaptions": 34272.0,
        "D2M-NS-R/mix1": 30417.0,
    },
}


def result_snapshot(result: SimResult, cycles: float) -> Dict[str, object]:
    """Everything a run reports, as one JSON-comparable dict."""
    return {
        "instructions": result.instructions,
        "accesses": result.accesses,
        "stats": result.stats.flatten(),
        "buckets": {
            f"{int(instr)}|{level.value}": [b.count, b.total_latency]
            for (instr, level), b in sorted(
                result.buckets.items(),
                key=lambda kv: (kv[0][0], kv[0][1].value))
        },
        "core_instructions": {
            str(k): v for k, v in sorted(result.core_instructions.items())},
        "core_instr_miss_latency": {
            str(k): v
            for k, v in sorted(result.core_instr_miss_latency.items())},
        "core_data_miss_latency": {
            str(k): v
            for k, v in sorted(result.core_data_miss_latency.items())},
        "cycles": cycles,
    }


def _run_once(config: SystemConfig, workload_name: str, instructions: int,
              warmup: int, batched: bool = False) -> Dict[str, object]:
    """One fresh simulation; returns its :func:`result_snapshot`."""
    hierarchy = build_hierarchy(config)
    workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                             seed=BENCH_SEED)
    simulator = Simulator(hierarchy, check_values=False)
    result = simulator.run(workload, instructions, seed=BENCH_SEED,
                           warmup=warmup, batched=batched)
    perf = PerfModel(config.ooo).summarize(result)
    return result_snapshot(result, perf.cycles)


def _time_cell(config: SystemConfig, workload_name: str, instructions: int,
               warmup: int, repetitions: int) -> Dict[str, float]:
    """Batched-driver timings for one cell.

    ``cold_s`` is the first ``Simulator.run`` after the replay cache is
    emptied, so it draws and translates the stream — what a lone
    ``repro run`` and the first cell of a sweep row pay.  ``simulate_s``
    is the best of the next ``repetitions`` runs, which replay that
    stream — what the other cells of a row pay in one process.
    ``stats_s`` is flattening the counters plus the perf-model summary.
    """
    total = warmup + instructions
    forget_replays()
    simulate: List[float] = []
    best_stats = float("inf")
    for _ in range(1 + max(1, repetitions)):
        hierarchy = build_hierarchy(config)
        workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                                 seed=BENCH_SEED)
        simulator = Simulator(hierarchy, check_values=False)
        t0 = time.process_time()
        result = simulator.run(workload, instructions, seed=BENCH_SEED,
                               warmup=warmup, batched=True)
        simulate.append(time.process_time() - t0)

        t0 = time.process_time()
        result.stats.flatten()
        PerfModel(config.ooo).summarize(result)
        best_stats = min(best_stats, time.process_time() - t0)
    cold, best_simulate = simulate[0], min(simulate[1:])
    return {
        "cold_s": cold,
        "simulate_s": best_simulate,
        "stats_s": best_stats,
        "cold_ips": total / cold if cold > 0 else 0.0,
        "ips": total / best_simulate if best_simulate > 0 else 0.0,
    }


def _geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def _environment() -> Dict[str, object]:
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


def run_bench(quick: bool = False,
              check_equivalence: bool = True) -> Dict[str, object]:
    """Run the pinned matrix; returns the full report dict.

    ``report["equivalence_ok"]`` is False when any cell's batched run
    diverged from its reference-loop run.
    """
    if quick:
        instructions, warmup = QUICK_INSTRUCTIONS, QUICK_WARMUP
        repetitions = QUICK_REPETITIONS
    else:
        instructions, warmup = FULL_INSTRUCTIONS, FULL_WARMUP
        repetitions = FULL_REPETITIONS
    configs = {c.name: c for c in all_configs()}
    cells: List[Dict[str, object]] = []
    equivalence_ok = True
    for config_name in BENCH_CONFIGS:
        config = configs[config_name]
        for workload_name in BENCH_WORKLOADS:
            cell_name = f"{config_name}/{workload_name}"
            equivalent: Optional[bool] = None
            if check_equivalence:
                reference = _run_once(config, workload_name, instructions,
                                      warmup)
                batched = _run_once(config, workload_name, instructions,
                                    warmup, batched=True)
                equivalent = batched == reference
                if not equivalent:
                    equivalence_ok = False
                    print(f"bench: DIVERGENCE in {cell_name}: batched "
                          "driver does not match the reference loop",
                          file=sys.stderr)
            timing = _time_cell(config, workload_name, instructions, warmup,
                                repetitions)
            cell: Dict[str, object] = {
                "config": config_name,
                "workload": workload_name,
                "ips": round(timing["ips"], 1),
                "cold_ips": round(timing["cold_ips"], 1),
                "phases_s": {"stats": round(timing["stats_s"], 6)},
                "simulate_s": round(timing["simulate_s"], 6),
            }
            if equivalent is not None:
                cell["equivalent"] = equivalent
            cells.append(cell)
            print(f"bench: {cell_name}: {cell['ips']:.0f} instr/s "
                  f"(cold {cell['cold_ips']:.0f})"
                  + ("" if equivalent is None
                     else f" (equivalence {'ok' if equivalent else 'FAIL'})"))
    geomean_ips = _geomean(float(c["ips"]) for c in cells)
    report: Dict[str, object] = {
        "schema": 1,
        "date": time.strftime("%Y-%m-%d"),
        "mode": "quick" if quick else "full",
        "matrix": {
            "configs": list(BENCH_CONFIGS),
            "workloads": list(BENCH_WORKLOADS),
            "seed": BENCH_SEED,
            "instructions": instructions,
            "warmup": warmup,
            "repetitions": repetitions,
        },
        "env": _environment(),
        "cells": cells,
        "geomean_ips": round(geomean_ips, 1),
        "equivalence_checked": check_equivalence,
        "equivalence_ok": equivalence_ok,
    }
    # The recorded baseline only means something on the full matrix (the
    # quick mode simulates fewer instructions, so its ips skews low from
    # fixed per-run setup costs).
    if not quick:
        baseline_ips = SEED_BASELINE["ips"]
        assert isinstance(baseline_ips, dict)
        baseline_geomean = _geomean(baseline_ips.values())
        report["baseline"] = dict(SEED_BASELINE,
                                  geomean_ips=round(baseline_geomean, 1))
        if baseline_geomean > 0:
            report["speedup_vs_baseline"] = round(
                geomean_ips / baseline_geomean, 2)
    print(f"bench: geomean {geomean_ips:.0f} instr/s"
          + (f", {report['speedup_vs_baseline']}x vs seed baseline"
             if "speedup_vs_baseline" in report else ""))
    return report


def default_output_path() -> str:
    return f"BENCH_{time.strftime('%Y-%m-%d')}.json"


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(quick: bool = False, out: str = "",
         check_equivalence: bool = True) -> int:
    """Entry point of ``repro bench``.

    From a checkout without installing the package, run it as
    ``PYTHONPATH=src python -m repro bench [--quick] [--out PATH]``.
    """
    report = run_bench(quick=quick, check_equivalence=check_equivalence)
    path = out or default_output_path()
    write_report(report, path)
    print(f"bench: report written to {path}")
    return 0 if report["equivalence_ok"] else 1
