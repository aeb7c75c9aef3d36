"""The pinned matrix and the comparison form of a finished run.

Three systems (Base-2L, D2M-FS, D2M-NS-R) by three workloads (tpcc,
swaptions, mix1) at one pinned seed and pinned budgets: the matrix that
``repro verify --coverage`` simulates (:mod:`repro.verify.coverage`).
Every cell runs once through the reference loop (``Simulator.run(...,
batched=False)``) and once through the batched driver
(:mod:`repro.sim.batch`), and the two runs' :func:`result_snapshot`
must be identical — the bit-identity gate on the path every ``repro
run``, sweep and serve job takes.

Simulator speed is measured by ``perfbench`` (``BENCHMARK.json``), not
here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.simulator import SimResult

#: the pinned matrix — one representative per hierarchy family, three
#: workloads spanning instruction-heavy (tpcc), private-data
#: (swaptions), and mixed (mix1) behaviour
BENCH_CONFIGS: Tuple[str, ...] = ("Base-2L", "D2M-FS", "D2M-NS-R")
BENCH_WORKLOADS: Tuple[str, ...] = ("tpcc", "swaptions", "mix1")
BENCH_SEED = 1

QUICK_INSTRUCTIONS = 4_000
QUICK_WARMUP = 2_000


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
