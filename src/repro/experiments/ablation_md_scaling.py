"""Footnote-5 ablation: scaling the metadata stores 1x / 2x / 4x.

The paper scales MD1/MD2/MD3 from (128, 4k, 16k) regions and finds the
average speedup moves from 8.5 % to 9.5 % while direct NS-LLC accesses
(MD1 + NS-LLC hits) grow from 78 % to 86 % — i.e. the design is already
near its ceiling at 1x.
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import base_2l, d2m_ns_r
from repro.experiments.records import record_from_outcome
from repro.experiments.tables import render_table
from repro.sim.runner import run_workload
from repro.workloads.registry import get_spec

#: representative slice of the sweep (one per suite) to keep the
#: ablation affordable
DEFAULT_WORKLOADS = ("bodytrack", "lu", "amazon", "mix2", "tpcc")


def run(instructions: int = 0, seed: int = 1) -> Dict[int, Dict[str, float]]:
    workloads = DEFAULT_WORKLOADS
    baseline_cycles = {}
    for workload in workloads:
        outcome = run_workload(base_2l(), workload, instructions, seed)
        baseline_cycles[workload] = outcome.perf.cycles

    out: Dict[int, Dict[str, float]] = {}
    for factor in (1, 2, 4):
        config = d2m_ns_r().with_md_scale(factor) if factor > 1 else d2m_ns_r()
        speedups, direct = [], []
        for workload in workloads:
            outcome = run_workload(config, workload, instructions, seed)
            rec = record_from_outcome(outcome, get_spec(workload).category)
            speedups.append(baseline_cycles[workload] / rec.cycles)
            direct.append(rec.direct_ns_fraction)
        out[factor] = {
            "speedup": sum(speedups) / len(speedups),
            "direct_fraction": sum(direct) / len(direct),
        }
    return out


def main(instructions: int = 0, seed: int = 1) -> Dict[int, Dict[str, float]]:
    results = run(instructions, seed)
    rows = [
        [f"{factor}x",
         f"{(r['speedup'] - 1) * 100:+.1f}%",
         f"{r['direct_fraction'] * 100:.0f}%"]
        for factor, r in results.items()
    ]
    print(render_table(
        ["MD scale", "avg speedup vs Base-2L", "direct (MD1-hit) accesses"],
        rows,
        title="Footnote-5 ablation - metadata store scaling on D2M-NS-R",
    ))
    print("\n  paper: +8.5% -> +9.5% speedup, 78% -> 86% direct accesses")
    return results


if __name__ == "__main__":
    main()
