"""Every metric the benchmark reports, with unit, direction and target.

``END_TO_END`` metrics come from untraced runs (``--trace 0``) and are
what a user of the simulator waits for.  ``PER_LAYER`` metrics come from
the traced run (``--trace 1``); each names the end-to-end metric it
should move, and on which workload.  ``BENCHMARK.json`` mirrors both
tables; the self-tests keep the two in step.
"""

from __future__ import annotations

from typing import Tuple

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("sim_ips", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sweep_cold_s", "s", "lower", 0.25),
    ("sweep_warm_ms", "ms", "lower", 0.25),
    ("sweep_observed_s", "s", "lower", 0.25),
    ("sweep_checked_s", "s", "lower", 0.25),
    ("serve_hit_p50_ms", "ms", "lower", 0.25),
    ("serve_hit_p90_ms", "ms", "lower", 0.25),
    ("serve_miss_p50_ms", "ms", "lower", 0.25),
)

HIT = "sim-hit"
MISS = "sim-miss"
BOTH = "sim-hit,sim-miss"

#: (name, unit, better, end-to-end metric it should move, on workloads)
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower", "sim_ips", HIT),
    ("workloads.accesses", "count", "lower", "sim_ips", HIT),
    ("sim.driver_s", "s", "lower", "sim_ips", HIT),
    ("sim.fast_s", "s", "lower", "sim_ips", HIT),
    ("sim.fast_frac", "ratio", "higher", "sim_ips", MISS),
    ("sim.perf_s", "s", "lower", "sim_ips", BOTH),
    ("core.access.calls", "count", "lower", "sim_ips", MISS),
    ("core.access_s", "s", "lower", "sim_ips", MISS),
    ("core.md1.calls", "count", "lower", "sim_ips", MISS),
    ("core.md1_s", "s", "lower", "sim_ips", MISS),
    ("core.md2.calls", "count", "lower", "sim_ips", MISS),
    ("core.md2_s", "s", "lower", "sim_ips", MISS),
    ("core.md3.calls", "count", "lower", "sim_ips", MISS),
    ("core.md3_s", "s", "lower", "sim_ips", MISS),
    ("core.llc.calls", "count", "lower", "sim_ips", MISS),
    ("core.llc_s", "s", "lower", "sim_ips", MISS),
    ("baseline.access.calls", "count", "lower", "sim_ips", MISS),
    ("baseline.access_s", "s", "lower", "sim_ips", MISS),
    ("baseline.directory.calls", "count", "lower", "sim_ips", MISS),
    ("noc.send.calls", "count", "lower", "sim_ips", MISS),
    ("noc.send_s", "s", "lower", "sim_ips", MISS),
    ("energy.charge.calls", "count", "lower", "sim_ips", MISS),
    ("energy.charge_s", "s", "lower", "sim_ips", MISS),
    ("mem.tlb.calls", "count", "lower", "sim_ips", MISS),
    ("mem.dram.calls", "count", "lower", "sim_ips", MISS),
    ("mem.dram_s", "s", "lower", "sim_ips", MISS),
    ("stats.add.calls", "count", "lower", "sim_ips", MISS),
    ("model.cycles", "cycles", "lower", "none", BOTH),
    ("model.md1_hits", "count", "higher", "none", BOTH),
    ("model.md2_hits", "count", "higher", "none", BOTH),
    ("model.md3_events", "count", "lower", "none", BOTH),
    ("model.noc_msgs", "count", "lower", "none", BOTH),
    ("model.dram_accesses", "count", "lower", "none", BOTH),
    ("experiments.plan_cold_s", "s", "lower", "setup_s", BOTH),
    ("experiments.plan_warm_s", "s", "lower", "sweep_warm_ms", BOTH),
    ("experiments.record_load_s", "s", "lower", "sweep_warm_ms", BOTH),
    ("experiments.record_bytes", "bytes", "lower", "sweep_warm_ms", BOTH),
    ("experiments.execute_s", "s", "lower", "sweep_cold_s", BOTH),
    ("obs.hist.overhead_s", "s", "lower", "sweep_cold_s", BOTH),
    ("obs.timeline.overhead_s", "s", "lower", "sweep_observed_s", BOTH),
    ("obs.profile.overhead_s", "s", "lower", "sweep_observed_s", BOTH),
    ("analysis.sanitize.overhead_s", "s", "lower", "sweep_checked_s", BOTH),
    ("analysis.invariants_s", "s", "lower", "sweep_checked_s", BOTH),
    ("serve.post_ms", "ms", "lower", "serve_hit_p50_ms", BOTH),
    ("serve.poll_ms", "ms", "lower", "serve_hit_p50_ms", BOTH),
    ("serve.record_ms", "ms", "lower", "serve_hit_p50_ms", BOTH),
    ("serve.revalidate_ms", "ms", "lower", "serve_hit_p50_ms", BOTH),
    ("serve.polls_per_job", "count", "lower", "serve_hit_p50_ms", BOTH),
    ("serve.sims_per_unique_cell", "ratio", "lower", "serve_miss_p50_ms",
     BOTH),
    ("trace.overhead_frac", "ratio", "lower", "none", BOTH),
    ("trace.unattributed_frac", "ratio", "lower", "none", BOTH),
)

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}
