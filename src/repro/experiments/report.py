"""Full per-run breakdown report (`python -m repro report full`-style).

Prints everything one simulation produced: hit-level histogram by
access side, per-structure energy, traffic by message kind, protocol
event counts, and metadata behaviour — the view you want when studying
a single workload in depth rather than regenerating a paper artifact.
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import SystemConfig, d2m_ns_r
from repro.common.types import HitLevel
from repro.experiments.tables import render_table
from repro.sim.runner import RunOutcome, run_workload


def hit_histogram(outcome: RunOutcome) -> str:
    rows = []
    result = outcome.result
    for instr, side in ((True, "I"), (False, "D")):
        total = result.count_where(instr=instr)
        for level in HitLevel:
            bucket = result.bucket(instr, level)
            if bucket.count:
                rows.append([
                    f"{side} {level.value}",
                    bucket.count,
                    f"{bucket.count / total * 100:.2f}%" if total else "-",
                    f"{bucket.mean:.1f}",
                ])
    return render_table(["side/level", "count", "share", "avg latency"],
                        rows, title="Access outcomes")


def energy_breakdown(outcome: RunOutcome) -> str:
    acct = outcome.hierarchy.energy
    rows = []
    for name, structure in sorted(acct.structures().items()):
        pj = acct.structure_pj(name)
        if pj or acct.reads_of(name):
            rows.append([
                name + (" [D2M]" if structure.d2m_only else ""),
                f"{acct.reads_of(name):.0f}",
                f"{acct.writes_of(name):.0f}",
                f"{pj / 1e6:.3f}",
            ])
    dram_pj = acct.dynamic_pj() - acct.dynamic_pj(include_dram=False)
    rows.append(["dram (off-chip)", f"{acct.dram_accesses:.0f}", "-",
                 f"{dram_pj / 1e6:.3f}"])
    rows.append(["noc", "-", "-",
                 f"{outcome.hierarchy.network.energy_pj / 1e6:.3f}"])
    return render_table(["structure", "reads", "writes", "dynamic uJ"],
                        rows, title="Energy by structure")


def traffic_breakdown(outcome: RunOutcome) -> str:
    network = outcome.hierarchy.network
    counts: Dict[str, int] = {}
    for (kind, _hops), n in network._counts.items():
        counts[kind.name] = counts.get(kind.name, 0) + n
    rows = [[name, count] for name, count
            in sorted(counts.items(), key=lambda kv: -kv[1])]
    return render_table(["message kind", "count"], rows,
                        title="Traffic by message kind")


def protocol_breakdown(outcome: RunOutcome) -> str:
    stats = outcome.hierarchy.stats
    events = stats.child("events").counters()
    rows = [[name, f"{value:.0f}"] for name, value in sorted(events.items())]
    for counter in ("md2.spills", "md2.prunes", "md3.global_evictions",
                    "reprivatizations", "invalidations_received",
                    "mem_reads_redirected", "bypass.reads",
                    "evictions.replica", "evictions.llc"):
        value = stats.get(counter)
        if value:
            rows.append([counter, f"{value:.0f}"])
    return render_table(["event / counter", "count"], rows,
                        title="Protocol events")


def hist_table(hists: Dict[str, Dict[str, float]],
               title: str = "Telemetry histograms") -> str:
    """Render histogram percentile digests (run record ``hists`` shape)."""
    rows = []
    for name in sorted(hists):
        digest = hists[name]
        rows.append([
            name,
            f"{digest.get('count', 0):.0f}",
            f"{digest.get('mean', 0.0):.1f}",
            f"{digest.get('p50', 0):.0f}",
            f"{digest.get('p90', 0):.0f}",
            f"{digest.get('p99', 0):.0f}",
            f"{digest.get('max', 0):.0f}",
        ])
    return render_table(["histogram", "count", "mean", "p50", "p90", "p99",
                         "max"], rows, title=title)


def comparison_table(report, limit: int = 0) -> str:
    """Render a ``repro.obs.compare`` :class:`ComparisonReport` as text:
    the deltas classified beyond ``ok`` (the diff view)."""
    from repro.obs.compare import NOTE, OK, REGRESSION, WARN

    order = {REGRESSION: 0, WARN: 1, NOTE: 2, OK: 3}
    shown = [d for d in report.deltas if d.severity != OK]
    shown.sort(key=lambda d: (order[d.severity], d.key))
    hidden = len(shown) - limit if limit else 0
    if limit:
        shown = shown[:limit]
    rows = []
    for delta in shown:
        rel = delta.rel_delta
        rows.append([
            delta.key,
            "-" if delta.baseline is None else f"{delta.baseline:,.4g}",
            "-" if delta.candidate is None else f"{delta.candidate:,.4g}",
            "-" if rel is None else f"{rel:+.1%}",
            delta.severity.upper() if delta.severity != OK else "ok",
            delta.note,
        ])
    if not rows:
        rows.append(["(no deltas beyond thresholds)", "", "", "", "", ""])
    title = f"Comparison: {report.baseline_label} -> {report.candidate_label}"
    table = render_table(["quantity", "baseline", "candidate", "delta",
                          "severity", "why"], rows, title=title)
    if hidden > 0:
        table += f"\n... and {hidden} more (truncated)"
    return table


def full_report(config: SystemConfig, workload: str,
                instructions: int = 0, seed: int = 1) -> RunOutcome:
    outcome = run_workload(config, workload, instructions, seed)
    print(f"=== {workload} on {config.name} "
          f"({outcome.result.instructions} instructions) ===\n")
    print(hit_histogram(outcome))
    print()
    print(energy_breakdown(outcome))
    print()
    print(traffic_breakdown(outcome))
    if config.is_d2m:
        print()
        print(protocol_breakdown(outcome))
    hists = outcome.hist_summaries()
    if hists:
        print()
        print(hist_table(hists))
    return outcome


def main(instructions: int = 0, seed: int = 1) -> None:
    full_report(d2m_ns_r(), "tpcc", instructions, seed)


if __name__ == "__main__":
    main()
