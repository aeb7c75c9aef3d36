"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available systems and workloads.
* ``run`` — simulate one (system, workload) pair and print its summary.
* ``report`` — regenerate a paper artifact (fig5/fig6/fig7/table4/...).
* ``sweep`` — populate the shared run matrix cache up front (with live
  progress and a machine-readable ``progress.jsonl``).
* ``trace`` — capture one run's protocol event stream and export it as
  JSONL or Chrome ``trace_event`` JSON (Perfetto-viewable); ``--job``
  instead exports a served job's request-lifecycle spans from the
  daemon's span log.
* ``timeline`` — view a cached run's epoch time-series (``--timeline``
  sampling) as terminal sparklines, JSON, or a standalone HTML page;
  ``--job`` shows a served job's per-cell series including live
  in-flight epoch streams.
* ``bench`` — time the simulator itself over a pinned matrix and emit
  a ``BENCH_<date>.json`` perf-tracking report.
* ``compare`` — diff two bench reports, run records, or sweep matrices
  (the regression sentinel: exit 3 beyond threshold; ``--baseline auto``
  resolves the newest committed ``BENCH_*.json``).
* ``dashboard`` — render the sweep matrix, histogram digests, and
  comparison views into one self-contained static HTML file.
* ``serve`` — run the sweep-as-a-service HTTP daemon: submit run
  matrices over HTTP, drain them through a persistent job queue with
  request coalescing, and serve cached records (ETag/304) plus a live
  dashboard (see ``docs/SERVING.md``).
* ``verify`` — reconcile both coherence protocols against their
  declarative specs (AST extraction), optionally model-check small
  configurations exhaustively and gate on runtime transition coverage.

``repro --log-json FILE`` (or ``REPRO_LOG=FILE``) adds structured JSONL
run logging to any command; ``-`` logs to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.params import SystemConfig, all_configs
from repro.experiments.records import RunRecord
from repro.obs import runlog
from repro.obs.profile import profile_text
from repro.sim.runner import run_workload
from repro.workloads.registry import get_spec, workloads_by_category

#: artifact name -> experiment module (lazily imported)
ARTIFACTS = {
    "fig5": "fig5_traffic",
    "fig6": "fig6_edp",
    "fig7": "fig7_speedup",
    "table4": "table4_hit_ratios",
    "table5": "table5_invalidations",
    "appendix": "appendix_pkmo",
    "coverage": "md1_coverage",
    "tables": "structural_tables",
    "ablation-md": "ablation_md_scaling",
    "ablation-indexing": "ablation_indexing",
    "ablation-bypass": "ablation_bypass",
    "sensitivity-nodes": "sensitivity_nodes",
    "full": "report",
}


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return repro.__version__


def _configs_by_cli_name() -> Dict[str, SystemConfig]:
    return {config.name.lower(): config for config in all_configs()}


def _resolve_config(name: str) -> Optional[SystemConfig]:
    configs = _configs_by_cli_name()
    config = configs.get(name.lower())
    if config is None:
        print(f"unknown system {name!r}; pick from "
              f"{sorted(configs)}", file=sys.stderr)
    return config


def _resolve_cell(args: argparse.Namespace) -> Optional[SystemConfig]:
    """``--config``'s system when ``--workload`` names a workload too;
    otherwise None, after printing why."""
    config = _resolve_config(args.config)
    if config is None:
        return None
    try:
        get_spec(args.workload)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return None
    return config


def _cached_record(args: argparse.Namespace, config: SystemConfig,
                   extra: str) -> Optional[RunRecord]:
    """The cached record of ``args``' cell on ``config`` that carries
    ``extra`` (``"hist"`` or ``"timeline"``), looked up as a sweep
    would (:func:`~repro.experiments.runner.plan_matrix`); None after
    printing the sweep command that fills the cell."""
    from repro.experiments.runner import plan_matrix

    plan = plan_matrix([args.workload], [config], args.instructions,
                       args.seed, fresh=False, telemetry=extra == "hist",
                       timeline=int(extra == "timeline"))  # any epoch serves
    if not plan.pending:
        return plan.matrix[args.workload][config.name]
    flag = " --timeline" if extra == "timeline" else ""
    print(f"no cached run record with {extra} data for {args.workload} on "
          f"{config.name} (instructions={plan.instructions}, "
          f"seed={args.seed}); run `repro sweep --workloads "
          f"{args.workload} --instructions {plan.instructions} "
          f"--seed {args.seed}{flag}` first", file=sys.stderr)
    return None


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    print("systems:")
    for config in all_configs():
        print(f"  {config.name}")
    print("\nworkloads:")
    for category, names in workloads_by_category().items():
        print(f"  {category}: {', '.join(names)}")
    print("\nartifacts:", ", ".join(sorted(ARTIFACTS)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_cell(args)
    if config is None:
        return 2
    outcome = run_workload(config, args.workload,
                           instructions=args.instructions, seed=args.seed,
                           check_values=args.check,
                           sanitize=args.sanitize,
                           sanitize_every=args.sanitize_every,
                           check_invariants=args.check_invariants,
                           telemetry=args.hist,
                           profile=args.profile_attrib,
                           timeline=_timeline_epoch(args))
    result = outcome.result
    print(f"{args.workload} on {config.name} "
          f"({result.instructions} instructions)")
    rows = [
        ("cycles", f"{outcome.perf.cycles:,.0f}"),
        ("CPI", f"{outcome.perf.cpi:.2f}"),
        ("L1-I miss ratio", f"{result.miss_ratio(True):.2%}"),
        ("L1-D miss ratio", f"{result.miss_ratio(False):.2%}"),
        ("avg L1-miss latency", f"{outcome.avg_l1_miss_latency:.1f} cyc"),
        ("NoC messages / KI", f"{outcome.msgs_per_ki:.1f}"),
        ("  of which D2M-only", f"{outcome.d2m_msgs_per_ki:.1f}"),
        ("cache energy", f"{outcome.cache_energy_pj / 1e6:.2f} uJ"),
        ("EDP", f"{outcome.edp:.3e} pJ*cyc"),
    ]
    if config.is_d2m:
        rows.append(("private misses",
                     f"{outcome.private_miss_fraction:.0%}"))
        rows.append(("NS hits I/D",
                     f"{result.ns_hit_ratio(True):.0%} / "
                     f"{result.ns_hit_ratio(False):.0%}"))
    if outcome.sanitized:
        rows.append(("sanitizer", "clean"))
    if outcome.spec.check_invariants:
        rows.append(("final invariants",
                     "ok" if outcome.invariants_ok else "VIOLATED"))
    for label, value in rows:
        print(f"  {label:22s}{value}")
    hists = outcome.hist_summaries()
    if args.hist and hists:
        from repro.experiments.report import hist_table

        print()
        print(hist_table(hists))
    if args.profile_attrib:
        print()
        print(profile_text(outcome.profile_summary()))
    if args.timeline:
        from repro.obs.timeline import timeline_text

        print()
        print(timeline_text(outcome.timeline_summary()))
    if not outcome.invariants_ok:
        print(outcome.invariant_error, file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.hist:
        return _report_hist(args)
    if not args.artifact:
        print("report: an artifact name (or --hist) is required; pick from "
              f"{sorted(ARTIFACTS)}", file=sys.stderr)
        return 2
    module_name = ARTIFACTS.get(args.artifact)
    if module_name is None:
        print(f"unknown artifact {args.artifact!r}; pick from "
              f"{sorted(ARTIFACTS)}", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def _report_hist(args: argparse.Namespace) -> int:
    """``repro report --hist``: histogram digests from the run cache."""
    config = _resolve_cell(args)
    if config is None:
        return 2
    record = _cached_record(args, config, "hist")
    if record is None:
        return 2
    from repro.experiments.report import hist_table

    print(hist_table(record.hists,
                     title=f"Telemetry histograms: {args.workload} on "
                           f"{config.name}"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.job:
        return _trace_job(args)
    config = _resolve_cell(args)
    if config is None:
        return 2
    from repro.analysis.events import EventRing
    from repro.obs.trace import write_chrome, write_jsonl

    recorder = EventRing(window=args.window)
    instructions = args.instructions
    if args.quick and not instructions:
        instructions = 4000
    outcome = run_workload(config, args.workload, instructions=instructions,
                           seed=args.seed, observers=[recorder])
    extension = "jsonl" if args.format == "jsonl" else "json"
    path = args.out or (f"trace_{config.name.lower()}_{args.workload}"
                        f".{extension}")
    with open(path, "w", encoding="utf-8") as handle:
        if args.format == "chrome":
            count = write_chrome(recorder, handle)
        else:
            count = write_jsonl(recorder, handle)
    if recorder.recorded == 0:
        print(f"note: {config.name} has no protocol tracer hooks "
              f"(baseline); the trace is empty", file=sys.stderr)
    print(f"{args.workload} on {config.name}: "
          f"{outcome.result.instructions} instructions, "
          f"{recorder.recorded} events recorded "
          f"({count} exported, format {args.format}) -> {path}")
    return 0


def _trace_job(args: argparse.Namespace) -> int:
    """``repro trace --job``: export a served job's lifecycle spans."""
    import json
    from pathlib import Path

    from repro.experiments.runner import cache_dir
    from repro.obs.trace import chrome_span_events
    from repro.serve.telemetry import load_spans

    root = Path(args.serve_cache) if args.serve_cache else cache_dir()
    spans_dir = root / "queue" / "spans"
    spans = load_spans(spans_dir, args.job)
    if not spans:
        print(f"no spans recorded for job {args.job!r} under {spans_dir}",
              file=sys.stderr)
        return 2
    # Job-derived default so exporting several traces into one directory
    # (CI artifacts) never clobbers an earlier file.
    path = args.out or f"trace_job_{args.job}.json"
    events = chrome_span_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)
    traces = sorted({str(span.get("trace", "")) for span in spans} - {""})
    print(f"job {args.job}: {len(spans)} span(s)"
          + (f", trace {', '.join(traces)}" if traces else "")
          + f" -> {path}")
    return 0


def _timeline_epoch(args: argparse.Namespace) -> int:
    """Resolve ``--timeline [--epoch N]`` into an epoch length (0 = off)."""
    if not getattr(args, "timeline", False):
        return 0
    if args.epoch:
        return args.epoch
    from repro.obs.timeline import DEFAULT_EPOCH

    return DEFAULT_EPOCH


def _cmd_timeline(args: argparse.Namespace) -> int:
    """``repro timeline``: view a cached run's epoch time-series."""
    import json
    from pathlib import Path

    from repro.obs.timeline import (
        rebucket_timeline,
        timeline_text,
        validate_timeline,
    )

    if args.job:
        return _timeline_job(args)
    if args.record:
        path = Path(args.record)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"timeline: {path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict):
            print(f"timeline: {path}: not a JSON object", file=sys.stderr)
            return 2
        # Accept both a full run record and a bare timeline summary.
        timeline = (payload if "series" in payload
                    else payload.get("timeline", {}))
        title = path.name
    else:
        config = _resolve_cell(args)
        if config is None:
            return 2
        record = _cached_record(args, config, "timeline")
        if record is None:
            return 2
        timeline = record.timeline
        title = f"{args.workload} on {config.name}"
    if not isinstance(timeline, dict) or not timeline:
        print("timeline: the record carries no epoch series; resimulate "
              "with `repro sweep --timeline`", file=sys.stderr)
        return 2
    problems = validate_timeline(timeline)
    if problems:
        for problem in problems:
            print(f"timeline: schema: {problem}", file=sys.stderr)
        return 2
    if args.epoch:
        timeline = rebucket_timeline(timeline, args.epoch)
    if args.format == "json":
        text = json.dumps(timeline, indent=2) + "\n"
    elif args.format == "html":
        from repro.obs.render import timeline_page

        text = timeline_page(timeline, title=f"timeline: {title}")
    else:
        text = timeline_text(timeline) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"timeline ({args.format}) -> {args.out}")
    else:
        print(text, end="")
    return 0


def _timeline_job(args: argparse.Namespace) -> int:
    """``repro timeline --job``: a served job's per-cell epoch series."""
    import json
    from pathlib import Path

    from repro.experiments.runner import cache_dir
    from repro.obs.timeline import rebucket_timeline, timeline_text
    from repro.serve.handlers import timeline_payload
    from repro.serve.queue import read_job

    if args.format == "html":
        print("timeline: --format html renders one record; use text or "
              "json with --job", file=sys.stderr)
        return 2
    root = Path(args.serve_cache) if args.serve_cache else cache_dir()
    job = read_job(root / "queue", args.job)
    if job is None:
        print(f"no such job {args.job!r} under {root}", file=sys.stderr)
        return 2
    payload = timeline_payload(
        job, root / "runs",
        heartbeat_dir=root / "queue" / f"hb-{args.job}")
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"job {job.id} ({job.state})"]
        for cell in payload["cells"]:
            lines.append(f"{cell['workload']} on {cell['config']} "
                         f"[{cell['state']}]")
            timeline = cell.get("timeline")
            if timeline:
                if args.epoch:
                    timeline = rebucket_timeline(timeline, args.epoch)
                lines.append(timeline_text(timeline))
            else:
                lines.append("  (no timeline in the cached record)")
        for stream in payload["live"]:
            lines.append(f"live {stream['stream']}: "
                         f"{len(stream['epochs'])} recent epoch(s)")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"timeline ({args.format}) -> {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import reap_orphan_tmp

    reap_orphan_tmp()  # clear crash litter before adding our own writes
    matrix, code = _sweep_matrix(args, sanitize=args.sanitize,
                                 sanitize_every=args.sanitize_every,
                                 check_invariants=args.check_invariants,
                                 profile=args.profile_attrib)
    if matrix is None:
        return code
    print(f"matrix ready: {len(matrix)} workloads x "
          f"{len(next(iter(matrix.values())))} systems")
    broken = [(workload, name) for workload, row in matrix.items()
              for name, record in row.items()
              if record.invariants_checked and not record.invariants_ok]
    if broken:
        for workload, name in broken:
            record = matrix[workload][name]
            print(f"invariant violation: {workload} on {name}: "
                  f"{record.invariant_error}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.history:
        try:
            from tools.bench_history import main as history_main
        except ImportError:
            print("bench --history needs the repository checkout "
                  "(tools/bench_history.py importable from the working "
                  "directory)", file=sys.stderr)
            return 2
        return history_main([])
    from repro.sim.bench import main as bench_main

    return bench_main(quick=args.quick, out=args.out,
                      check_equivalence=not args.no_equivalence,
                      baseline=args.baseline)


def _parse_workloads_arg(raw: str) -> Optional[list]:
    """Validated comma-separated workload subset (None = all)."""
    if not raw:
        return None
    workloads = [w.strip() for w in raw.split(",") if w.strip()]
    for name in workloads:
        get_spec(name)  # KeyError on typos, caught by callers
    return workloads


def _sweep_matrix(args: argparse.Namespace, **settings: object
                  ) -> Tuple[Optional[Dict[str, Dict[str, RunRecord]]], int]:
    """The run matrix of a command's ``--workloads``, ``--instructions``,
    ``--seed``, ``--jobs`` and ``--timeline`` flags plus the run
    ``settings``: ``(matrix, 0)``, or ``(None, exit code)`` after
    printing why."""
    from repro.experiments.runner import SweepError, get_matrix

    try:
        workloads = _parse_workloads_arg(args.workloads)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return None, 2
    try:
        matrix = get_matrix(workloads=workloads,
                            instructions=args.instructions, seed=args.seed,
                            jobs=args.jobs or None,
                            timeline=_timeline_epoch(args),
                            **settings)
    except SweepError as exc:
        print(exc, file=sys.stderr)
        return None, 1
    if not matrix:
        print("empty sweep: no workloads selected", file=sys.stderr)
        return None, 2
    return matrix, 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """The regression sentinel: diff a candidate against a baseline."""
    import json
    from pathlib import Path

    from repro.experiments.report import comparison_table
    from repro.obs import compare as cmp

    thresholds = cmp.thresholds_from_percent(args.ips_threshold,
                                             args.metric_threshold)
    if args.candidate:
        cand_path = Path(args.candidate)
    else:
        found = cmp.newest_bench_path()
        if found is None:
            print("compare: no candidate given and no BENCH_*.json in the "
                  "current directory", file=sys.stderr)
            return 2
        cand_path = found
    try:
        candidate = cmp.load_payload(cand_path)
    except cmp.CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2

    if args.baseline == "auto":
        resolved = cmp.resolve_auto_baseline()
        if resolved is None:
            print("compare: --baseline auto found no committed (or on-disk) "
                  "BENCH_*.json", file=sys.stderr)
            return 2
        base_label, baseline = resolved
    else:
        base_path = Path(args.baseline)
        try:
            baseline = cmp.load_payload(base_path)
        except cmp.CompareError as exc:
            print(f"compare: {exc}", file=sys.stderr)
            return 2
        base_label = str(base_path)

    try:
        report = cmp.compare_payloads(baseline, candidate, thresholds,
                                      baseline_label=base_label,
                                      candidate_label=str(cand_path))
    except cmp.CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2

    # Bench comparisons print the full per-cell table; record/matrix
    # comparisons only the deltas that cleared a threshold.
    include_ok = report.kind == "bench"
    print(comparison_table(report, include_ok=include_ok,
                           limit=0 if include_ok else 60))
    for note in report.notes:
        print(f"note: {note}")
    print(report.summary_line())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"report JSON -> {args.json_out}")
    return report.exit_code()


def _cmd_verify(args: argparse.Namespace) -> int:
    """Static protocol verification (spec reconcile, model, coverage)."""
    from repro.verify.report import run_verification, write_json

    report = run_verification(model_check=args.model_check,
                              coverage=args.coverage)
    print(report.render())
    if args.json_out:
        write_json(report, args.json_out)
        print(f"report JSON -> {args.json_out}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-as-a-service daemon (see docs/SERVING.md)."""
    if args.cache_dir:
        # The outermost default for every cache consumer in this
        # process and its simulation workers.
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    from repro.serve.app import serve_forever

    return serve_forever(host=args.host, port=args.port,
                         workers=args.workers,
                         job_concurrency=args.job_concurrency,
                         metrics_out=args.metrics_out)


def _cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the static HTML observability dashboard."""
    from repro.obs import compare as cmp
    from repro.obs.render import render_dashboard

    focus_config = _resolve_config(args.config)
    against = _resolve_config(args.against)
    if focus_config is None or against is None:
        return 2
    matrix, code = _sweep_matrix(args)
    if matrix is None:
        return code

    focus_wl = args.workload or sorted(matrix)[0]
    if focus_wl not in matrix:
        print(f"focus workload {focus_wl!r} is not in the sweep "
              f"({sorted(matrix)})", file=sys.stderr)
        return 2

    comparisons = []
    row = matrix[focus_wl]
    base_rec = row.get(against.name)
    cand_rec = row.get(focus_config.name)
    if base_rec is not None and cand_rec is not None \
            and against.name != focus_config.name:
        side_by_side = cmp.compare_records(
            base_rec, cand_rec, informational=True,
            baseline_label=f"{focus_wl} on {against.name}",
            candidate_label=f"{focus_wl} on {focus_config.name}")
        comparisons.append((f"Side by side: {against.name} vs "
                            f"{focus_config.name} ({focus_wl})",
                            side_by_side))
    if args.bench:
        from pathlib import Path

        bench_path = (cmp.newest_bench_path() if args.bench == "auto"
                      else Path(args.bench))
        resolved = cmp.resolve_auto_baseline()
        if bench_path is not None and resolved is not None:
            base_label, bench_baseline = resolved
            try:
                bench_candidate = cmp.load_payload(bench_path)
            except cmp.CompareError as exc:
                print(f"dashboard: --bench: {exc}", file=sys.stderr)
                return 2
            comparisons.append((
                "Bench vs committed baseline",
                cmp.compare_bench(bench_baseline, bench_candidate,  # type: ignore[arg-type]
                                  baseline_label=base_label,
                                  candidate_label=str(bench_path))))
        else:
            print("dashboard: --bench: no bench report/baseline found; "
                  "section skipped", file=sys.stderr)

    html = render_dashboard(matrix, focus=(focus_wl, focus_config.name),
                            comparisons=comparisons,
                            baseline_config=against.name,
                            subtitle=f"seed {args.seed}, instruction budget "
                                     f"{args.instructions or 'default'}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"dashboard: {len(matrix)} workload(s) x {len(row)} system(s), "
          f"{len(comparisons)} comparison view(s) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D2M split cache hierarchy (HPCA 2017) reproduction",
        epilog=f"repro version {_version()}",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {_version()}")
    parser.add_argument("--log-json", default="", metavar="DEST",
                        help="append structured JSONL run logs to DEST "
                             "('-' = stderr; REPRO_LOG is the env "
                             "equivalent)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available systems/workloads/artifacts")

    run_p = sub.add_parser("run", help="simulate one system x workload")
    run_p.add_argument("--config", default="d2m-ns-r",
                       help="system name (e.g. base-2l, d2m-ns-r)")
    run_p.add_argument("--workload", default="tpcc")
    run_p.add_argument("--instructions", type=int, default=0,
                       help="0 = REPRO_INSTRUCTIONS or the default budget")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--check", action="store_true",
                       help="enable the sequential value oracle (slower)")
    run_p.add_argument("--hist", action="store_true",
                       help="collect histogram telemetry and print the "
                            "percentile digests")
    _add_profile_flag(run_p)
    _add_timeline_flags(run_p)
    _add_checking_flags(run_p)

    report_p = sub.add_parser("report", help="regenerate a paper artifact")
    report_p.add_argument("artifact", nargs="?", default="",
                          help=f"one of {sorted(ARTIFACTS)}")
    report_p.add_argument("--hist", action="store_true",
                          help="print the cached run record's histogram "
                               "digests instead of an artifact")
    report_p.add_argument("--config", default="d2m-ns-r",
                          help="(with --hist) system name")
    report_p.add_argument("--workload", default="tpcc",
                          help="(with --hist) workload name")
    report_p.add_argument("--instructions", type=int, default=0,
                          help="(with --hist) run key instruction budget")
    report_p.add_argument("--seed", type=int, default=1,
                          help="(with --hist) run key seed")

    trace_p = sub.add_parser(
        "trace",
        help="capture one run's protocol events (JSONL or Chrome JSON)")
    trace_p.add_argument("--config", default="d2m-ns-r",
                         help="system name (baselines emit no events)")
    trace_p.add_argument("--workload", default="tpcc")
    trace_p.add_argument("--format", choices=("jsonl", "chrome"),
                         default="jsonl",
                         help="jsonl: one event per line; chrome: "
                              "trace_event JSON for Perfetto")
    trace_p.add_argument("--window", type=int, default=0, metavar="N",
                         help="keep only the last N events (0 = all)")
    trace_p.add_argument("--out", default="",
                         help="output path (default "
                              "trace_<config>_<workload>.<ext>)")
    trace_p.add_argument("--instructions", type=int, default=0,
                         help="0 = REPRO_INSTRUCTIONS or the default budget")
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--quick", action="store_true",
                         help="small fixed budget (CI smoke mode)")
    trace_p.add_argument("--job", default="", metavar="ID",
                         help="export a served job's request-lifecycle "
                              "spans from the daemon span log instead of "
                              "simulating (default --out "
                              "trace_job_<ID>.json)")
    trace_p.add_argument("--serve-cache", default="", metavar="DIR",
                         help="(with --job) serve cache root holding "
                              "queue/spans/ (default REPRO_CACHE_DIR or "
                              "./.repro_cache)")

    sweep_p = sub.add_parser("sweep", help="populate the run-matrix cache")
    sweep_p.add_argument("--workloads", default="",
                         help="comma-separated subset (default: all)")
    sweep_p.add_argument("--instructions", type=int, default=0)
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--jobs", type=int, default=0,
                         help="parallel workers (0 = REPRO_JOBS or CPU "
                              "count; 1 = serial in-process)")
    _add_profile_flag(sweep_p)
    _add_timeline_flags(sweep_p)
    _add_checking_flags(sweep_p)

    bench_p = sub.add_parser(
        "bench",
        help="benchmark the simulator over a pinned matrix "
             "(emits BENCH_<date>.json)")
    bench_p.add_argument("--quick", action="store_true",
                         help="smaller instruction budget, single "
                              "repetition (CI smoke mode)")
    bench_p.add_argument("--out", default="",
                         help="output JSON path (default BENCH_<date>.json "
                              "in the current directory)")
    bench_p.add_argument("--no-equivalence", action="store_true",
                         help="skip the batched-vs-reference stats "
                              "equivalence gate (timing only)")
    bench_p.add_argument("--baseline", default="", metavar="FILE|auto",
                         help="after benching, diff the fresh report "
                              "against this baseline (exit 3 on "
                              "regression)")
    bench_p.add_argument("--history", action="store_true",
                         help="print the longitudinal trend table over "
                              "every BENCH_*.json here instead of "
                              "benching (tools/bench_history.py)")

    compare_p = sub.add_parser(
        "compare",
        help="diff a candidate bench report / run record / sweep matrix "
             "against a baseline (exit 3 on regression)")
    compare_p.add_argument("candidate", nargs="?", default="",
                           help="candidate payload: a BENCH_*.json, a run "
                                "record JSON, or a run-record directory "
                                "(default: newest BENCH_*.json here)")
    compare_p.add_argument("--baseline", default="auto", metavar="FILE|auto",
                           help="baseline payload; 'auto' = newest "
                                "committed BENCH_*.json (content at HEAD)")
    compare_p.add_argument("--ips-threshold", type=float, default=10.0,
                           metavar="PCT",
                           help="bench ips drop that regresses "
                                "(default 10%%; warns at half)")
    compare_p.add_argument("--metric-threshold", type=float, default=20.0,
                           metavar="PCT",
                           help="scalar-metric drift that regresses "
                                "(default 20%%; warns at a quarter)")
    compare_p.add_argument("--json-out", default="", metavar="PATH",
                           help="also write the full ComparisonReport JSON")

    verify_p = sub.add_parser(
        "verify",
        help="verify the protocols against their declarative specs "
             "(AST reconcile; optional model check and coverage)")
    verify_p.add_argument("--model-check", action="store_true",
                          help="exhaustively explore small configs of "
                               "both protocol models (SWMR, data values, "
                               "MD inclusion, stuck-freedom)")
    verify_p.add_argument("--coverage", action="store_true",
                          help="run the pinned bench matrix + probes and "
                               "gate on never-exercised spec transitions")
    verify_p.add_argument("--json-out", default="", metavar="PATH",
                          help="also write the full verification report "
                               "JSON")

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep-as-a-service HTTP daemon over the run cache")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="bind port (default 8765; 0 = ephemeral)")
    serve_p.add_argument("--workers", type=int, default=0,
                         help="simulation processes per job "
                              "(0 = REPRO_JOBS or CPU count)")
    serve_p.add_argument("--job-concurrency", type=int, default=2,
                         help="jobs drained concurrently (default 2)")
    serve_p.add_argument("--cache-dir", default="",
                         help="run cache root (default REPRO_CACHE_DIR "
                              "or ./.repro_cache)")
    serve_p.add_argument("--metrics-out", default="", metavar="PATH",
                         help="also write the Prometheus exposition text "
                              "to PATH every few seconds (atomic "
                              "replace)")

    dash_p = sub.add_parser(
        "dashboard",
        help="render sweep + telemetry + comparisons into static HTML")
    dash_p.add_argument("--out", default="dash.html",
                        help="output HTML path (default dash.html)")
    dash_p.add_argument("--workloads", default="",
                        help="comma-separated sweep subset (default: all)")
    dash_p.add_argument("--workload", default="",
                        help="focus cell workload (default: first in sweep)")
    dash_p.add_argument("--config", default="d2m-ns-r",
                        help="focus cell system (histogram panels)")
    dash_p.add_argument("--against", default="base-2l",
                        help="comparison baseline system (heatmap + side "
                             "by side)")
    dash_p.add_argument("--instructions", type=int, default=0)
    dash_p.add_argument("--seed", type=int, default=1)
    dash_p.add_argument("--jobs", type=int, default=0,
                        help="parallel sweep workers (0 = REPRO_JOBS/CPUs)")
    dash_p.add_argument("--bench", default="", metavar="FILE|auto",
                        help="also include a bench-vs-committed-baseline "
                             "comparison section")
    _add_timeline_flags(dash_p)

    timeline_p = sub.add_parser(
        "timeline",
        help="view a cached run's epoch time-series (text/json/html)")
    timeline_p.add_argument("record", nargs="?", default="",
                            help="a run-record JSON path (or bare timeline "
                                 "JSON); default: look up the run cache by "
                                 "--config/--workload")
    timeline_p.add_argument("--config", default="d2m-ns-r",
                            help="(cache lookup) system name")
    timeline_p.add_argument("--workload", default="tpcc",
                            help="(cache lookup) workload name")
    timeline_p.add_argument("--instructions", type=int, default=0,
                            help="(cache lookup) run key instruction "
                                 "budget")
    timeline_p.add_argument("--seed", type=int, default=1,
                            help="(cache lookup) run key seed")
    timeline_p.add_argument("--epoch", type=int, default=0, metavar="N",
                            help="coarsen the display so each epoch covers "
                                 ">= N accesses (merges stored epochs; "
                                 "display only)")
    timeline_p.add_argument("--format", choices=("text", "json", "html"),
                            default="text",
                            help="text: terminal sparklines; json: the "
                                 "summary document; html: a standalone "
                                 "panel page")
    timeline_p.add_argument("--out", default="",
                            help="write to a file instead of stdout")
    timeline_p.add_argument("--job", default="", metavar="ID",
                            help="show a served job's per-cell series "
                                 "(cached records + live tl-*.jsonl "
                                 "tails) instead of one record")
    timeline_p.add_argument("--serve-cache", default="", metavar="DIR",
                            help="(with --job) serve cache root (default "
                                 "REPRO_CACHE_DIR or ./.repro_cache)")

    return parser


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile-attrib", action="store_true",
                        help="attribute batched-driver slow-tail wall "
                             "time to verify-spec transition classes "
                             "(stats stay bit-identical)")


def _add_timeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeline", action="store_true",
                        help="sample an epoch time-series of interval "
                             "stat deltas alongside the run (stats stay "
                             "bit-identical; view with repro timeline)")
    parser.add_argument("--epoch", type=int, default=0, metavar="N",
                        help="with --timeline, accesses per epoch "
                             "(default 4096)")


def _add_checking_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the coherence sanitizer (incremental "
                             "invariant checks after every access)")
    parser.add_argument("--sanitize-every", type=int, default=0,
                        metavar="K",
                        help="with --sanitize, also run a whole-machine "
                             "invariant walk every K accesses (0 = off)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run a full invariant walk on the final "
                             "machine state, recording pass/fail")


_HANDLERS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _cmd_list,
    "run": _cmd_run,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "timeline": _cmd_timeline,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
    "dashboard": _cmd_dashboard,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_json:
        runlog.configure(args.log_json)
    runlog.emit("cli.start", command=args.command, version=_version())
    try:
        exit_code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a buffered tail fails here, not at exit
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head``).  Point
        # stdout at devnull so the interpreter's final flush cannot
        # raise again, and exit non-zero (the recipe in Python's
        # ``signal`` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    runlog.emit("cli.end", command=args.command, exit_code=exit_code)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
