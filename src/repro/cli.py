"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available systems and workloads.
* ``run`` — select one (system, workload) cell, by flags, a served
  ``--job`` or a run-record JSON path, and print each ``--view`` of it:
  ``summary`` (default), ``hist``, ``profile`` and ``timeline`` render
  from the cell's run record (cached, or simulated once and cached on a
  miss); ``trace`` captures a live run's protocol event stream as JSONL
  or Chrome ``trace_event`` JSON (Perfetto-viewable).
* ``report`` — regenerate a paper artifact (fig5/fig6/fig7/table4/...).
* ``sweep`` — populate the shared run matrix cache up front (with live
  progress and a machine-readable ``progress.jsonl``).
* ``compare`` — diff two run records or sweep matrices (exit 3 beyond
  threshold).
* ``dashboard`` — render the sweep matrix, histogram digests, and
  comparison views into one self-contained static HTML file.
* ``serve`` — run the sweep-as-a-service HTTP daemon: submit run
  matrices over HTTP, drain them through a persistent job queue with
  request coalescing, and serve cached records (ETag/304) plus a live
  dashboard (see ``docs/SERVING.md``).
* ``verify`` — reconcile both coherence protocols against their
  declarative specs (AST extraction), optionally model-check small
  configurations exhaustively and gate on runtime transition coverage
  and on the batched driver matching the reference loop.

``repro --log-json FILE`` (or ``REPRO_LOG=FILE``) adds structured JSONL
run logging to any command; ``-`` logs to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.params import SystemConfig, all_configs
from repro.experiments.records import RunRecord
from repro.obs import runlog
from repro.obs.profile import profile_text
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


#: ``repro run --view`` name -> the output formats it renders (the first
#: is its default).  ``hist``, ``profile`` and ``timeline`` are also the
#: record extras their views read.
VIEWS: Dict[str, Tuple[str, ...]] = {
    "summary": ("text",),
    "hist": ("text",),
    "profile": ("text",),
    "timeline": ("text", "json", "html"),
    "trace": ("jsonl", "chrome"),
}


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: select one cell, then print each ``--view`` of it."""
    views = [view.strip() for view in args.view.split(",") if view.strip()]
    unknown = [view for view in views if view not in VIEWS]
    if not views or unknown:
        print(f"run: unknown view(s) {unknown}; pick from {sorted(VIEWS)}",
              file=sys.stderr)
        return 2
    if "trace" in views and len(views) > 1:
        print("run: the trace view cannot be combined with other views",
              file=sys.stderr)
        return 2
    fmt = args.format or VIEWS[views[0]][0]
    for view in views:
        if fmt not in VIEWS[view]:
            print(f"run: the {view} view renders {'/'.join(VIEWS[view])}, "
                  f"not {fmt}", file=sys.stderr)
            return 2
    if args.job:
        if views == ["trace"]:
            return _trace_job(args)
        if views == ["timeline"]:
            return _timeline_job(args, fmt)
        print("run: --job shows the trace or the timeline view alone",
              file=sys.stderr)
        return 2
    if args.record:
        if views == ["trace"]:
            print("run: the trace view simulates a cell; it reads no "
                  "RECORD", file=sys.stderr)
            return 2
        record = _path_record(Path(args.record))
        if record is None:
            return 2
        title = Path(args.record).name
    else:
        config = _resolve_cell(args)
        if config is None:
            return 2
        if views == ["trace"]:
            return _trace_view(args, config, fmt)
        record = _cell_record(args, config, views)
        if record is None:
            return 1
        title = f"{record.workload} on {record.config}"
    texts = []
    for view in views:
        text = _render_view(view, record, title, fmt, args.epoch)
        if text is None:
            return 2
        texts.append(text)
    _write_view("\n".join(texts), ",".join(views), fmt, args.out)
    if not record.invariants_ok:
        print(record.invariant_error, file=sys.stderr)
        return 1
    return 0


def _cell_record(args: argparse.Namespace, config: SystemConfig,
                 views: Sequence[str]) -> Optional[RunRecord]:
    """The run record of ``args``' cell carrying the extras ``views``
    read: the cached one if it serves, else one quiet simulation that
    writes it.  The simulation also collects histogram digests, as a
    sweep does, so its record serves the next ``repro sweep`` too.
    None after printing why the run failed."""
    from repro.experiments.runner import execute_plan, plan_matrix
    from repro.obs.timeline import DEFAULT_EPOCH

    plan = plan_matrix([args.workload], [config], args.instructions,
                       args.seed, sanitize=args.sanitize,
                       sanitize_every=args.sanitize_every,
                       check_invariants=args.check_invariants,
                       telemetry="hist" in views,
                       profile="profile" in views,
                       timeline=((args.epoch or DEFAULT_EPOCH)
                                 if "timeline" in views else 0),
                       # a cached record cannot prove the oracle ran
                       fresh=args.check or None)
    for item in plan.pending:
        item.spec.check_values = args.check
        item.spec.telemetry = True
    failures = execute_plan(plan, jobs=1, quiet=True)
    if failures:
        print(failures[0], file=sys.stderr)
        return None
    return plan.matrix[args.workload][config.name]


def _path_record(path: Path) -> Optional[RunRecord]:
    """The run record in a JSON file; a partial record or a bare
    timeline summary fills the rest with defaults.  None after printing
    why the file is unusable."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"run: {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(payload, dict):
        print(f"run: {path}: not a JSON object", file=sys.stderr)
        return None
    if "series" in payload:
        payload = {"timeline": payload}
    try:
        return RunRecord.from_json({"workload": "", "category": "",
                                    "config": "", "instructions": 0,
                                    **payload})
    except TypeError as exc:
        print(f"run: {path}: not a run record ({exc})", file=sys.stderr)
        return None


def _render_view(view: str, record: RunRecord, title: str, fmt: str,
                 epoch: int) -> Optional[str]:
    """One record view as text; None after printing why it cannot
    render."""
    if view == "summary":
        return _summary_text(record)
    if view == "hist":
        from repro.experiments.report import hist_table

        return hist_table(record.hists, title="Telemetry histograms: "
                          f"{record.workload} on {record.config}") + "\n"
    if view == "profile":
        return profile_text(record.profile) + "\n"
    from repro.obs.timeline import (
        rebucket_timeline,
        timeline_text,
        validate_timeline,
    )

    timeline = record.timeline
    if not timeline:
        print("timeline: the record carries no epoch series; view the "
              "cell with `repro run --view timeline`", file=sys.stderr)
        return None
    problems = validate_timeline(timeline)
    if problems:
        for problem in problems:
            print(f"timeline: schema: {problem}", file=sys.stderr)
        return None
    if epoch:
        timeline = rebucket_timeline(timeline, epoch)
    if fmt == "json":
        return json.dumps(timeline, indent=2) + "\n"
    if fmt == "html":
        from repro.obs.render import timeline_page

        return timeline_page(timeline, title=f"timeline: {title}")
    return timeline_text(timeline) + "\n"


def _summary_text(record: RunRecord) -> str:
    config = _configs_by_cli_name().get(record.config.lower())
    rows = [
        ("cycles", f"{record.cycles:,.0f}"),
        ("CPI", f"{record.cpi:.2f}"),
        ("L1-I miss ratio", f"{record.l1i_miss:.2%}"),
        ("L1-D miss ratio", f"{record.l1d_miss:.2%}"),
        ("avg L1-miss latency", f"{record.avg_miss_latency:.1f} cyc"),
        ("NoC messages / KI", f"{record.msgs_per_ki:.1f}"),
        ("  of which D2M-only", f"{record.d2m_msgs_per_ki:.1f}"),
        ("cache energy", f"{record.cache_energy_pj / 1e6:.2f} uJ"),
        ("EDP", f"{record.edp:.3e} pJ*cyc"),
    ]
    if config is not None and config.is_d2m:
        rows.append(("private misses", f"{record.private_miss_fraction:.0%}"))
        rows.append(("NS hits I/D",
                     f"{record.ns_hit_i:.0%} / {record.ns_hit_d:.0%}"))
    if record.sanitized:
        rows.append(("sanitizer", "clean"))
    if record.invariants_checked:
        rows.append(("final invariants",
                     "ok" if record.invariants_ok else "VIOLATED"))
    lines = [f"{record.workload} on {record.config} "
             f"({record.instructions} instructions)"]
    lines += [f"  {label:22s}{value}" for label, value in rows]
    return "\n".join(lines) + "\n"


def _write_view(text: str, label: str, fmt: str, out: str) -> None:
    """Print ``text``, or write it to ``out`` and say so."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{label} ({fmt}) -> {out}")
    else:
        print(text, end="")


def _trace_view(args: argparse.Namespace, config: SystemConfig,
                fmt: str) -> int:
    """The trace view: one live run's protocol event stream (no record
    carries it) exported as JSONL or Chrome ``trace_event`` JSON."""
    from repro.analysis.events import EventRing
    from repro.obs.trace import write_chrome, write_jsonl
    from repro.sim.runner import run_workload

    recorder = EventRing(window=args.window)
    outcome = run_workload(config, args.workload,
                           instructions=args.instructions, seed=args.seed,
                           check_values=args.check, observers=[recorder])
    extension = "jsonl" if fmt == "jsonl" else "json"
    path = args.out or (f"trace_{config.name.lower()}_{args.workload}"
                        f".{extension}")
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "chrome":
            count = write_chrome(recorder, handle)
        else:
            count = write_jsonl(recorder, handle)
    if recorder.recorded == 0:
        print(f"note: {config.name} has no protocol tracer hooks "
              f"(baseline); the trace is empty", file=sys.stderr)
    print(f"{args.workload} on {config.name}: "
          f"{outcome.result.instructions} instructions, "
          f"{recorder.recorded} events recorded "
          f"({count} exported, format {fmt}) -> {path}")
    return 0


def _serve_root(args: argparse.Namespace) -> Path:
    """The serve cache root a ``--job`` selector reads."""
    from repro.experiments.runner import cache_dir

    return Path(args.serve_cache) if args.serve_cache else cache_dir()


def _trace_job(args: argparse.Namespace) -> int:
    """``repro run --job ID --view trace``: export a served job's
    lifecycle spans."""
    from repro.obs.trace import chrome_span_events
    from repro.serve.telemetry import load_spans

    spans_dir = _serve_root(args) / "queue" / "spans"
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


def _timeline_job(args: argparse.Namespace, fmt: str) -> int:
    """``repro run --job ID --view timeline``: a served job's per-cell
    epoch series."""
    from repro.obs.timeline import rebucket_timeline, timeline_text
    from repro.serve.handlers import timeline_payload
    from repro.serve.queue import read_job

    if fmt == "html":
        print("timeline: --format html renders one record; use text or "
              "json with --job", file=sys.stderr)
        return 2
    root = _serve_root(args)
    job = read_job(root / "queue", args.job)
    if job is None:
        print(f"no such job {args.job!r} under {root}", file=sys.stderr)
        return 2
    payload = timeline_payload(
        job, root / "runs",
        heartbeat_dir=root / "queue" / f"hb-{args.job}")
    if fmt == "json":
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
    _write_view(text, "timeline", fmt, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    module_name = ARTIFACTS.get(args.artifact)
    if module_name is None:
        print(f"report: unknown artifact {args.artifact!r}; pick from "
              f"{sorted(ARTIFACTS)}", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def _timeline_epoch(args: argparse.Namespace) -> int:
    """Resolve ``--timeline [--epoch N]`` into an epoch length (0 = off)."""
    if not getattr(args, "timeline", False):
        return 0
    if args.epoch:
        return args.epoch
    from repro.obs.timeline import DEFAULT_EPOCH

    return DEFAULT_EPOCH


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
    """Diff a candidate run record or sweep matrix against a baseline."""
    from repro.experiments.report import comparison_table
    from repro.obs import compare as cmp

    thresholds = cmp.thresholds_from_percent(args.metric_threshold)
    try:
        baseline = cmp.load_payload(Path(args.baseline))
        candidate = cmp.load_payload(Path(args.candidate))
        report = cmp.compare_payloads(baseline, candidate, thresholds,
                                      baseline_label=args.baseline,
                                      candidate_label=args.candidate)
    except cmp.CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2

    print(comparison_table(report, limit=60))
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
    from repro.serve.app import serve_forever

    return serve_forever(host=args.host, port=args.port,
                         workers=args.workers,
                         job_concurrency=args.job_concurrency,
                         metrics_out=args.metrics_out,
                         cache_root=args.cache_dir)


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

    run_p = sub.add_parser(
        "run", help="select one system x workload cell and view it")
    run_p.add_argument("record", nargs="?", default="",
                       help="view a run-record JSON file (or a bare "
                            "timeline summary) instead of a cell")
    run_p.add_argument("--config", default="d2m-ns-r",
                       help="system name (e.g. base-2l, d2m-ns-r)")
    run_p.add_argument("--workload", default="tpcc")
    run_p.add_argument("--instructions", type=int, default=0,
                       help="0 = REPRO_INSTRUCTIONS or the default budget")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--job", default="", metavar="ID",
                       help="select a served job instead: the trace view "
                            "exports its request-lifecycle spans, the "
                            "timeline view its per-cell series")
    run_p.add_argument("--serve-cache", default="", metavar="DIR",
                       help="(with --job) serve cache root (default "
                            "REPRO_CACHE_DIR or ./.repro_cache)")
    run_p.add_argument("--view", default="summary", metavar="LIST",
                       help="comma list of views, printed in order: "
                            "summary, hist, profile, timeline (read from "
                            "the cell's run record, simulated and cached "
                            "on a miss) or trace (a live run's protocol "
                            "events, alone)")
    run_p.add_argument("--epoch", type=int, default=0, metavar="N",
                       help="timeline epoch length in accesses when the "
                            "cell is simulated (default 4096); the display "
                            "coarsens to >= N")
    run_p.add_argument("--format", default="",
                       choices=("text", "json", "html", "jsonl", "chrome"),
                       help="timeline: text (default), json or html; "
                            "trace: jsonl (default) or chrome")
    run_p.add_argument("--out", default="",
                       help="write to a file instead of stdout (trace "
                            "default trace_<config>_<workload>.<ext>)")
    run_p.add_argument("--window", type=int, default=0, metavar="N",
                       help="(trace) keep only the last N events "
                            "(0 = all)")
    run_p.add_argument("--check", action="store_true",
                       help="simulate afresh with the sequential value "
                            "oracle (slower)")
    _add_checking_flags(run_p)

    report_p = sub.add_parser("report", help="regenerate a paper artifact")
    report_p.add_argument("artifact", nargs="?", default="",
                          help=f"one of {sorted(ARTIFACTS)}")

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

    compare_p = sub.add_parser(
        "compare",
        help="diff a candidate run record / sweep matrix against a "
             "baseline (exit 3 on regression)")
    compare_p.add_argument("baseline",
                           help="baseline: a run record JSON or a "
                                "run-record directory")
    compare_p.add_argument("candidate",
                           help="candidate of the same kind as the "
                                "baseline")
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
                          help="run the pinned matrix + probes on the "
                               "reference loop and the batched driver; "
                               "gate on never-exercised spec transitions "
                               "and on any run whose two drivers' "
                               "statistics differ")
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
    _add_timeline_flags(dash_p)

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
                             "bit-identical; view with repro run --view "
                             "timeline)")
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
