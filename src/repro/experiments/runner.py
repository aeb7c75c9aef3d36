"""Shared, disk-cached simulation sweep for all experiment harnesses.

Every figure and table consumes the same (workload x system) matrix.
Each finished run is persisted as its own record file under
``.repro_cache/runs/<key>.json`` — keyed by workload, config name, node
count, instruction budget, seed, warm-up budget, and the record format
version — and the matrix is assembled from those files on load.  A partial or
interrupted sweep therefore reuses every completed run, and adding one
workload re-simulates only the new runs.  Writes are atomic
(``tempfile`` + ``os.replace``) and an unreadable or truncated entry is
treated as a miss, never a crash.

Runs that are not cached fan out over worker processes
(:mod:`repro.sim.parallel`); ``REPRO_JOBS`` or the ``jobs`` argument set
the worker count and ``REPRO_FRESH=1`` forces a full re-run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.common.params import SystemConfig, all_configs
from repro.experiments.records import RunRecord, record_from_outcome
from repro.obs import runlog
from repro.obs.progress import SweepProgress
from repro.sim.parallel import RunFailure, execute_runs
from repro.sim.runner import (
    RunSpec,
    extras_of,
    instruction_budget,
    run_spec,
    warmup_budget,
)
from repro.workloads.registry import CATEGORIES, get_spec, workload_names

#: matrix type: matrix[workload][config_name] -> RunRecord
Matrix = Dict[str, Dict[str, RunRecord]]

#: bump when RunRecord's schema or the simulation semantics change
#: (9: epoch time-series timeline joined the record; 10: the profiler
#: classifies MESI slow accesses and every D2M one, so an older profile
#: that filed them under ``unclassified`` must not serve a new request;
#: 11: MESI instruction-side L1 hits and L2 hits got their own classes;
#: 12: the record carries ``cpi``, and profile step rows take no seconds)
RUN_FORMAT = 12

#: a ``<key>.json.*.tmp`` file older than this is crash litter, not an
#: in-flight atomic write (writes complete in milliseconds)
TMP_ORPHAN_AGE_S = 3600.0


class SweepError(RuntimeError):
    """Some runs of a sweep failed; the completed ones are cached."""

    def __init__(self, failures: List[RunFailure]):
        self.failures = failures
        lines = "\n".join(f"  - {failure}" for failure in failures)
        message = (f"{len(failures)} run(s) failed (completed runs are "
                   f"cached; rerun to retry only the failures):\n{lines}")
        # Surface the first failure's full detail (e.g. the sanitizer's
        # forensic event timeline) instead of just its summary line.
        first = failures[0] if failures else None
        if first is not None and first.error:
            message += ("\nfirst failure detail:\n"
                        + "\n".join(f"    {line}" for line
                                    in first.error.strip().splitlines()))
        super().__init__(message)


def sweep_workloads() -> List[str]:
    """The paper's workload list (env REPRO_WORKLOADS narrows it)."""
    selection = os.environ.get("REPRO_WORKLOADS", "")
    if selection:
        return [name.strip() for name in selection.split(",") if name.strip()]
    return [name for cat in CATEGORIES for name in workload_names(cat)]


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", "")
    path = Path(root) if root else Path.cwd() / ".repro_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def runs_dir(root: Optional[Path] = None) -> Path:
    """``root/runs`` (default root :func:`cache_dir`), created if absent."""
    path = (cache_dir() if root is None else root) / "runs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_cache_key(workload: str, config_name: str, instructions: int,
                  seed: int, warmup: int, nodes: int = 8) -> str:
    """Key of one run record: every input that determines its numbers.

    ``nodes`` is hashed alongside the config name: the serving layer
    builds same-named configs at other node counts.

    The key doubles as the record's content address on disk and as the
    serving layer's ETag / coalescing identity.
    """
    text = json.dumps({
        "workload": workload,
        "config": config_name,
        "instructions": instructions,
        "seed": seed,
        "warmup": warmup,
        "nodes": nodes,
        "format": RUN_FORMAT,
    }, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _load_record(path: Path) -> Optional[RunRecord]:
    """A cached record, or None (= miss) when absent/corrupt/stale-schema."""
    try:
        return RunRecord.from_json(json.loads(path.read_text()))
    except (OSError, ValueError, TypeError, KeyError):
        return None


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write via a sibling temp file + ``os.replace`` so readers only
    ever see absent or complete files, even across a mid-write kill."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def reap_orphan_tmp(directory: Optional[Path] = None,
                    max_age_s: float = TMP_ORPHAN_AGE_S) -> List[Path]:
    """Remove stale ``*.tmp`` litter left by killed atomic writers.

    A SIGKILL between ``mkstemp`` and ``os.replace`` strands a
    ``<name>.<random>.tmp`` sibling that nothing else ever touches.
    Anything matching ``*.tmp`` in ``directory`` (default: the run-record
    cache) whose mtime is older than ``max_age_s`` is deleted; younger
    files are left alone — they may be a live writer mid-flight.
    Runs at ``repro sweep`` entry and daemon startup.  Returns the paths
    it removed.
    """
    target = directory if directory is not None else runs_dir()
    removed: List[Path] = []
    now = time.time()
    try:
        candidates = sorted(target.glob("*.tmp"))
    except OSError:
        return removed
    for path in candidates:
        try:
            if now - path.stat().st_mtime < max_age_s:
                continue
            path.unlink()
        except OSError:
            continue  # vanished or unreadable: someone else's problem
        removed.append(path)
    if removed:
        runlog.emit("cache.reap_tmp", directory=str(target),
                    removed=len(removed))
    return removed


def _simulate_record(spec: RunSpec) -> dict:
    """Worker task: one run, returned as a JSON-ready record payload."""
    category = get_spec(spec.workload).category
    outcome = run_spec(spec)
    return record_from_outcome(outcome, category).to_json()


@dataclass
class PendingRun:
    """One not-yet-cached cell of a sweep plan."""

    spec: RunSpec
    path: Path
    key: str


@dataclass
class SweepPlan:
    """The cached/pending split of one run matrix request.

    Built by :func:`plan_matrix` and consumed by :func:`execute_plan`.
    All state is per-plan (no globals, no environment mutation), so any
    number of plans can be built and executed concurrently in one
    process — the property the serving daemon leans on.  ``cache_root``
    holds the plan's records (``runs/``) and its default progress log
    and heartbeat directory.
    """

    workloads: List[str]
    configs: List[SystemConfig]
    instructions: int
    seed: int
    warmup: int
    cache_root: Path
    matrix: Matrix = field(default_factory=dict)
    pending: List[PendingRun] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.workloads) * len(self.configs)

    @property
    def cached(self) -> int:
        return self.total - len(self.pending)


def plan_matrix(workloads: Optional[Iterable[str]] = None,
                configs: Optional[Iterable[SystemConfig]] = None,
                instructions: int = 0, seed: int = 1,
                sanitize: bool = False, sanitize_every: int = 0,
                check_invariants: bool = False,
                telemetry: bool = True,
                profile: bool = False,
                timeline: int = 0,
                fresh: Optional[bool] = None,
                warmup: Optional[int] = None,
                cache_root: Optional[Path] = None) -> SweepPlan:
    """Split a matrix request into cached records and pending runs.

    Loads every already-cached record into ``plan.matrix`` and lists the
    rest as :class:`PendingRun`s.  The run settings are
    :class:`~repro.sim.runner.RunSpec`'s, except that ``telemetry``
    (histogram digests) defaults on.  One rule decides a hit: a cached
    record serves the request exactly when the extras the settings ask
    for (:attr:`RunSpec.extras <repro.sim.runner.RunSpec.extras>` —
    ``hist``, ``profile``, ``timeline``, ``sanitize``, ``invariants``)
    are a subset of the extras it carries (``RunRecord.extras``).  None
    of them changes a run's statistics, so a record with more extras
    serves a request for fewer, and one lacking a requested extra is
    simulated again.

    ``workloads=None`` plans every sweep workload and ``configs=None``
    every system; an empty list plans nothing.  ``fresh=None`` defaults
    from ``REPRO_FRESH``; ``warmup=None`` derives the warm-up budget from
    ``REPRO_WARMUP`` or the default fraction, while an explicit value
    pins the cache keys regardless of the environment (the daemon does
    this per request).  The plan reads
    and writes records under ``cache_root/runs``; ``cache_root=None``
    means :func:`cache_dir`.
    """
    workload_list = (sweep_workloads() if workloads is None
                     else list(workloads))
    config_list = (list(all_configs()) if configs is None
                   else list(configs))
    budget = instructions or instruction_budget()
    if warmup is None:
        warmup = warmup_budget(budget)
    if fresh is None:
        fresh = bool(os.environ.get("REPRO_FRESH"))
    wanted = extras_of(hist=telemetry, profile=profile, timeline=timeline,
                       sanitize=sanitize, invariants=check_invariants)
    root = cache_dir() if cache_root is None else cache_root
    records = runs_dir(root)

    plan = SweepPlan(workloads=workload_list, configs=config_list,
                     instructions=budget, seed=seed, warmup=warmup,
                     cache_root=root,
                     matrix={wl: {} for wl in workload_list})
    for workload in workload_list:
        get_spec(workload)  # unknown workloads fail before any simulation
        for config in config_list:
            key = run_cache_key(workload, config.name, budget, seed, warmup,
                                nodes=config.nodes)
            path = records / (key + ".json")
            record = None if fresh else _load_record(path)
            if record is not None and wanted <= record.extras:
                plan.matrix[workload][config.name] = record
                continue
            plan.pending.append(PendingRun(
                RunSpec(config, workload, budget, seed, warmup=warmup,
                        sanitize=sanitize, sanitize_every=sanitize_every,
                        check_invariants=check_invariants,
                        telemetry=telemetry, profile=profile,
                        timeline=timeline),
                path, key))
    return plan


def execute_plan(plan: SweepPlan, jobs: Optional[int] = None,
                 quiet: bool = False,
                 heartbeat_dir: Optional[str] = None,
                 jsonl_path: Optional[str] = None,
                 on_record: Optional[Callable[[PendingRun, RunRecord],
                                              None]] = None,
                 trace: str = "") -> List[RunFailure]:
    """Simulate a plan's pending runs, persisting each as it lands.

    Fills ``plan.matrix`` in place and returns the failures (empty on a
    clean sweep).  ``heartbeat_dir`` is stamped onto every pending spec
    (``RunSpec.progress_dir``), so each run beats into its own plan's
    directory and concurrent ``execute_plan`` calls in one process
    never cross.  When ``None``, a throwaway directory under the plan's
    ``cache_root`` is created and cleaned up; ``jsonl_path=None``
    appends progress to ``cache_root/progress.jsonl``.  ``on_record``
    fires in the calling process after each record is written (the
    daemon resolves coalesced waiters from it).  ``trace`` is the
    serving layer's correlation id; when set it is stamped onto every
    pending spec (so worker runlog events and heartbeats carry it) and
    onto the sweep start/end events.
    """
    if not plan.pending:
        return []
    log_extra: Dict[str, object] = {"trace": trace} if trace else {}
    runlog.emit("sweep.start", pending=len(plan.pending),
                cached=plan.cached, workloads=len(plan.workloads),
                configs=len(plan.configs), **log_extra)
    pending = list(plan.pending)
    owns_heartbeat_dir = heartbeat_dir is None
    if heartbeat_dir is None:
        heartbeat_dir = tempfile.mkdtemp(prefix="progress-",
                                         dir=str(plan.cache_root))
    for item in pending:
        item.spec.progress_dir = heartbeat_dir
        if trace:
            item.spec.trace = trace
    specs = [item.spec for item in pending]

    def persist(index: int, payload: dict) -> None:
        item = pending[index]
        atomic_write_json(item.path, payload)
        record = RunRecord.from_json(payload)
        plan.matrix[item.spec.workload][item.spec.config.name] = record
        if on_record is not None:
            on_record(item, record)

    sweep_progress = SweepProgress(
        total=len(pending),
        stream=io.StringIO() if quiet else None,
        jsonl_path=(jsonl_path if jsonl_path is not None
                    else str(plan.cache_root / "progress.jsonl")),
        heartbeat_dir=heartbeat_dir,
        inplace=False if quiet else None,
    )

    def report(done: int, total: int, spec: RunSpec) -> None:
        sweep_progress.run_done(done, total, spec.workload,
                                spec.config.name)

    try:
        with sweep_progress:
            _, failures = execute_runs(specs, _simulate_record, jobs=jobs,
                                       progress=report, on_result=persist)
    finally:
        if owns_heartbeat_dir:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)
    runlog.emit("sweep.end", pending=len(pending), failures=len(failures),
                **log_extra)
    return failures


def get_matrix(workloads: Optional[Iterable[str]] = None,
               configs: Optional[Iterable[SystemConfig]] = None,
               instructions: int = 0, seed: int = 1,
               quiet: bool = False, jobs: Optional[int] = None,
               **settings: Any) -> Matrix:
    """The shared run matrix, assembled from per-run cache records.

    ``settings`` are :func:`plan_matrix`'s run settings (sanitizer,
    invariant walk, telemetry, profile, timeline), which also decide
    which cached records serve the request.  Missing runs are
    simulated — in parallel when ``jobs`` (or ``REPRO_JOBS``, or the
    CPU count) exceeds one — and each record is persisted the moment it
    lands, so interrupting the sweep never loses completed work.  If any
    run fails, the rest still complete and a :class:`SweepError` listing
    the failures is raised at the end.

    Live progress goes through :class:`repro.obs.progress.SweepProgress`:
    per-run completion lines (or an in-place line on a TTY, fed by
    worker heartbeats) plus a machine-readable ``progress.jsonl`` in the
    cache directory.  ``quiet`` silences the terminal rendering only.

    This is a thin composition of :func:`plan_matrix` and
    :func:`execute_plan`; long-lived callers (the serving daemon) use
    those directly for per-job heartbeat directories and coalescing.
    """
    plan = plan_matrix(workloads, configs, instructions, seed, **settings)
    failures = execute_plan(plan, jobs=jobs, quiet=quiet)
    if failures:
        raise SweepError(failures)
    return plan.matrix


def by_category(matrix: Matrix) -> Dict[str, List[str]]:
    """Workload names present in the matrix, grouped by suite category."""
    groups: Dict[str, List[str]] = {}
    for workload, row in matrix.items():
        category = next(iter(row.values())).category
        groups.setdefault(category, []).append(workload)
    ordered = {}
    for cat in CATEGORIES:
        if cat in groups:
            ordered[cat] = groups[cat]
    for cat, names in groups.items():
        if cat not in ordered:
            ordered[cat] = names
    return ordered


def gmean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))
