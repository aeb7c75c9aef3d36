"""The asyncio HTTP daemon: routing, job drain loop, worker fan-out.

Stdlib only: a hand-rolled HTTP/1.1 server on ``asyncio.start_server``
(``Connection: close`` per request — the clients are sweep scripts and
CI curls, not browsers hammering keep-alive).  A submission whose every
cell is already in the run cache is answered inside ``POST /runs``: it
is born ``done`` and never queued.  Simulation never runs on the event
loop: every other job drains through a small number of concurrent job
tasks, each of which claims its cells in the
:class:`~repro.serve.coalesce.Coalescer`, looks them up in the run
cache once, and executes the owned cells still missing via
:func:`~repro.experiments.runner.execute_plan` (and thus the
:mod:`repro.sim.parallel` process pool) inside a thread executor.
Results land on disk first (atomic run records), then fan out to
coalesced waiters via ``call_soon_threadsafe``.

The serving layer sits entirely *beside* the simulation hot path: a
run simulated through the daemon executes exactly the code path
``repro sweep`` uses, with zero per-access overhead added.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.params import SystemConfig
from repro.experiments.runner import (
    PendingRun,
    RunRecord,
    SweepPlan,
    cache_dir,
    execute_plan,
    plan_matrix,
    reap_orphan_tmp,
    runs_dir,
)
from repro.obs import runlog
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import read_heartbeats
from repro.obs.render import dashboard_from_records
from repro.obs.trace import chrome_span_events
from repro.serve import handlers
from repro.serve.coalesce import Coalescer
from repro.serve.queue import Job, JobCell, JobQueue, make_job
from repro.serve.telemetry import (
    Span,
    StageTimer,
    append_span,
    load_spans,
    new_trace_id,
)

#: concurrent job-runner tasks (simulation parallelism lives below
#: this, in each job's process pool)
JOB_CONCURRENCY = 2

#: request hygiene limits
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 64

_REASONS = {200: "OK", 201: "Created", 304: "Not Modified",
            400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


def _version() -> str:
    import repro

    return repro.__version__


class ServeApp:
    """Daemon state: queue, coalescer, counters, and the HTTP surface.

    ``workers`` caps each job's simulation process pool (0 = the
    executor's ``REPRO_JOBS``/CPU default).  The daemon reads and writes
    run records, its queue and its progress under ``cache_root``, which
    defaults to :func:`repro.experiments.runner.cache_dir` (so
    ``REPRO_CACHE_DIR``, else ``./.repro_cache``).
    """

    def __init__(self, cache_root: Optional[Path] = None, workers: int = 0,
                 job_concurrency: int = JOB_CONCURRENCY) -> None:
        self.cache_root = Path(cache_root) if cache_root else cache_dir()
        self.runs_dir = runs_dir(self.cache_root)
        self.queue = JobQueue(self.cache_root / "queue")
        self.coalescer = Coalescer()
        self.workers = workers
        self.job_concurrency = max(1, job_concurrency)
        self.simulations = 0          # runs this daemon actually executed
        self.recovered_jobs: List[str] = []
        self.metrics = MetricsRegistry()
        # Request-lifecycle spans, one JSONL file per job.
        self.spans_dir = self.queue.directory / "spans"
        self._lane_state: Dict[int, str] = {}   # drain lane -> idle/running
        self._lane_job: Dict[int, str] = {}     # drain lane -> current job id
        self._wake = asyncio.Event()
        self._drainers: List["asyncio.Task[None]"] = []
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------ lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    drain: bool = True) -> asyncio.AbstractServer:
        """Recover the queue, start drainers, bind the HTTP server.

        ``drain=False`` accepts and persists submissions without
        executing them (tests use it to stage a queue for a restart); a
        fully cached submission is still answered at admission.
        """
        reap_orphan_tmp(self.runs_dir)
        self.recovered_jobs = self.queue.recover()
        if self.recovered_jobs:
            runlog.emit("serve.recover", jobs=self.recovered_jobs)
        if drain:
            self._drainers = [
                asyncio.ensure_future(self._drain_loop(index))
                for index in range(self.job_concurrency)]
            self._wake.set()  # pick up anything already queued
        self._server = await asyncio.start_server(self._handle_client,
                                                  host=host, port=port)
        return self._server

    async def stop(self) -> None:
        for task in self._drainers:
            task.cancel()
        for task in self._drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                pass
        self._drainers = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    # ------------------------------------------------------------ draining

    async def _drain_loop(self, index: int) -> None:
        self._lane_state[index] = "idle"
        while True:
            job = self._claim_next()
            if job is None:
                self._lane_state[index] = "idle"
                self._lane_job.pop(index, None)
                self._wake.clear()
                await self._wake.wait()
                continue
            self._lane_state[index] = "running"
            self._lane_job[index] = job.id
            self._span(job, "claim", time.time(), 0.0, lane=index,
                       wait_s=round(time.time() - job.created_ts, 6))
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a broken job must not kill the loop
                job.state = "failed"
                job.error = f"internal error: {exc}"
                self.queue.save(job)
                runlog.emit("serve.job_error", job=job.id, error=str(exc))

    def _claim_next(self) -> Optional[Job]:
        # Single-threaded on the event loop with no await between the
        # scan and the save, so two drainers cannot claim one job.
        job = self.queue.next_pending()
        if job is not None:
            job.state = "running"
            self.queue.save(job)
        return job

    def heartbeat_dir_for(self, job_id: str) -> Path:
        return self.queue.directory / f"hb-{job_id}"

    def _span(self, job: Job, stage: str, ts: float, dur_s: float,
              **meta: object) -> None:
        """Record one lifecycle span and its latency."""
        append_span(self.spans_dir, Span(trace=job.trace, job=job.id,
                                         stage=stage, ts=ts, dur_s=dur_s,
                                         meta=dict(meta)))
        self.metrics.observe("repro_stage_ns", int(dur_s * 1e9), stage=stage)

    def _lookup(self, request: Dict[str, object],
                configs: List[SystemConfig]) -> SweepPlan:
        """The job's one run-cache lookup (blocking: run it in an
        executor, never on the loop — a job may have
        :data:`~repro.serve.handlers.MAX_CELLS_PER_JOB` cells).

        :func:`plan_matrix` over the job's matrix with the extras it
        accepts (:func:`handlers.job_extras`): a cell is pending unless
        its record carries every requested extra.
        """
        return plan_matrix(
            workloads=request["workloads"],  # type: ignore[arg-type]
            configs=configs,
            instructions=int(request["instructions"]),  # type: ignore[arg-type]
            seed=int(request["seed"]),  # type: ignore[arg-type]
            warmup=int(request["warmup"]),  # type: ignore[arg-type]
            timeline=int(request.get("timeline", 0) or 0),  # type: ignore[arg-type]
            cache_root=self.cache_root)

    def _admission_lookup(self, job: Job,
                          configs: List[SystemConfig]) -> Optional[SweepPlan]:
        """:meth:`_lookup` at admission, or None when a cell's record
        file is absent (blocking, like the lookup).

        An absent file is a miss whatever the lookup would read, so a
        submission with one new cell costs a few ``stat`` calls here,
        not a parse of every record the drain lane parses again under
        its claims.
        """
        if not all((self.runs_dir / f"{cell.key}.json").is_file()
                   for cell in job.cells):
            return None
        return self._lookup(job.request, configs)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        request = job.request
        log_extra = {"trace": job.trace} if job.trace else {}
        runlog.emit("serve.job_start", job=job.id, cells=len(job.cells),
                    **log_extra)
        _, configs = handlers.parse_submission(dict(request))
        cells = {cell.key: cell for cell in job.cells}
        claims = await self.coalescer.claim(
            dict.fromkeys(cells, handlers.job_extras(request)))
        owned = {key: future for key, (is_owner, future) in claims.items()
                 if is_owner}
        failures_by_key: Dict[str, str] = {}
        crash = ""
        try:
            # One lookup, under the claims: no run of an owned key can
            # land between the lookup and the claim.
            plan = await loop.run_in_executor(None, self._lookup,
                                              request, configs)
            missing = {item.key for item in plan.pending}
            for cell in job.cells:
                if cell.key not in missing:  # served from disk
                    cell.state = "cached"
                    if cell.key in owned:
                        self.coalescer.resolve(
                            cell.key, plan.matrix[cell.workload][cell.config])
            runs = [item for item in plan.pending if item.key in owned]
            # A joined key still missing waits for its owner's run; one
            # on disk already (the owner's run landed, or the owner
            # serves it from disk too) is a cache hit like any other.
            waited = {key: future for key, (is_owner, future)
                      in claims.items() if not is_owner and key in missing}
            if runs:
                self.metrics.inc("repro_coalesce_owned_total", len(runs))
            if waited:
                self.metrics.inc("repro_coalesce_hits_total", len(waited))
            if len(cells) > len(missing):
                self.metrics.inc("repro_cache_hits_total",
                                 len(cells) - len(missing))
            if missing:
                self.metrics.inc("repro_cache_misses_total", len(missing))
            if runs or waited:  # else the terminal save follows at once
                self.queue.save(job)
            if runs:
                sub_plan = replace(plan, pending=runs)  # shares plan.matrix
                hb_dir = self.heartbeat_dir_for(job.id)
                hb_dir.mkdir(parents=True, exist_ok=True)

                def on_record(item: PendingRun, record: RunRecord) -> None:
                    # executor thread → loop thread: disk write already
                    # happened (execute_plan persists before this fires).
                    loop.call_soon_threadsafe(self._record_landed, job,
                                              cells, item.key, record)

                with StageTimer() as sim_t:
                    try:
                        failures = await loop.run_in_executor(
                            None, lambda: execute_plan(
                                sub_plan, jobs=self.workers or None,
                                quiet=True, heartbeat_dir=str(hb_dir),
                                on_record=on_record, trace=job.trace))
                    finally:
                        shutil.rmtree(hb_dir, ignore_errors=True)
                for failure in failures:
                    for item in runs:
                        if (item.spec.workload == failure.workload
                                and item.spec.config.name == failure.config):
                            failures_by_key[item.key] = failure.summary()
                self._span(job, "simulate", sim_t.ts, sim_t.dur_s,
                           owned=len(runs))
        except Exception as exc:
            crash = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # Every owned key not served by now (a failed run, or the
            # lookup or execute_plan itself blew up) fails, releasing
            # its waiters with the owner's error as their reason.
            for key, future in owned.items():
                if not future.done():
                    cell = cells[key]
                    failures_by_key.setdefault(
                        key, crash or f"run {cell.workload} on "
                                      f"{cell.config} did not complete")
                    self.coalescer.fail(key, failures_by_key[key], future)

        if waited:
            with StageTimer() as wait_t:
                for key, future in waited.items():
                    try:
                        await future
                    except Exception as exc:
                        failures_by_key.setdefault(key, str(exc))
                    else:
                        if cells[key].state == "pending":
                            cells[key].state = "coalesced"
            self._span(job, "coalesce-wait", wait_t.ts, wait_t.dur_s,
                       cells=len(waited))

        for key in failures_by_key:
            cells[key].state = "failed"
        if failures_by_key:
            job.state = "failed"
            job.error = "; ".join(
                f"{cells[key].workload} on {cells[key].config}: {message}"
                for key, message in sorted(failures_by_key.items()))
        else:
            job.state = "done"
        self._finish(job)
        self._wake.set()

    def _finish(self, job: Job) -> None:
        """Journal a job that reached its terminal state, and count it."""
        with StageTimer() as respond_t:
            self.queue.save(job)
        self._span(job, "respond", respond_t.ts, respond_t.dur_s,
                   state=job.state)
        self.metrics.inc("repro_jobs_total", outcome=job.state)
        log_extra = {"trace": job.trace} if job.trace else {}
        runlog.emit("serve.job_end", job=job.id, state=job.state,
                    simulated=sum(1 for cell in job.cells
                                  if cell.state == "simulated"),
                    **log_extra)

    def _record_landed(self, job: Job, cells: Dict[str, JobCell],
                       key: str, record: RunRecord) -> None:
        self.simulations += 1
        self.metrics.inc("repro_simulations_total")
        self._span(job, "cache-write", time.time(), 0.0, key=key,
                   workload=record.workload, config=record.config)
        self.coalescer.resolve(key, record)
        cell = cells.get(key)
        if cell is not None and cell.state == "pending":
            cell.state = "simulated"
            self.queue.save(job)

    # ------------------------------------------------------------ HTTP

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers, body = await _read_request(reader)
            except _HttpError as exc:
                self.metrics.inc("repro_http_requests_total",
                                 endpoint="invalid", status=str(exc.status))
                await _respond(writer, exc.status,
                               {"error": exc.message})
                return
            status, payload, extra = await self._dispatch(method, path,
                                                          headers, body)
            self.metrics.inc("repro_http_requests_total",
                             endpoint=_endpoint_label(path),
                             status=str(status))
            await _respond(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes
                        ) -> Tuple[int, object, Dict[str, str]]:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload(), {}
        if path == "/metrics" and method == "GET":
            return 200, self.metrics_text().encode("utf-8"), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"}
        if path == "/runs" and method == "POST":
            return await self._submit(body)
        if path.startswith("/runs/") and method == "GET":
            rest = path[len("/runs/"):]
            if rest.endswith("/trace"):
                return self._job_trace(rest[: -len("/trace")])
            if rest.endswith("/timeline"):
                return self._job_timeline(rest[: -len("/timeline")])
            return self._job_status(rest)
        if path.startswith("/records/") and method == "GET":
            key = path[len("/records/"):]
            self.metrics.inc("repro_record_requests_total")
            status, etag, raw = handlers.record_response(
                self.runs_dir, key, headers.get("if-none-match", ""))
            if status == 200:
                return 200, raw, {"ETag": etag,
                                  "Content-Type": "application/json"}
            if status == 304:
                self.metrics.inc("repro_record_304_total")
                return 304, b"", {"ETag": etag}
            if status == 400:
                return 400, {"error": f"malformed record key {key!r}"}, {}
            return 404, {"error": f"no cached record {key!r}"}, {}
        if path == "/dashboard" and method == "GET":
            html = await asyncio.get_running_loop().run_in_executor(
                None, self._dashboard_html)
            return 200, html.encode("utf-8"), {
                "Content-Type": "text/html; charset=utf-8"}
        if path in ("/healthz", "/runs", "/dashboard", "/metrics") \
                or path.startswith(("/runs/", "/records/")):
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no such endpoint {path!r}"}, {}

    def _lane_states(self) -> Dict[str, int]:
        """Per-state drain-lane counts for health and metrics.

        A running lane turns ``stalled`` when every heartbeat of the job
        it is executing has gone stale (dead or wedged workers — the
        :func:`~repro.obs.progress.read_heartbeats` staleness logic).
        """
        states = {"idle": 0, "running": 0, "stalled": 0}
        for index in range(self.job_concurrency):
            state = self._lane_state.get(index, "idle")
            if state == "running":
                job_id = self._lane_job.get(index, "")
                beats = (read_heartbeats(str(self.heartbeat_dir_for(job_id)))
                         if job_id else [])
                if beats and all(beat.get("stale") for beat in beats):
                    state = "stalled"
            states[state] = states.get(state, 0) + 1
        return states

    def _refresh_gauges(self) -> None:
        """Re-derive every sampled gauge just before exposition."""
        counts = self.queue.counts()
        depth = counts.get("pending", 0) + counts.get("running", 0)
        self.metrics.set("repro_queue_depth", depth)
        oldest = 0.0
        for queued in self.queue.jobs():   # oldest-first ordering
            if queued.state in ("pending", "running"):
                oldest = round(time.time() - queued.created_ts, 3)
                break
        self.metrics.set("repro_queue_oldest_age_seconds", max(oldest, 0.0))
        self.metrics.set("repro_coalesce_inflight", len(self.coalescer))
        for state, count in self._lane_states().items():
            self.metrics.set("repro_worker_lanes", count, state=state)

    def metrics_text(self) -> str:
        """The Prometheus exposition (``GET /metrics``, ``--metrics-out``)."""
        self._refresh_gauges()
        return self.metrics.render()

    def _health_payload(self) -> dict:
        counts = self.queue.counts()
        return {
            "ok": True,
            "version": _version(),
            "jobs": counts,
            "queue_depth": (counts.get("pending", 0)
                            + counts.get("running", 0)),
            "simulations": self.simulations,
            "inflight": len(self.coalescer),
            "lanes": self._lane_states(),
            "uptime_s": round(time.time() - self.metrics.started_ts, 3),
        }

    async def _submit(self, body: bytes
                      ) -> Tuple[int, object, Dict[str, str]]:
        """``POST /runs``: validate, then answer from the run cache or
        queue the job.

        A job whose every cell the lookup finds is born ``done`` and
        journalled once; no drain lane sees it.  Admission claims
        nothing: a record on disk whose extras cover the request is a
        correct answer whoever may be simulating its key.  Any other
        job, also one whose lookup raised, is queued, and its drain
        lane claims its cells and looks them up again under the claims.
        """
        trace = new_trace_id()
        with StageTimer() as validate_t:
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError):
                return 400, {"error": "body is not valid JSON"}, {}
            try:
                request, configs = handlers.parse_submission(payload)
            except handlers.BadRequest as exc:
                return 400, {"error": str(exc)}, {}
            cells = handlers.build_cells(request, configs)
        job = make_job(request, cells, trace=trace)
        self._span(job, "validate", validate_t.ts, validate_t.dur_s,
                   cells=len(cells))
        try:
            plan = await asyncio.get_running_loop().run_in_executor(
                None, self._admission_lookup, job, configs)
        except Exception as exc:  # the drain lane looks up again
            runlog.warn(f"repro serve: admission lookup of job {job.id} "
                        f"raised {type(exc).__name__}: {exc}; queued",
                        job=job.id)
            plan = None
        runlog.emit("serve.submit", job=job.id, cells=len(job.cells),
                    trace=trace)
        if plan is not None and not plan.pending:
            for cell in job.cells:
                cell.state = "cached"
            job.state = "done"
            self.metrics.inc("repro_cache_hits_total", len(job.cells))
            self._finish(job)
        else:
            with StageTimer() as enqueue_t:
                self.queue.save(job)
            self._span(job, "enqueue", enqueue_t.ts, enqueue_t.dur_s)
            self._wake.set()
        return 201, handlers.job_payload(job), {
            "Location": f"/runs/{job.id}",
            "X-Trace-Id": trace}

    def _job_status(self, job_id: str) -> Tuple[int, object,
                                                Dict[str, str]]:
        if not job_id.isalnum():
            return 400, {"error": f"malformed job id {job_id!r}"}, {}
        job = self.queue.load(job_id)
        if job is None:
            return 404, {"error": f"no such job {job_id!r}"}, {}
        return 200, handlers.job_payload(
            job, heartbeat_dir=self.heartbeat_dir_for(job_id),
            progress_path=self.cache_root / "progress.jsonl"), {}

    def _job_trace(self, job_id: str) -> Tuple[int, object,
                                               Dict[str, str]]:
        """``GET /runs/<id>/trace``: the job's spans as Chrome JSON."""
        if not job_id.isalnum():
            return 400, {"error": f"malformed job id {job_id!r}"}, {}
        spans = load_spans(self.spans_dir, job_id)
        if not spans and self.queue.load(job_id) is None:
            return 404, {"error": f"no such job {job_id!r}"}, {}
        return 200, {"traceEvents": chrome_span_events(spans)}, {}

    def _job_timeline(self, job_id: str) -> Tuple[int, object,
                                                  Dict[str, str]]:
        """``GET /runs/<id>/timeline``: epoch series, finished or live.

        Finished cells come from the cached run records; a running job
        additionally tails the workers' live ``tl-*.jsonl`` epoch
        streams from its heartbeat directory.
        """
        if not job_id.isalnum():
            return 400, {"error": f"malformed job id {job_id!r}"}, {}
        job = self.queue.load(job_id)
        if job is None:
            return 404, {"error": f"no such job {job_id!r}"}, {}
        return 200, handlers.timeline_payload(
            job, self.runs_dir,
            heartbeat_dir=self.heartbeat_dir_for(job_id)), {}

    def _dashboard_html(self) -> str:
        records = handlers.load_all_records(self.runs_dir)
        return dashboard_from_records(
            records, subtitle=f"served live from {self.runs_dir} "
                              f"({len(records)} cached records)")


def _endpoint_label(path: str) -> str:
    """Low-cardinality endpoint label for the request counter (raw
    paths would mint one series per job/record id)."""
    path = path.split("?", 1)[0]
    if path in ("/healthz", "/runs", "/dashboard", "/metrics"):
        return path
    if path.startswith("/runs/"):
        if path.endswith("/trace"):
            return "/runs/:id/trace"
        if path.endswith("/timeline"):
            return "/runs/:id/timeline"
        return "/runs/:id"
    if path.startswith("/records/"):
        return "/records/:key"
    return "other"


# ---------------------------------------------------------------- HTTP io


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    line = await reader.readline()
    if not line:
        raise _HttpError(400, "empty request")
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, path, _ = parts
    headers: Dict[str, str] = {}
    for _count in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    length_text = headers.get("content-length", "")
    if length_text:
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length)
    return method.upper(), path, headers, body


async def _respond(writer: asyncio.StreamWriter, status: int,
                   payload: object,
                   extra: Optional[Dict[str, str]] = None) -> None:
    headers = dict(extra or {})
    if isinstance(payload, bytes):
        body = payload
        headers.setdefault("Content-Type", "application/octet-stream")
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        headers.setdefault("Content-Type", "application/json")
    if status == 304:
        body = b""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


# ---------------------------------------------------------------- CLI entry


#: seconds between two ``--metrics-out`` snapshot writes
METRICS_SNAPSHOT_S = 5.0


def write_metrics_snapshot(app: ServeApp, path: Path) -> None:
    """One atomic exposition-text snapshot (the ``--metrics-out`` unit)."""
    text = app.metrics_text()
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except OSError:
        pass  # metrics must never take the daemon down


async def _metrics_snapshot_loop(app: ServeApp, path: Path) -> None:
    while True:
        write_metrics_snapshot(app, path)
        await asyncio.sleep(METRICS_SNAPSHOT_S)


def serve_forever(host: str = "127.0.0.1", port: int = 8765,
                  workers: int = 0,
                  job_concurrency: int = JOB_CONCURRENCY,
                  metrics_out: str = "",
                  cache_root: str = "") -> int:
    """Run the daemon until interrupted (the ``repro serve`` body).

    ``cache_root`` is :class:`ServeApp`'s (empty: the default).
    ``metrics_out`` names a file that receives the Prometheus exposition
    text every few seconds (atomic replace) — scrapeable without HTTP
    access, e.g. by a CI artifact step or a node-exporter textfile
    collector.
    """

    async def _amain() -> int:
        app = ServeApp(cache_root=Path(cache_root) if cache_root else None,
                       workers=workers,
                       job_concurrency=job_concurrency)
        server = await app.start(host=host, port=port)
        bound = server.sockets[0].getsockname()
        print(f"repro serve: http://{bound[0]}:{bound[1]} "
              f"(cache {app.cache_root}, workers "
              f"{workers or 'auto'}, {app.job_concurrency} job lane(s)"
              + (f", recovered {len(app.recovered_jobs)} job(s)"
                 if app.recovered_jobs else "") + ")")
        print("endpoints: POST /runs, GET /runs/<id>, GET /runs/<id>/trace, "
              "GET /runs/<id>/timeline, GET /records/<key>, "
              "GET /dashboard, GET /metrics, GET /healthz")
        snapshot: Optional["asyncio.Task[None]"] = None
        if metrics_out:
            snapshot = asyncio.ensure_future(
                _metrics_snapshot_loop(app, Path(metrics_out)))
        try:
            async with server:
                await server.serve_forever()
        finally:
            if snapshot is not None:
                snapshot.cancel()
            await app.stop()
        return 0

    try:
        return asyncio.run(_amain())
    except KeyboardInterrupt:
        print("repro serve: interrupted, queue state persisted")
        return 0
