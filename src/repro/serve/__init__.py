"""Sweep-as-a-service: an asyncio HTTP daemon over the run cache.

``repro serve`` composes the pieces the repo already has — the
content-addressed per-run record cache, per-PID heartbeats +
``progress.jsonl``, the parallel run executor, and the zero-dependency
HTML dashboard — into a long-running service (stdlib only, no new
dependencies):

* ``POST /runs`` submits a run matrix (workloads × configs ×
  instructions/seed/warmup), validated against the workload and system
  registries, and returns a persistent job;
* ``GET /runs/<id>`` streams job status from the queue's job index,
  the job's live worker heartbeats, and ``progress.jsonl``;
* ``GET /records/<key>`` serves cached :class:`RunRecord` JSON with
  strong ETags — the run cache key *is* the ETag, so ``If-None-Match``
  round-trips as ``304 Not Modified``;
* ``GET /dashboard`` renders the observability dashboard live from
  whatever records the cache currently holds;
* ``GET /healthz`` reports queue depths and the simulation counter.

Behind the API sit a **persistent job queue** (an in-memory index
journalled to ``.repro_cache/queue/`` with the same atomic-write
discipline as run records, so a daemon restart resumes pending jobs),
a worker pool reusing :func:`repro.sim.parallel.execute_runs`, and
**request coalescing**:
identical ``(workload, config, instructions, seed, warmup)`` cells —
in-flight or queued — dedupe into one simulation whose result fans out
to every waiting job.

See ``docs/SERVING.md`` for the API reference and deployment notes.
"""

from repro.serve.app import ServeApp, serve_forever
from repro.serve.coalesce import Coalescer
from repro.serve.queue import Job, JobCell, JobQueue
from repro.serve.schema import classify_payload, validate_payload

__all__ = [
    "Coalescer",
    "Job",
    "JobCell",
    "JobQueue",
    "ServeApp",
    "classify_payload",
    "serve_forever",
    "validate_payload",
]
