"""Persistent job queue under ``.repro_cache/queue/``.

The queue's memory is its index and its directory is its journal.  A
:class:`JobQueue` keeps every job it accepted in a dict, and
:meth:`JobQueue.save` writes each change through to ``<id>.json`` with
the same ``tempfile`` + ``os.replace`` atomic-write discipline as run
records: readers only ever see absent or complete job files, even
across a mid-write kill.  Claims, status reads and counts read the
dict, never the directory.

The directory is read once, by :meth:`JobQueue.recover` at daemon
start: it loads every job file and re-marks jobs interrupted
mid-``running`` as ``pending``; their already-simulated cells are
found in the run cache on re-execution, so nothing is lost and nothing
runs twice.  A daemon therefore drains the jobs it accepted or
recovered, not files another process writes later.  Offline readers
(``repro timeline --job``) parse one file with :func:`read_job`.

Jobs drain oldest-first (``created_ts``, then id, so ordering is total
even within one timestamp tick).
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import atomic_write_json
from repro.serve.schema import CELL_STATES, JOB_STATES


@dataclass
class JobCell:
    """One (workload, config) cell of a job's run matrix."""

    workload: str
    config: str
    key: str               # run cache key = record address = ETag
    state: str = "pending"  # one of schema.CELL_STATES

    def __post_init__(self) -> None:
        if self.state not in CELL_STATES:
            raise ValueError(f"bad cell state {self.state!r}")


@dataclass
class Job:
    """A submitted run matrix and its per-cell progress."""

    id: str
    state: str
    created_ts: float
    request: Dict[str, object]
    cells: List[JobCell] = field(default_factory=list)
    error: str = ""
    #: correlation id minted at submission; threads through every span,
    #: runlog event and heartbeat this job produces ("" on pre-PR-9 jobs)
    trace: str = ""

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"bad job state {self.state!r}")

    @property
    def done_cells(self) -> int:
        return sum(1 for cell in self.cells
                   if cell.state in ("cached", "simulated", "coalesced"))

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["done_cells"] = self.done_cells
        payload["total_cells"] = len(self.cells)
        return payload

    @staticmethod
    def from_json(data: dict) -> "Job":
        cells = [JobCell(**cell) for cell in data.get("cells", [])]
        return Job(id=data["id"], state=data["state"],
                   created_ts=float(data["created_ts"]),
                   request=dict(data["request"]), cells=cells,
                   error=str(data.get("error", "")),
                   trace=str(data.get("trace", "")))


def new_job_id() -> str:
    """A fresh, unguessable-enough job id (not content-addressed:
    identical submissions are distinct jobs; dedup happens per cell)."""
    return uuid.uuid4().hex[:12]


def read_job(directory: Path, job_id: str) -> Optional[Job]:
    """The job journalled as ``<job_id>.json`` under ``directory``, or
    None when absent/corrupt (treated as a miss, mirroring the
    run-record cache)."""
    try:
        path = Path(directory) / f"{job_id}.json"
        return Job.from_json(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, TypeError, KeyError):
        return None


class JobQueue:
    """In-memory job index, journalled to a directory with atomic
    writes and rebuilt from it by :meth:`recover`."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._jobs: Dict[str, Job] = {}

    def save(self, job: Job) -> None:
        """Index ``job`` and write it through to its journal file."""
        atomic_write_json(self.directory / f"{job.id}.json", job.to_json())
        self._jobs[job.id] = job

    def load(self, job_id: str) -> Optional[Job]:
        """The indexed job (the live object the daemon updates), or
        None."""
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every indexed job, oldest first (created_ts, then id)."""
        return sorted(self._jobs.values(), key=_age)

    def next_pending(self) -> Optional[Job]:
        return min((job for job in self._jobs.values()
                    if job.state == "pending"), key=_age, default=None)

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def recover(self) -> List[str]:
        """Index every readable job file, and re-queue the jobs a dead
        daemon left mid-``running``.

        Their cached cells will be found complete on re-execution, so
        recovery neither loses nor duplicates work.  Returns the
        recovered job ids, oldest first.
        """
        for path in self.directory.glob("*.json"):
            job = read_job(self.directory, path.stem)
            if job is not None:
                self._jobs[job.id] = job
        recovered: List[str] = []
        for job in self.jobs():
            if job.state == "running":
                job.state = "pending"
                self.save(job)
                recovered.append(job.id)
        return recovered


def _age(job: Job) -> Tuple[float, str]:
    return job.created_ts, job.id


def make_job(request: Dict[str, object], cells: List[JobCell],
             trace: str = "") -> Job:
    """A freshly submitted (pending) job document."""
    return Job(id=new_job_id(), state="pending",
               created_ts=round(time.time(), 3), request=request,
               cells=cells, trace=trace)
