"""Parallel fan-out of independent simulation runs.

Every run in a sweep is an independent ``(config, workload, seed)``
triple, so the matrix is embarrassingly parallel.  :func:`execute_runs`
maps a picklable task function over :class:`~repro.sim.runner.RunSpec`s
on a ``ProcessPoolExecutor`` with per-run failure isolation: one crashed
run becomes a :class:`RunFailure` in the returned list instead of
killing the sweep, and every completed result is still delivered.

Workers on the multiprocess path capture their own stdout/stderr: each
run's output ships back to the parent with its payload and is replayed
there as one contiguous block, so a ``--jobs N`` sweep never
interleaves two runs' output mid-line.

``jobs == 1`` bypasses multiprocessing entirely and runs in-process, in
spec order — the deterministic path tests and debuggers rely on.
"""

from __future__ import annotations

import io
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import runlog
from repro.sim.runner import RunSpec

#: progress callback: (completed_count, total, spec_just_finished)
ProgressFn = Callable[[int, int, RunSpec], None]
#: result callback, called in the parent as each run lands: (index, payload)
ResultFn = Callable[[int, object], None]
#: worker-output callback: (index, captured_text), parent side
OutputFn = Callable[[int, str], None]


def job_count(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit ``jobs`` > ``REPRO_JOBS`` > CPUs."""
    if jobs is not None and jobs > 0:
        return jobs
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            runlog.warn(f"ignoring non-integer REPRO_JOBS={env!r}")
    return os.cpu_count() or 1


@dataclass
class RunFailure:
    """One run that raised instead of finishing; the sweep carries on."""

    workload: str
    config: str
    seed: int
    error: str

    def __str__(self) -> str:
        return (f"{self.workload} on {self.config} (seed {self.seed}): "
                f"{self.summary()}")

    def summary(self) -> str:
        """The exception line of the traceback.

        Multi-line exception messages (e.g. the sanitizer's forensic
        report) indent their continuation lines, so the exception line
        is the *last non-indented* line, not the last line.
        """
        lines = self.error.strip().splitlines() if self.error else []
        for line in reversed(lines):
            if line and not line[0].isspace():
                return line
        return lines[-1] if lines else "?"


@dataclass
class _WorkerResult:
    """What a captured worker ships back: payload or traceback + output."""

    payload: object
    error: str
    output: str


class _CapturedCall:
    """Picklable wrapper running ``fn`` with stdout/stderr captured."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[RunSpec], object]) -> None:
        self.fn = fn

    def __call__(self, spec: RunSpec) -> _WorkerResult:
        buffer = io.StringIO()
        try:
            with redirect_stdout(buffer), redirect_stderr(buffer):
                payload = self.fn(spec)
        except Exception:
            return _WorkerResult(None, traceback.format_exc(),
                                 buffer.getvalue())
        return _WorkerResult(payload, "", buffer.getvalue())


def _default_output(spec: RunSpec, text: str) -> None:
    """Replay one worker's captured output as a single stderr block."""
    label = f"{spec.workload} on {spec.config.name} (seed {spec.seed})"
    block = f"-- output from {label} --\n{text}"
    if not block.endswith("\n"):
        block += "\n"
    sys.stderr.write(block)
    sys.stderr.flush()
    runlog.emit("worker.output", workload=spec.workload,
                config=spec.config.name, seed=spec.seed, output=text)


def execute_runs(
    specs: Sequence[RunSpec],
    fn: Callable[[RunSpec], object],
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    on_result: Optional[ResultFn] = None,
    on_output: Optional[OutputFn] = None,
) -> Tuple[Dict[int, object], List[RunFailure]]:
    """Run ``fn(spec)`` for every spec, fanning out over processes.

    Returns ``(results, failures)`` where ``results`` maps the spec's
    index in ``specs`` to ``fn``'s return value.  ``fn`` must be a
    module-level callable and its return value picklable (workers ship
    results back through the pool).  ``on_result`` fires in the parent
    as each run lands — before ``progress`` — so callers can persist
    completed runs incrementally and an interrupted sweep keeps them.

    On the multiprocess path each worker's stdout/stderr is buffered
    and replayed in the parent as one block per run via ``on_output``
    (default: a labelled block on stderr), never interleaved; the
    serial path's output is already ordered and passes straight
    through.
    """
    specs = list(specs)
    total = len(specs)
    results: Dict[int, object] = {}
    failures: List[RunFailure] = []
    workers = min(job_count(jobs), total) if total else 1

    def _land(index: int, payload: object, done: int) -> None:
        results[index] = payload
        if on_result is not None:
            on_result(index, payload)
        if progress is not None:
            progress(done, total, specs[index])

    def _fail(index: int, done: int, error: str) -> None:
        spec = specs[index]
        failures.append(RunFailure(spec.workload, spec.config.name,
                                   spec.seed, error))
        if progress is not None:
            progress(done, total, spec)

    def _emit_output(index: int, text: str) -> None:
        if not text:
            return
        if on_output is not None:
            on_output(index, text)
        else:
            _default_output(specs[index], text)

    if workers <= 1:
        for index, spec in enumerate(specs):
            try:
                payload = fn(spec)
            except Exception:
                _fail(index, index + 1, traceback.format_exc())
            else:
                _land(index, payload, index + 1)
        return results, failures

    task = _CapturedCall(fn)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(task, spec): index
                   for index, spec in enumerate(specs)}
        done = 0
        for future in as_completed(futures):
            index = futures[future]
            done += 1
            try:
                worker: _WorkerResult = future.result()
            except Exception:
                # Includes BrokenProcessPool: a hard-killed worker fails
                # the runs it held, and the rest are reported as they
                # drain — the sweep itself survives.
                _fail(index, done, traceback.format_exc())
                continue
            _emit_output(index, worker.output)
            if worker.error:
                _fail(index, done, worker.error)
            else:
                _land(index, worker.payload, done)
    return results, failures
