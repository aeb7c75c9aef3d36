"""Trace-driven simulation driver, performance model, and run helpers."""

from repro.sim.simulator import Simulator, SimResult
from repro.sim.perf import PerfModel, PerfSummary
from repro.sim.runner import run_workload, run_spec, RunSpec
from repro.sim.parallel import RunFailure, execute_runs, job_count

__all__ = [
    "Simulator",
    "SimResult",
    "PerfModel",
    "PerfSummary",
    "run_workload",
    "run_spec",
    "RunSpec",
    "RunFailure",
    "execute_runs",
    "job_count",
]
