"""D2M: a split metadata/data cache hierarchy — paper reproduction.

Reproduces *A Split Cache Hierarchy for Enabling Data-oriented
Optimizations* (Sembrant, Hagersten, Black-Schaffer; HPCA 2017) as a
trace-driven Python simulator: the D2M split hierarchy itself, the
Base-2L/Base-3L MESI-directory baselines it is evaluated against, the
synthetic workload suites, and harnesses regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import base_2l, d2m_ns_r, run_workload

    base = run_workload(base_2l(), "tpcc", instructions=60_000)
    d2m = run_workload(d2m_ns_r(), "tpcc", instructions=60_000)
    print(base.perf.cycles / d2m.perf.cycles)  # speedup

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.common.params import (
    SystemConfig,
    all_configs,
    base_2l,
    base_3l,
    d2m_fs,
    d2m_ns,
    d2m_ns_r,
)
from repro.common.types import Access, AccessKind, AccessResult, HitLevel
from repro.core.hierarchy import D2MHierarchy, build_hierarchy
from repro.baseline.hierarchy import BaselineHierarchy
from repro.sim.runner import run_workload
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "Access",
    "AccessKind",
    "AccessResult",
    "BaselineHierarchy",
    "D2MHierarchy",
    "HitLevel",
    "Simulator",
    "SystemConfig",
    "all_configs",
    "base_2l",
    "base_3l",
    "build_hierarchy",
    "d2m_fs",
    "d2m_ns",
    "d2m_ns_r",
    "make_workload",
    "run_workload",
    "workload_names",
]
