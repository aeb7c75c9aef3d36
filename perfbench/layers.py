"""Outside-in tracing for the benchmark's traced run.

A :class:`Tracer` replaces the public entry points of each simulator
layer with thin wrappers, from here, without touching ``src/``.  A
wrapper records one span per call (name, start, duration, parent span)
into memory; the spans are written out when the run ends.  A layer's
self time is its span's duration minus the time its child spans cover.

Three wrapper kinds exist:

* ``timed``: one span per call;
* ``count``: a call counter only, for functions too hot to time without
  swamping the run (``StatGroup.add``);
* ``iter``: the call returns a chunk stream, and every ``next()`` is
  timed as a span, so the span covers draining the stream, not creating
  it.  The accesses in each ``(cores, kinds, vaddrs)`` chunk are counted.

Only the thread that created the tracer records; calls from other
threads pass straight through.  :meth:`Tracer.restore` puts every
original function back and reports any attribute that is not the
original afterwards.  A hook whose function no longer exists is listed
in ``Tracer.missing`` and skipped, so a refactor leaves that layer's
figures at zero instead of breaking the traced run.
"""

from __future__ import annotations

import functools
import importlib
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None for a module function, attributes, span, kind)
Hook = Tuple[str, Optional[str], Tuple[str, ...], str, str]

#: simulation-layer entry points, wrapped only around the traced sim
#: pass (forked sweep workers must not inherit them)
SIM_HOOKS: Tuple[Hook, ...] = (
    ("repro.sim.simulator", "Simulator", ("run",), "sim.driver", "timed"),
    ("repro.sim.perf", "PerfModel", ("summarize",), "sim.perf", "timed"),
    ("repro.common.stats", "StatGroup", ("flatten",), "sim.perf", "timed"),
    ("repro.common.stats", "StatGroup", ("add",), "stats.add", "count"),
    ("repro.workloads.base", "SyntheticWorkload", ("generate_batch",),
     "workloads.generate", "iter"),
    ("repro.core.protocol", "D2MProtocol", ("access",), "core.access",
     "timed"),
    ("repro.core.node", "D2MNode", ("lookup",), "core.md1", "timed"),
    ("repro.core.node", "D2MNode", ("lookup_md2", "promote_to_md1"),
     "core.md2", "timed"),
    ("repro.core.md3", "MD3Store", ("lookup", "create", "ensure_capacity"),
     "core.md3", "timed"),
    ("repro.core.llc", "BaseLLC", ("resolve", "fill", "choose_allocation"),
     "core.llc", "timed"),
    ("repro.core.llc", "FarSideLLC", ("resolve", "choose_allocation"),
     "core.llc", "timed"),
    ("repro.core.llc", "NearSideLLC", ("resolve", "choose_allocation"),
     "core.llc", "timed"),
    ("repro.baseline.hierarchy", "BaselineHierarchy", ("access",),
     "baseline.access", "timed"),
    ("repro.baseline.directory", "Directory",
     ("entry", "peek", "add_sharer", "set_owner", "clear_owner",
      "remove_node", "drop"), "baseline.directory", "count"),
    ("repro.noc.network", "Network", ("send", "multicast"), "noc.send",
     "timed"),
    ("repro.energy.model", "EnergyAccountant",
     ("charge_read", "charge_write", "charge_dram", "charge_raw"),
     "energy.charge", "timed"),
    ("repro.mem.tlb", "TwoLevelTLB", ("translate",), "mem.tlb", "count"),
    ("repro.mem.mainmem", "MainMemory", ("read_line", "write_line"),
     "mem.dram", "timed"),
)

#: sweep-layer entry points (module functions, called by attribute)
SWEEP_HOOKS: Tuple[Hook, ...] = (
    ("repro.experiments.runner", None, ("plan_matrix",), "experiments.plan",
     "timed"),
    ("repro.experiments.runner", None, ("execute_plan",),
     "experiments.execute", "timed"),
    ("repro.experiments.runner", None, ("_load_record",),
     "experiments.record_load", "timed"),
)

#: the final-state invariant walk, as ``run_workload`` calls it
CHECK_HOOKS: Tuple[Hook, ...] = (
    ("repro.sim.runner", None, ("_full_invariant_walk",),
     "analysis.invariants", "timed"),
)

#: spans the batched driver calls for the protocol slow tail
SLOW_TAIL = ("core.access", "baseline.access")

#: spans kept for the report; totals stay exact past the cap
MAX_SPANS = 20_000


class Tracer:
    """In-memory span recorder fed by wrappers around layer functions."""

    def __init__(self) -> None:
        self._owner = threading.get_ident()
        #: open spans, innermost last: [child_s, span_id, name, start]
        self._stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        #: (parent name, child name) -> total_s of the child's spans
        self.edges: Dict[Tuple[str, str], float] = {}
        #: name -> accesses yielded by an ``iter`` span
        self.items: Dict[str, int] = {}
        #: (span_id, parent_id, name, start, dur_s, self_s), capped
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self.dropped = 0
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []
        #: hooked names that do not exist in this version of the code
        self.missing: List[str] = []

    # -------------------------------------------------------------- spans

    def _enter(self, name: str) -> list:
        frame = [0.0, self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        dur = perf_counter() - frame[3]
        stack = self._stack
        stack.pop()
        self_s = dur - frame[0]
        name = frame[2]
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[0] += dur
            parent_id = parent[1]
            edge = (parent[2], name)
            self.edges[edge] = self.edges.get(edge, 0.0) + dur
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += dur
        totals[2] += self_s
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], parent_id, name, frame[3], dur,
                               self_s))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def edge_s(self, parent: str, child: str) -> float:
        return self.edges.get((parent, child), 0.0)

    # ----------------------------------------------------------- wrappers

    def _timed(self, fn: Callable, name: str) -> Callable:
        owner, enter, leave = self._owner, self._enter, self._exit
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner:
                return fn(*args, **kwargs)
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    def _count(self, fn: Callable, name: str) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            totals[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter(self, fn: Callable, name: str) -> Callable:
        enter, leave, items = self._enter, self._exit, self.items

        def drain(stream: Iterator) -> Iterator:
            while True:
                frame = enter(name)
                try:
                    chunk = next(stream)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                items[name] = items.get(name, 0) + len(chunk[0])
                yield chunk

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return drain(iter(fn(*args, **kwargs)))
        return wrapper

    def install(self, hooks: Tuple[Hook, ...]) -> None:
        """Wrap every attribute the hooks name (restore with restore())."""
        makers = {"timed": self._timed, "count": self._count,
                  "iter": self._iter}
        for module_name, class_name, attrs, name, kind in hooks:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            for attr in attrs:
                original = vars(owner).get(attr) if owner else None
                if original is None:
                    self.missing.append(
                        ".".join(filter(None, (module_name, class_name,
                                               attr))))
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, makers[kind](original, name))

    def restore(self) -> List[str]:
        """Put every original back; return the attributes that are not."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        problems = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr, original in self._patches
                    if vars(owner).get(attr) is not original]
        self._patches = []
        return problems

    def dump(self) -> Dict[str, object]:
        """Everything recorded, JSON-ready (spans as parent-linked rows)."""
        return {
            "totals": {name: {"calls": int(v[0]), "total_s": v[1],
                              "self_s": v[2]}
                       for name, v in sorted(self.totals.items())},
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start": s[3], "dur_s": s[4], "self_s": s[5]}
                      for s in self.spans],
            "dropped_spans": self.dropped,
            "missing_hooks": self.missing,
        }
