"""Slow-tail time attribution for the batched driver (``--profile-attrib``).

The batched driver (:mod:`repro.sim.batch`) resolves most accesses on an
inline fast path and falls back to the full protocol state machine for
the rest; after PR 6 the remaining wall time *is* that slow tail, but
nothing said which protocol behaviour it buys.  This profiler answers
that: it buckets each chunk's wall time into fast-path vs slow-tail, and
attributes every fallback access's time to the verify-spec transition
classes (:mod:`repro.verify.spec` — the paper's A/B/C, D1–D4, E/F
taxonomy) it exercised, producing a ranked per-transition-class target
list for the next optimization PR.

Attribution uses two read-only signals, both derived from the spec's own
``coverage`` signatures:

* **protocol emits** — the profiler is an event observer with
  ``fast_path_safe = True``: the batched driver keeps its fast paths
  enabled and ``emit`` fires only on fallback accesses, which is
  exactly the population being attributed.  Observed ``(kind, detail)``
  pairs resolve through :func:`repro.verify.spec.coverage_event_index`.
* **events-counter diffs** — the A/B/C/E/F taxonomy is recorded via the
  protocol's ``events`` :class:`~repro.common.stats.StatGroup`, not
  emits; the profiler snapshots that (tiny) group before each fallback
  access and diffs it after, resolving bumped keys through
  :func:`repro.verify.spec.coverage_stat_index`.

An access matching several classes splits its time equally among them;
one matching none lands in ``unclassified`` (always true for the MESI
baselines, which emit no events — they still get the fast/slow wall
split).  Observation mutates nothing, so profiled runs keep the
bit-identical-statistics guarantee of the batched driver.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.obs.histogram import Histogram

#: the catch-all class for slow time no spec row claims
UNCLASSIFIED = "unclassified"

#: keys every profile digest carries (schema for records/lint/tests)
PROFILE_KEYS = ("driver", "wall_s", "fast_s", "slow_s", "chunks",
                "slow_accesses", "classes", "hists")


class AttributionProfiler:
    """Per-chunk fast/slow wall-time split + per-class slow attribution.

    An observer (:mod:`repro.common.observe`) of the batched driver:
    :meth:`slow_start` runs immediately before a fallback
    ``machine_access`` and :meth:`slow_done` gets its elapsed
    nanoseconds after; each ``on_chunk`` boundary closes one chunk of
    wall time (:meth:`chunk_done`).  :meth:`emit` collects the protocol
    events of the fallback access in flight.
    """

    #: keeps the batched fast path enabled; hooks then observe exactly
    #: the slow-tail accesses (same mechanism Telemetry uses)
    fast_path_safe = True

    __slots__ = ("_emit_index", "_stat_index", "_events_group",
                 "_acc_events", "_stat_snapshot", "_pending_slow_ns",
                 "class_ns", "class_n", "fast_ns", "slow_ns",
                 "slow_accesses", "chunks", "_chunk_hist", "_slow_hist",
                 "_chunk_t", "started_s")

    def __init__(self) -> None:
        from repro.verify.spec import (
            coverage_event_index,
            coverage_stat_index,
        )
        self._emit_index = coverage_event_index()
        self._stat_index = tuple(coverage_stat_index().items())
        self._events_group: Optional[object] = None
        self._acc_events: List[Tuple[str, str]] = []
        self._stat_snapshot: Dict[str, float] = {}
        self._pending_slow_ns = 0
        self.class_ns: Dict[str, float] = {}
        self.class_n: Dict[str, int] = {}
        self.fast_ns = 0
        self.slow_ns = 0
        self.slow_accesses = 0
        self.chunks = 0
        self._chunk_hist = Histogram("profile.chunk_ns", unit="ns")
        self._slow_hist = Histogram("profile.slow_access_ns", unit="ns")
        self._chunk_t = time.perf_counter_ns()
        self.started_s = time.perf_counter()

    # -- binding -----------------------------------------------------------

    def bind(self, hierarchy: object, result: object) -> None:
        """Grab the protocol's ``events`` group for per-access diffs
        (baselines have none; they stay unclassified) and start the
        first chunk's clock."""
        del result
        protocol = getattr(hierarchy, "protocol", None)
        self._events_group = getattr(protocol, "events", None)
        self._chunk_t = time.perf_counter_ns()

    # -- events (slow-tail accesses only, via fast_path_safe) --------------

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        del node, line, region, idx
        self._acc_events.append((kind, detail))

    # -- driver hooks ------------------------------------------------------

    def slow_start(self) -> None:
        """Right before a fallback access: snapshot the events counters."""
        self._acc_events.clear()
        group = self._events_group
        if group is not None:
            self._stat_snapshot = dict(group.counters())  # type: ignore[attr-defined]

    def slow_done(self, ns: int) -> None:
        """A fallback access took ``ns``; attribute it to spec classes."""
        tids = set()
        emit_index = self._emit_index
        for kind, detail in self._acc_events:
            entries = emit_index.get(kind)
            if entries is None:
                continue
            for prefix, tid in entries:  # longest prefix first
                if detail.startswith(prefix):
                    tids.add(tid)
                    break
        group = self._events_group
        if group is not None:
            before = self._stat_snapshot
            for key, tid in self._stat_index:
                if group.get(key) > before.get(key, 0.0):  # type: ignore[attr-defined]
                    tids.add(tid)
        self._acc_events.clear()
        if not tids:
            tids = {UNCLASSIFIED}
        share = ns / len(tids)
        class_ns = self.class_ns
        class_n = self.class_n
        for tid in tids:
            class_ns[tid] = class_ns.get(tid, 0.0) + share
            class_n[tid] = class_n.get(tid, 0) + 1
        self.slow_ns += ns
        self.slow_accesses += 1
        self._pending_slow_ns += ns
        self._slow_hist.record(ns)

    def on_chunk(self, instructions: int, accesses: int,
                 streamed: int) -> None:
        """A chunk boundary: its wall time since the previous one."""
        del instructions, accesses, streamed
        now = time.perf_counter_ns()
        self.chunk_done(now - self._chunk_t)
        self._chunk_t = now

    def chunk_done(self, ns: int) -> None:
        """A chunk finished in ``ns``; the non-slow remainder is fast."""
        self.chunks += 1
        self.fast_ns += max(ns - self._pending_slow_ns, 0)
        self._pending_slow_ns = 0
        self._chunk_hist.record(ns)

    # -- export ------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """The profile digest persisted in run records.

        ``classes`` maps transition id -> ``{"s": seconds, "n": access
        count}``; an access exercising several classes counts once per
        class but splits its seconds, so ``sum(s) == slow_s`` while
        ``sum(n) >= slow_accesses``.  Wall time covers the whole run
        including warm-up (this is wall-clock attribution, not ROI
        statistics).
        """
        classes = {
            tid: {"s": round(self.class_ns[tid] / 1e9, 6),
                  "n": self.class_n.get(tid, 0)}
            for tid in self.class_ns
        }
        return {
            "driver": "batched",
            "wall_s": round((self.fast_ns + self.slow_ns) / 1e9, 6),
            "fast_s": round(self.fast_ns / 1e9, 6),
            "slow_s": round(self.slow_ns / 1e9, 6),
            "chunks": self.chunks,
            "slow_accesses": self.slow_accesses,
            "classes": classes,
            "hists": {
                "chunk_ns": self._chunk_hist.summary(),
                "slow_access_ns": self._slow_hist.summary(),
            },
        }


def profile_ranking(profile: Dict[str, object]
                    ) -> List[Tuple[str, float, int]]:
    """``(tid, seconds, count)`` rows of a profile digest, most
    expensive first — the shared shape behind the CLI table and the
    dashboard panel."""
    classes = profile.get("classes")
    if not isinstance(classes, dict):
        return []
    rows: List[Tuple[str, float, int]] = []
    for tid, entry in classes.items():
        if not isinstance(entry, dict):
            continue
        rows.append((str(tid), float(entry.get("s", 0.0)),
                     int(entry.get("n", 0))))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def profile_text(profile: Dict[str, object]) -> str:
    """Human-readable rendering of one profile digest (CLI output)."""
    if not profile:
        return ("no attribution profile (run was not simulated with "
                "--profile-attrib)")
    lines = [
        "slow-tail attribution "
        f"(wall {profile.get('wall_s', 0.0)}s: "
        f"fast {profile.get('fast_s', 0.0)}s, "
        f"slow {profile.get('slow_s', 0.0)}s over "
        f"{profile.get('slow_accesses', 0)} fallback accesses, "
        f"{profile.get('chunks', 0)} chunks)"
    ]
    for tid, seconds, count in profile_ranking(profile):
        lines.append(f"  {tid:<24s}{seconds:>10.4f}s  {count:>10d}x")
    return "\n".join(lines)


def validate_profile(profile: object) -> List[str]:
    """Schema-check one persisted profile digest; returns problems."""
    problems: List[str] = []
    if not isinstance(profile, dict):
        return [f"profile is {type(profile).__name__}, not a mapping"]
    if not profile:
        return problems  # unprofiled record: empty digest is the contract
    missing = [key for key in PROFILE_KEYS if key not in profile]
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    unknown = sorted(set(profile) - set(PROFILE_KEYS))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    for key in ("wall_s", "fast_s", "slow_s"):
        value = profile.get(key, 0.0)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            problems.append(f"{key} is not a non-negative number: {value!r}")
    classes = profile.get("classes", {})
    if not isinstance(classes, dict):
        problems.append("classes is not a mapping")
    else:
        for tid, entry in classes.items():
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("s"), (int, float))
                    and isinstance(entry.get("n"), int)):
                problems.append(f"malformed class entry for {tid!r}")
    return problems
