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

Each fallback access is classified by the hierarchy's spec
(:func:`repro.verify.spec.spec_for`: ``mesi`` or ``d2m``) through the
:class:`~repro.verify.spec.SignalTable` runtime coverage uses, fed with
two read-only signals:

* **signature counters that grew** — :meth:`bind` resolves every stat
  key the spec's ``stat:`` signatures name to its counter (11 MESI, 25
  D2M); only those are read, before each fallback access and after.
* **protocol emits** — the profiler is an event observer with
  ``fast_path_safe = True``: the batched driver keeps its fast paths
  enabled and ``emit`` fires only on fallback accesses, which is
  exactly the population being attributed (the MESI baselines emit
  nothing; their counters classify them).

An access matching several classes splits its time equally among them
(rows sharing one signature, e.g. ``mesi.load.miss_llc_shared`` and
``_excl`` on ``stat:reads.llc``, always do); one matching none lands in
``unclassified``.  Step rows (``Transition.step``: ``d2m.install``,
``d2m.md.md1_hit``) fire on most D2M slow accesses without naming a
behaviour, so they are counted but take seconds only from an access
that fired nothing else.  Observation mutates nothing, so profiled runs
keep the bit-identical-statistics guarantee of the batched driver.
"""

from __future__ import annotations

import time
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatGroup
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

    __slots__ = ("_classify", "_steps", "_watch", "_before", "_acc_events",
                 "_pending_slow_ns", "class_ns", "class_n", "fast_ns",
                 "slow_ns", "slow_accesses", "chunks", "_chunk_hist",
                 "_slow_hist", "_chunk_t", "started_s")

    def __init__(self) -> None:
        self._acc_events: List[Tuple[str, str]] = []
        self._before: List[Tuple[Optional[float], ...]] = []
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
        """Pick the hierarchy's spec, resolve its signature stat keys to
        counters per stat group, and start the first chunk's clock."""
        del result
        from repro.verify.spec import spec_for

        table = spec_for(hierarchy).table
        root = hierarchy.stats  # type: ignore[attr-defined]
        watch: Dict[StatGroup, List[Tuple[str, str]]] = {}
        for key in table.stats:
            for group, name in root.locate(key):
                watch.setdefault(group, []).append((name, key))
        self._classify = table.classify
        self._steps = table.steps
        self._watch = tuple((group.read, *zip(*pairs))
                            for group, pairs in watch.items())
        self._chunk_t = time.perf_counter_ns()

    # -- events (slow-tail accesses only, via fast_path_safe) --------------

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        del node, line, region, idx
        self._acc_events.append((kind, detail))

    # -- driver hooks ------------------------------------------------------

    def slow_start(self) -> None:
        """Right before a fallback access: read the signature counters."""
        self._acc_events.clear()
        self._before = [read(names) for read, names, _ in self._watch]

    def slow_done(self, ns: int) -> None:
        """A fallback access took ``ns``; attribute it to spec classes
        (counters are only added to, so one that changed grew).  Every
        class fired counts the access; its seconds split among the
        non-step classes, or among the step ones if only they fired."""
        grown: List[str] = []
        for (read, names, keys), before in zip(self._watch, self._before):
            after = read(names)
            if after != before:
                grown += compress(keys, map(ne, before, after))
        tids = self._classify(grown, self._acc_events) or (UNCLASSIFIED,)
        self._acc_events.clear()
        steps = self._steps
        timed = [tid for tid in tids if tid not in steps] or list(tids)
        share = ns / len(timed)
        class_ns = self.class_ns
        class_n = self.class_n
        for tid in tids:
            class_n[tid] = class_n.get(tid, 0) + 1
        for tid in timed:
            class_ns[tid] = class_ns.get(tid, 0.0) + share
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
        class but splits its seconds (step rows aside, see
        :meth:`slow_done`), so ``sum(s) == slow_s`` while
        ``sum(n) >= slow_accesses``.  Wall time covers the whole run
        including warm-up (this is wall-clock attribution, not ROI
        statistics).
        """
        classes = {
            tid: {"s": round(self.class_ns.get(tid, 0.0) / 1e9, 6), "n": n}
            for tid, n in self.class_n.items()
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
