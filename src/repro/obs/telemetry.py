"""Per-run telemetry: latency/occupancy/dwell histograms.

A :class:`Telemetry` object observes one simulation run without
perturbing it — it never touches the machine's stats, LRU state, or
RNGs, so a telemetered run produces bit-identical statistics (the same
contract the coherence sanitizer honors).  It collects:

* ``latency.<level>`` — access latency per service level (L1, L2,
  LLC-local, LLC-remote, remote-node, memory, late-hit), fed by the
  simulator once per recorded access;
* ``mshr.residency`` — cycles each MSHR entry spends outstanding;
* ``noc.hops`` — per-message hop counts, derived after the run from the
  network's ``(kind, hops)`` counts (zero hot-path cost);
* ``dwell.private`` / ``dwell.shared`` / ``dwell.untracked`` — how many
  accesses a region spends in each §II/Table II classification before
  leaving it, reconstructed from the ``md3.pb_*`` event stream exactly
  like the sanitizer's PB mirror;
* ``md1.occupancy`` / ``md2.occupancy`` — valid-entry percentage of the
  per-node metadata stores, sampled every ``sample_every`` accesses.

It is an observer (:mod:`repro.common.observe`): the drivers feed its
``tick``/``on_access``/``on_mshr`` hooks and the protocol its ``emit``.
Telemetry is pay-for-what-you-use: nothing here is imported or invoked
unless a run asks for it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.types import HitLevel
from repro.obs.histogram import Histogram, HistogramSet

#: default occupancy sampling period (accesses)
DEFAULT_SAMPLE_EVERY = 1024

#: RegionClass value names used as dwell histogram suffixes
_DWELL_PRIVATE = "dwell.private"
_DWELL_SHARED = "dwell.shared"
_DWELL_UNTRACKED = "dwell.untracked"


def _class_of(pb_count: int) -> str:
    if pb_count == 0:
        return _DWELL_UNTRACKED
    if pb_count == 1:
        return _DWELL_PRIVATE
    return _DWELL_SHARED


class Telemetry:
    """Histogram collector for one simulation run."""

    __slots__ = ("hists", "sample_every", "accesses", "_latency", "_mshr",
                 "_network", "_nodes", "_pb_count", "_dwell_since",
                 "_dwell_class", "_sample_countdown", "_md1_capacity",
                 "_md2_capacity")

    #: The batched driver (repro.sim.batch) may resolve L1 hits without
    #: the protocol: :meth:`emit` only reacts to ``md3.*`` events, which
    #: an L1 fast hit never produces.  The driver hooks (:meth:`tick`,
    #: :meth:`on_access`, :meth:`on_mshr`) are still called per access.
    fast_path_safe = True

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.hists = HistogramSet()
        self.sample_every = max(1, sample_every)
        self.accesses = 0
        # per-level latency histograms, resolved once (hot path)
        self._latency: Dict[HitLevel, Histogram] = {
            level: self.hists.get(f"latency.{level.value}", unit="cycles")
            for level in HitLevel
        }
        self._mshr = self.hists.get("mshr.residency", unit="cycles")
        self._network: Optional[object] = None
        self._nodes: Tuple[object, ...] = ()
        self._pb_count: Dict[int, int] = {}
        self._dwell_since: Dict[int, int] = {}
        self._dwell_class: Dict[int, str] = {}
        self._sample_countdown = self.sample_every
        self._md1_capacity = 0
        self._md2_capacity = 0

    # ------------------------------------------------------------ lifecycle

    def bind(self, hierarchy: object, result: object) -> None:
        """Grab the network and, on D2M, the MD stores and PB counts."""
        del result
        self._network = hierarchy.network  # type: ignore[attr-defined]
        protocol = getattr(hierarchy, "protocol", None)
        if protocol is not None:
            self._nodes = tuple(protocol.nodes)
            first = protocol.nodes[0]
            self._md1_capacity = first.md1i.capacity + first.md1d.capacity
            self._md2_capacity = first.md2.capacity
            # Seed the PB mirror so dwell tracking of regions tracked
            # before the run starts from truth, not from empty.
            for pregion, entry in protocol.md3:
                self._pb_count[pregion] = len(entry.pb)
                self._dwell_class[pregion] = _class_of(len(entry.pb))
                self._dwell_since[pregion] = 0

    def finalize(self) -> None:
        """Close open dwell intervals and derive post-run histograms."""
        for pregion, name in self._dwell_class.items():
            dwell = self.accesses - self._dwell_since[pregion]
            if dwell > 0:
                self.hists.get(name, unit="accesses").record(dwell)
        self._dwell_class.clear()
        self._dwell_since.clear()
        network = self._network
        if network is not None:
            hops = network.hop_histogram()  # type: ignore[attr-defined]
            if hops.count:
                self.hists.get("noc.hops", unit="hops").merge(hops)

    # ------------------------------------------------------------ simulator

    def tick(self) -> None:
        """Once per simulated access: clock and occupancy sampling."""
        self.accesses += 1
        self._sample_countdown -= 1
        if self._sample_countdown <= 0:
            self._sample_countdown = self.sample_every
            self._sample_occupancy()

    def on_access(self, level: HitLevel, latency: int) -> None:
        """Record one completed access's (post-MSHR) service latency."""
        hist = self._latency[level]
        hist.record(latency)

    def on_mshr(self, residency: int) -> None:
        """Record how long a new MSHR entry will stay outstanding."""
        self._mshr.record(residency)

    def _sample_occupancy(self) -> None:
        if not self._nodes:
            return
        md1 = self.hists.get("md1.occupancy", unit="%")
        md2 = self.hists.get("md2.occupancy", unit="%")
        md1_cap = self._md1_capacity
        md2_cap = self._md2_capacity
        for node in self._nodes:
            md1.record((len(node.md1i) + len(node.md1d)) * 100  # type: ignore[attr-defined]
                       // md1_cap)
            md2.record(len(node.md2) * 100 // md2_cap)  # type: ignore[attr-defined]

    # ------------------------------------------------------------ events

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        """Feed the PB mirror that drives region dwell-time histograms."""
        if region is None or not kind.startswith("md3."):
            return
        pb_count = self._pb_count
        if kind == "md3.pb_add":
            count = pb_count.get(region, 0) + 1
            pb_count[region] = count
            self._note_class(region, _class_of(count))
        elif kind == "md3.pb_clear":
            count = max(0, pb_count.get(region, 0) - 1)
            pb_count[region] = count
            self._note_class(region, _class_of(count))
        elif kind == "md3.fill":
            pb_count[region] = 0
            self._note_class(region, _DWELL_UNTRACKED)
        elif kind in ("md3.drop", "md3.global_evict"):
            pb_count.pop(region, None)
            self._close_dwell(region)

    def _note_class(self, region: int, name: str) -> None:
        current = self._dwell_class.get(region)
        if current == name:
            return
        if current is not None:
            self._record_dwell(region, current)
        self._dwell_class[region] = name
        self._dwell_since[region] = self.accesses

    def _close_dwell(self, region: int) -> None:
        current = self._dwell_class.pop(region, None)
        if current is not None:
            self._record_dwell(region, current)
        self._dwell_since.pop(region, None)

    def _record_dwell(self, region: int, name: str) -> None:
        dwell = self.accesses - self._dwell_since.get(region, self.accesses)
        if dwell > 0:
            self.hists.get(name, unit="accesses").record(dwell)

    # ------------------------------------------------------------ reporting

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Percentile digests of every non-empty histogram."""
        return self.hists.summaries()
