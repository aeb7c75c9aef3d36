"""Two-level TLB model for the baseline hierarchies.

The baselines pay a TLB lookup on every access (latency folded into the
L1 pipeline for L1-TLB hits, exposed for L2-TLB hits and page walks).
D2M replaces the TLB with the virtually tagged MD1, which is one of the
paper's energy arguments; the TLB model therefore only needs hit/miss
behaviour and per-access energy accounting hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.params import TLBConfig
from repro.common.stats import StatGroup
from repro.mem.sram import SetAssocStore


@dataclass
class TLBResult:
    """Outcome of one translation."""

    level: int          # 1 = L1 TLB hit, 2 = L2 TLB hit, 3 = page walk
    latency: int


class TwoLevelTLB:
    """Per-core two-level TLB with a fixed-cost page-walk fallback."""

    PAGE_WALK_LATENCY = 80  # cycles; a walk touches multiple levels of PT

    def __init__(self, config: TLBConfig, l1_latency: int, l2_latency: int,
                 stats: StatGroup) -> None:
        self.config = config
        self._l1 = SetAssocStore[bool](
            config.l1_entries // config.l1_ways, config.l1_ways
        )
        self._l2 = SetAssocStore[bool](
            config.l2_entries // config.l2_ways, config.l2_ways
        )
        self._l1_latency = l1_latency
        self._l2_latency = l2_latency
        self.stats = stats
        # Translation runs once per simulated access and its three
        # outcomes have fixed latencies, so the result objects are
        # preallocated (callers only read them, never mutate).
        self._hit1 = TLBResult(level=1, latency=l1_latency)
        self._hit2 = TLBResult(level=2, latency=l1_latency + l2_latency)
        self._walk = TLBResult(
            level=3,
            latency=l1_latency + l2_latency + self.PAGE_WALK_LATENCY,
        )

    def fastpath_view(self):
        """L1-TLB ``(where, orders)`` for the batched driver.

        A fast-path hit replays :meth:`translate`'s L1 case: one
        ``accesses`` + one ``l1_hits`` stat on :attr:`stats` and the L1
        LRU touch; the latency contribution is zero (L1-TLB latency
        is folded into the L1 pipeline stage by the hierarchy).
        """
        return self._l1.fastpath_view()

    def translate(self, vpage: int) -> TLBResult:
        """Look ``vpage`` up, filling on miss; returns level and latency."""
        stats = self.stats
        stats.add("accesses")
        if self._l1.lookup(vpage) is not None:
            stats.add("l1_hits")
            return self._hit1
        if self._l2.lookup(vpage) is not None:
            stats.add("l2_hits")
            self._l1.insert(vpage, True)
            return self._hit2
        stats.add("walks")
        self._l2.insert(vpage, True)
        self._l1.insert(vpage, True)
        return self._walk

    def flush(self) -> None:
        """Drop all translations (context switch)."""
        for level in (self._l1, self._l2):
            for key, _payload in list(level):
                level.invalidate(key)
