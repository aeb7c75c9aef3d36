"""Replacement policies for set-associative structures.

A policy instance manages one set of ``ways`` slots identified by way
index.  Policies are deliberately tiny state machines so hypothesis can
drive them hard in the property tests.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence


class ReplacementPolicy:
    """Interface: track touches and nominate victims for one set."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.ways = ways

    def touch(self, way: int) -> None:
        """Record a use of ``way`` (hit or fill)."""
        raise NotImplementedError

    def victim(self, protected: Optional[Iterable[int]] = None) -> int:
        """Pick a way to evict, avoiding ``protected`` ways when possible."""
        raise NotImplementedError

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range [0,{self.ways})")


class LRUPolicy(ReplacementPolicy):
    """True LRU via an ordered list (most recent at the end)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        order = self._order
        # Re-touching the MRU way is the common case on the hot path and
        # a no-op; ``order`` only ever holds valid ways, so matching its
        # tail also implies the bounds check passed.
        if order[-1] == way:
            return
        self._check_way(way)
        order.remove(way)
        order.append(way)

    def victim(self, protected: Optional[Iterable[int]] = None) -> int:
        banned = set(protected) if protected else set()
        for way in self._order:
            if way not in banned:
                return way
        # Everything protected: fall back to strict LRU order.
        return self._order[0]

    def mru_way(self) -> int:
        """The most recently used way (used by the replication heuristic)."""
        return self._order[-1]


def lru_orders(stores: Iterable[Sequence[ReplacementPolicy]]
               ) -> Optional[List[List[List[int]]]]:
    """Per-store, per-set ``_order`` lists when every policy is plain LRU.

    Returns None if any store has another policy.  The batched driver's
    fast-path probes inline the LRU touch (MRU early-out +
    remove/append); a store with any other policy is simply not
    fast-pathed, keeping the inlined touch exactly equivalent to
    :meth:`LRUPolicy.touch`.
    """
    orders: List[List[List[int]]] = []
    for policies in stores:
        if not all(type(p) is LRUPolicy for p in policies):
            return None
        orders.append([p._order for p in policies])  # type: ignore[attr-defined]
    return orders


class PseudoLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU; cheap approximation used for wide LLC sets."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError("pseudo-LRU requires a power-of-two way count")
        self._bits = [False] * max(ways - 1, 1)
        self._last_touched = 0

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._last_touched = way
        node, low, high = 0, 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            went_right = way >= mid
            self._bits[node] = not went_right  # point away from the touched half
            node = 2 * node + (2 if went_right else 1)
            if went_right:
                low = mid
            else:
                high = mid

    def _walk(self) -> int:
        node, low, high = 0, 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            go_right = self._bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low = mid
            else:
                high = mid
        return low

    def victim(self, protected: Optional[Iterable[int]] = None) -> int:
        banned = set(protected) if protected else set()
        choice = self._walk()
        if choice not in banned:
            return choice
        for way in range(self.ways):
            if way not in banned:
                return way
        return choice

    def mru_way(self) -> int:
        return self._last_touched


class RandomPolicy(ReplacementPolicy):
    """Seeded random replacement (deterministic per instance)."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)
        self._last_touched = 0

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._last_touched = way

    def victim(self, protected: Optional[Iterable[int]] = None) -> int:
        banned = set(protected) if protected else set()
        candidates = [w for w in range(self.ways) if w not in banned]
        if not candidates:
            candidates = list(range(self.ways))
        return self._rng.choice(candidates)

    def mru_way(self) -> int:
        return self._last_touched


PolicyFactory = Callable[[int], ReplacementPolicy]


def make_policy(name: str, seed: int = 0) -> PolicyFactory:
    """Factory-of-factories: ``make_policy('lru')(ways) -> policy``."""
    name = name.lower()
    if name == "lru":
        return LRUPolicy
    if name in ("plru", "pseudo-lru"):
        return PseudoLRUPolicy
    if name == "random":
        counter = [seed]

        def build(ways: int) -> ReplacementPolicy:
            counter[0] += 1
            return RandomPolicy(ways, seed=counter[0])

        return build
    raise ValueError(f"unknown replacement policy: {name!r}")
