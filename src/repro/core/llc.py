"""The D2M last-level cache: far-side (one bank) or near-side (slices).

Both variants are tag-less :class:`DataArray` collections addressed via
LI pointers.  The near-side variant (paper §IV-B) co-locates one slice
with each node and implements the pressure-based allocation policy: a
node allocates in its own slice when local pressure is no higher than
the remote average, otherwise 80 % locally / 20 % in the least-pressured
remote slice.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError, InvariantViolation
from repro.common.params import SystemConfig
from repro.core.datastore import DataArray, DataLine
from repro.core.li import LI, LIKind
from repro.noc.topology import FAR_SIDE_HUB

#: eviction-cost classes for LLC victim selection (lower = preferred)
_COST_UNTRACKED = 0     # only MD3 tracks it and nobody shares: silent
_COST_NODE_TRACKED = 1  # one RP/LI update message; usually a redundant copy
_COST_SHARED = 2        # a shared master: NewMaster multicast to all sharers


def llc_victim_cost(classify_untracked) -> "callable":
    """Build a victim-cost function given a region-untracked predicate.

    Untracked regions evict silently (paper §IV-A) so they go first;
    node-private copies cost one message and are usually replicas of data
    that survives elsewhere; masters of shared regions are the most
    expensive (multicast) and most valuable, so they go last.
    """

    def cost(slot: DataLine) -> int:
        if slot.tracked_by_node is not None:
            return _COST_NODE_TRACKED
        return _COST_UNTRACKED if classify_untracked(slot.region) else _COST_SHARED

    return cost


class SlotRef:
    """A resolved LLC slot location."""

    __slots__ = ("slice_owner", "set_idx", "way")

    def __init__(self, slice_owner: Optional[int], set_idx: int, way: int) -> None:
        self.slice_owner = slice_owner  # None = far-side bank
        self.set_idx = set_idx
        self.way = way

    def __repr__(self) -> str:
        where = "FS" if self.slice_owner is None else f"S{self.slice_owner}"
        return f"SlotRef({where}[{self.set_idx}][{self.way}])"


class BaseLLC:
    """Interface shared by the far-side and near-side variants."""

    def array_of(self, slice_owner: Optional[int]) -> DataArray:
        raise NotImplementedError

    def resolve(self, li: LI, line: int, scramble: int) -> SlotRef:
        """Slot location for an LLC-pointing LI (set from line+scramble)."""
        raise NotImplementedError

    def li_for(self, ref: SlotRef) -> LI:
        """The LI encoding of a slot location."""
        raise NotImplementedError

    def endpoint(self, ref: SlotRef) -> int:
        """Network endpoint owning the slot (hub or slice node)."""
        raise NotImplementedError

    def choose_allocation(self, node: int, line: int, scramble: int,
                          cost) -> Tuple[SlotRef, Optional[DataLine]]:
        """Pick a slot for a fill; returns the location and its current
        occupant (which the protocol must evict before calling ``fill``)."""
        raise NotImplementedError

    def get(self, ref: SlotRef) -> Optional[DataLine]:
        return self.array_of(ref.slice_owner).get(ref.set_idx, ref.way)

    def expect(self, ref: SlotRef, line: int) -> DataLine:
        return self.array_of(ref.slice_owner).expect(ref.set_idx, ref.way, line)

    def fill(self, ref: SlotRef, data: DataLine) -> None:
        self.array_of(ref.slice_owner).put(ref.set_idx, ref.way, data)

    def clear(self, ref: SlotRef) -> DataLine:
        return self.array_of(ref.slice_owner).clear(ref.set_idx, ref.way)

    def touch(self, ref: SlotRef) -> None:
        self.array_of(ref.slice_owner).touch(ref.set_idx, ref.way)

    def is_mru(self, ref: SlotRef) -> bool:
        return self.array_of(ref.slice_owner).is_mru(ref.set_idx, ref.way)

    def is_recent(self, ref: SlotRef) -> bool:
        return self.array_of(ref.slice_owner).is_recent(ref.set_idx, ref.way)

    def lines_of_region(self, region: int) -> Iterator[Tuple[SlotRef, DataLine]]:
        raise NotImplementedError

    def occupancy(self) -> int:
        raise NotImplementedError


class FarSideLLC(BaseLLC):
    """One shared LLC bank across the interconnect (Figure 2)."""

    def __init__(self, config: SystemConfig) -> None:
        self.array = DataArray("llc", config.llc.sets, config.llc.ways)

    def array_of(self, slice_owner: Optional[int]) -> DataArray:
        if slice_owner is not None:
            raise InvariantViolation("far-side LLC has no slices")
        return self.array

    def resolve(self, li: LI, line: int, scramble: int) -> SlotRef:
        if li.kind is not LIKind.LLC:
            raise InvariantViolation(f"far-side LLC cannot resolve {li}")
        return SlotRef(None, self.array.set_of(line, scramble), li.way)

    def li_for(self, ref: SlotRef) -> LI:
        return LI.in_llc(ref.way)

    def endpoint(self, ref: SlotRef) -> int:
        return FAR_SIDE_HUB

    def choose_allocation(self, node: int, line: int, scramble: int,
                          cost) -> Tuple[SlotRef, Optional[DataLine]]:
        set_idx = self.array.set_of(line, scramble)
        way = self.array.victim_way(set_idx, cost)
        ref = SlotRef(None, set_idx, way)
        return ref, self.array.get(set_idx, way)

    def lines_of_region(self, region: int) -> Iterator[Tuple[SlotRef, DataLine]]:
        for set_idx, way, slot in self.array.lines_of_region(region):
            yield SlotRef(None, set_idx, way), slot

    def occupancy(self) -> int:
        return self.array.occupancy()


class NearSideLLC(BaseLLC):
    """Per-node LLC slices on the core side of the NoC (Figure 3)."""

    def __init__(self, config: SystemConfig, seed: int = 1234) -> None:
        slice_geom = config.llc_slice
        self.nodes = config.nodes
        self.slices: List[DataArray] = [
            DataArray(f"llc.s{n}", slice_geom.sets, slice_geom.ways)
            for n in range(config.nodes)
        ]
        self.local_fraction = config.policy.ns_local_alloc_fraction
        self.pressure_window = config.policy.ns_pressure_window
        self._rng = random.Random(seed)
        self._pressures = [0] * config.nodes       # last shared snapshot
        self._last_replacements = [0] * config.nodes
        self._accesses_since_share = 0
        self.pressure_shares = 0  # windows elapsed (message accounting hook)

    def array_of(self, slice_owner: Optional[int]) -> DataArray:
        if slice_owner is None:
            raise InvariantViolation("near-side LLC has no far-side bank")
        return self.slices[slice_owner]

    def resolve(self, li: LI, line: int, scramble: int) -> SlotRef:
        if li.kind is not LIKind.LLC_SLICE:
            raise InvariantViolation(f"near-side LLC cannot resolve {li}")
        array = self.slices[li.node]
        return SlotRef(li.node, array.set_of(line, scramble), li.way)

    def li_for(self, ref: SlotRef) -> LI:
        if ref.slice_owner is None:
            raise InvariantViolation("near-side slot needs a slice owner")
        return LI.in_slice(ref.slice_owner, ref.way)

    def endpoint(self, ref: SlotRef) -> int:
        assert ref.slice_owner is not None
        return ref.slice_owner

    # -- pressure policy (paper §IV-B) ------------------------------------

    def tick(self) -> bool:
        """Advance the pressure window; True when a share round happened."""
        self._accesses_since_share += 1
        if self._accesses_since_share < self.pressure_window:
            return False
        self._accesses_since_share = 0
        for n, array in enumerate(self.slices):
            self._pressures[n] = array.replacements - self._last_replacements[n]
            self._last_replacements[n] = array.replacements
        self.pressure_shares += 1
        return True

    def pressure(self, node: int) -> int:
        return self._pressures[node]

    def pick_slice(self, node: int) -> int:
        """Allocation slice for a fill requested by ``node``."""
        others = [self._pressures[n] for n in range(self.nodes) if n != node]
        if not others:
            return node
        remote_avg = sum(others) / len(others)
        if self._pressures[node] <= remote_avg:
            return node
        if self._rng.random() < self.local_fraction:
            return node
        candidates = [n for n in range(self.nodes) if n != node]
        lowest = min(self._pressures[n] for n in candidates)
        best = [n for n in candidates if self._pressures[n] == lowest]
        return self._rng.choice(best)

    def choose_allocation(self, node: int, line: int, scramble: int,
                          cost) -> Tuple[SlotRef, Optional[DataLine]]:
        slice_owner = self.pick_slice(node)
        return self.choose_allocation_in(slice_owner, line, scramble, cost)

    def choose_allocation_in(self, slice_owner: int, line: int, scramble: int,
                             cost) -> Tuple[SlotRef, Optional[DataLine]]:
        array = self.slices[slice_owner]
        set_idx = array.set_of(line, scramble)
        way = array.victim_way(set_idx, cost)
        ref = SlotRef(slice_owner, set_idx, way)
        return ref, array.get(set_idx, way)

    def lines_of_region(self, region: int) -> Iterator[Tuple[SlotRef, DataLine]]:
        for owner, array in enumerate(self.slices):
            for set_idx, way, slot in array.lines_of_region(region):
                yield SlotRef(owner, set_idx, way), slot

    def occupancy(self) -> int:
        return sum(array.occupancy() for array in self.slices)


def build_llc(config: SystemConfig) -> BaseLLC:
    from repro.common.params import LLCPlacement

    if config.llc_placement is LLCPlacement.NEAR_SIDE:
        return NearSideLLC(config)
    if config.llc_placement is LLCPlacement.FAR_SIDE:
        return FarSideLLC(config)
    raise ConfigError(f"unknown LLC placement {config.llc_placement}")
