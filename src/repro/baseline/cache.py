"""Private (per-node) tag-based caches for the baseline systems.

A node owns an L1-I, an L1-D, and (Base-3L only) a unified L2.  The
coherence *state* of a line is a property of the node (the directory
tracks nodes, not individual levels), so `NodeCaches` keeps one MESI
state per resident line while the level stores only track presence,
dirtiness, and the value-checker version.

Inclusion: in Base-3L the L2 includes both L1s; evicting an L2 line
back-invalidates the L1 copies.  In Base-2L the L1s are the only private
levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import InvariantViolation
from repro.common.params import SystemConfig
from repro.common.types import AccessKind, CoherenceState


@dataclass
class LineCopy:
    """Presence record for one line in one level of one node."""

    version: int = 0
    dirty: bool = False


@dataclass
class EvictedLine:
    """A line pushed out of a node's private hierarchy."""

    line: int
    version: int
    dirty: bool
    state: CoherenceState


class _Level:
    """One tag-based set-associative level (thin wrapper over SetAssocStore)."""

    def __init__(self, name: str, sets: int, ways: int) -> None:
        # Imported here to keep module import order flat for docs tooling.
        from repro.mem.sram import SetAssocStore

        self.name = name
        self.store: "SetAssocStore[LineCopy]" = SetAssocStore(sets, ways)

    def lookup(self, line: int, touch: bool = True) -> Optional[LineCopy]:
        return self.store.lookup(line, touch=touch)

    def insert(self, line: int, copy: LineCopy) -> Optional[Tuple[int, LineCopy]]:
        return self.store.insert(line, copy)

    def invalidate(self, line: int) -> Optional[LineCopy]:
        return self.store.invalidate(line)

    def __contains__(self, line: int) -> bool:
        return self.store.contains(line)


class NodeCaches:
    """All private cache levels of one node plus its MESI state map."""

    def __init__(self, node: int, config: SystemConfig) -> None:
        self.node = node
        self.config = config
        self.l1i = _Level("l1i", config.l1i.sets, config.l1i.ways)
        self.l1d = _Level("l1d", config.l1d.sets, config.l1d.ways)
        self.l2: Optional[_Level] = (
            _Level("l2", config.l2.sets, config.l2.ways) if config.l2 else None
        )
        #: MESI state per line resident anywhere in this node
        self.state: Dict[int, CoherenceState] = {}

    # -- queries ---------------------------------------------------------------

    def _l1_for(self, kind: AccessKind) -> _Level:
        return self.l1i if kind.is_instruction else self.l1d

    def state_of(self, line: int) -> CoherenceState:
        return self.state.get(line, CoherenceState.INVALID)

    def holds(self, line: int) -> bool:
        return self.state_of(line).is_valid

    def l1_hit(self, kind: AccessKind, line: int) -> Optional[LineCopy]:
        """L1 lookup for an access (updates recency)."""
        return self._l1_for(kind).lookup(line)

    def l2_hit(self, line: int) -> Optional[LineCopy]:
        if self.l2 is None:
            return None
        return self.l2.lookup(line)

    # -- local value plumbing ----------------------------------------------------

    def current_version(self, line: int) -> int:
        """Newest version of ``line`` held anywhere in this node."""
        best = 0
        for level in self._levels():
            copy = level.lookup(line, touch=False)
            if copy is not None:
                best = max(best, copy.version)
        if best == 0 and self.holds(line):
            raise InvariantViolation(
                f"node {self.node} has state {self.state_of(line)} for line "
                f"{line:#x} but no copy in any level"
            )
        return best

    def _levels(self) -> List[_Level]:
        levels: List[_Level] = [self.l1i, self.l1d]
        if self.l2 is not None:
            levels.append(self.l2)
        return levels

    # -- fills -------------------------------------------------------------------

    def install(
        self,
        kind: AccessKind,
        line: int,
        version: int,
        state: CoherenceState,
        dirty: bool,
    ) -> List[EvictedLine]:
        """Install ``line`` into the L1 (and L2 when present).

        Returns lines evicted from the node entirely (i.e. that the
        directory must be told about or that carry dirty data out).
        """
        self.state[line] = state
        if kind.is_write:
            # A store installation supersedes any instruction-side copy.
            self.l1i.invalidate(line)
        evicted: List[EvictedLine] = []
        if self.l2 is not None:
            l2_victim = self.l2.insert(line, LineCopy(version, dirty))
            if l2_victim is not None:
                evicted.extend(self._on_l2_eviction(*l2_victim))
        l1_victim = self._l1_for(kind).insert(line, LineCopy(version, dirty))
        if l1_victim is not None:
            evicted.extend(self._on_l1_eviction(*l1_victim))
        return evicted

    def _on_l1_eviction(self, line: int, copy: LineCopy) -> List[EvictedLine]:
        """L1 victim: spills into L2 when present, else leaves the node."""
        if self.l2 is not None:
            l2_copy = self.l2.lookup(line, touch=False)
            if l2_copy is None:
                # Non-inclusive corner: L2 victimized this line earlier in the
                # same install. Treat as leaving the node.
                return self._depart(line, copy)
            if copy.dirty:
                l2_copy.version = max(l2_copy.version, copy.version)
                l2_copy.dirty = True
            return []
        return self._depart(line, copy)

    def _on_l2_eviction(self, line: int, copy: LineCopy) -> List[EvictedLine]:
        """L2 victim: back-invalidate L1 copies, then leave the node."""
        for l1 in (self.l1i, self.l1d):
            l1_copy = l1.invalidate(line)
            if l1_copy is not None and l1_copy.dirty:
                copy.version = max(copy.version, l1_copy.version)
                copy.dirty = True
        return self._depart(line, copy)

    def _depart(self, line: int, copy: LineCopy) -> List[EvictedLine]:
        state = self.state.pop(line, CoherenceState.INVALID)
        if not state.is_valid:
            raise InvariantViolation(
                f"node {self.node} evicting line {line:#x} it has no state for"
            )
        return [EvictedLine(line, copy.version, copy.dirty, state)]

    # -- stores ---------------------------------------------------------------

    def write_hit(self, line: int, version: int) -> None:
        """Commit a store to the L1-D copy (state must allow writing)."""
        state = self.state_of(line)
        if not state.can_write:
            raise InvariantViolation(
                f"node {self.node} writing line {line:#x} in state {state}"
            )
        copy = self.l1d.lookup(line, touch=False)
        if copy is None:
            raise InvariantViolation(
                f"node {self.node} write-hit on line {line:#x} missing from L1-D"
            )
        copy.version = version
        copy.dirty = True
        self.state[line] = CoherenceState.MODIFIED
        # Keep node-internal copies coherent with the store: the L1-I copy
        # (self-modifying/shared line) is dropped and the L2 copy's version
        # is advanced so a later L2 hit cannot observe a stale value.
        self.l1i.invalidate(line)
        if self.l2 is not None:
            l2_copy = self.l2.lookup(line, touch=False)
            if l2_copy is not None:
                l2_copy.version = version
                l2_copy.dirty = True

    # -- external coherence actions ------------------------------------------------

    def invalidate_line(self, line: int) -> Tuple[bool, int]:
        """Invalidate every copy (directory request).

        Returns ``(had_dirty, newest_version)`` so the protocol can pull
        modified data back.
        """
        had_dirty = False
        newest = 0
        for level in self._levels():
            copy = level.invalidate(line)
            if copy is not None:
                newest = max(newest, copy.version)
                had_dirty = had_dirty or copy.dirty
        self.state.pop(line, None)
        return had_dirty, newest

    def downgrade_line(self, line: int) -> Tuple[bool, int]:
        """Drop write permission (M/E -> S); returns (was_dirty, version)."""
        state = self.state_of(line)
        if not state.is_valid:
            return False, 0
        was_dirty = False
        newest = 0
        for level in self._levels():
            copy = level.lookup(line, touch=False)
            if copy is not None:
                newest = max(newest, copy.version)
                was_dirty = was_dirty or copy.dirty
                copy.dirty = False
        self.state[line] = CoherenceState.SHARED
        return was_dirty, newest
