"""Hierarchical statistics counters and the central stat-key registry.

Every component owns a :class:`StatGroup`; groups nest, counters are
created on first use, and the whole tree can be flattened to a dict for
reporting.  This keeps the simulators free of ad-hoc counter plumbing.

:data:`STAT_KEYS` is the registry of every counter name the simulators
use.  ``tools/lint_repro.py`` enforces it: any string literal passed to
a ``stats``/``events`` method must appear here, so a typo'd key fails
the lint gate instead of silently creating a dead counter.  Dynamic
keys (f-strings) need a ``# lint: allow-dynamic-stat-key`` waiver on
the offending line.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

#: Every counter name used with a literal key anywhere in the package.
#: Keep sorted within each section; the lint gate rejects unknown keys.
STAT_KEYS = frozenset({
    # L1 / L2 reference counters (D2M and baselines)
    "l1.d.accesses", "l1.d.hits", "l1.d.misses",
    "l1.i.accesses", "l1.i.hits", "l1.i.misses",
    "l2.d.accesses", "l2.d.hits",
    "l2.i.accesses", "l2.i.hits",
    # D2M protocol counters
    "bypass.reads",
    "evictions.llc", "evictions.llc_shared", "evictions.llc_untracked",
    "evictions.replica",
    "invalidations_received",
    "md.md1_cross_hits", "md.md1_hits", "md.md2_hits", "md.misses",
    "md2.accesses", "md2.prunes", "md2.spills",
    "md3.global_evictions",
    "mem_reads_redirected",
    "misses.private_region",
    "ns.d.local_hits", "ns.d.remote_hits",
    "ns.i.local_hits", "ns.i.remote_hits",
    "ns.replications",
    "reprivatizations",
    # D2M event taxonomy (paper appendix; StatGroup "events")
    "A", "A_llc", "A_mem", "A_node",
    "B", "C",
    "D1", "D2", "D3", "D4",
    "E", "F",
    # MD3 store + region locks (child groups "md3" / "md3.locks")
    "acquires", "collisions", "fills", "forced_region_evictions",
    "lookups", "releases",
    # Baseline directory protocol
    "llc_recalls", "node_evictions",
    "reads.llc", "reads.memory", "reads.remote_node", "reads.self_owner",
    "upgrades",
    "writes.llc", "writes.memory",
    # Main memory / TLB (child groups "dram" / "tlb")
    "accesses", "l1_hits", "l2_hits", "reads", "walks", "writes",
    # NoC (child group "noc")
    "bytes", "energy_pj", "messages",
    # Energy accounting (child group "energy")
    "dram.accesses", "dram.dynamic_pj",
})


class StatGroup:
    """A named group of counters with optional nested sub-groups.

    ``add`` sits on the simulation's per-access critical path (several
    calls per simulated access), so the class is slotted and counters
    live in a plain dict updated via one ``get`` — no ``defaultdict``
    ``__missing__`` machinery, no per-instance ``__dict__`` lookups.
    """

    __slots__ = ("name", "_counters", "_children")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: Dict[str, float] = {}
        self._children: Dict[str, "StatGroup"] = {}

    # -- counters ---------------------------------------------------------

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment ``counter`` by ``amount`` (creating it at zero)."""
        counters = self._counters
        counters[counter] = counters.get(counter, 0.0) + amount

    def set(self, counter: str, value: float) -> None:
        """Set ``counter`` to an absolute value."""
        self._counters[counter] = value

    def get(self, counter: str) -> float:
        """Current value of ``counter`` (0.0 if never touched)."""
        return self._counters.get(counter, 0.0)

    def counters(self) -> Mapping[str, float]:
        """Read-only view of this group's own counters."""
        return dict(self._counters)

    def read(self, counters: Tuple[str, ...]) -> Tuple[Optional[float], ...]:
        """Current values of ``counters`` (None for any never touched)."""
        return tuple(map(self._counters.get, counters))

    # -- children ----------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Return (creating if needed) the nested group ``name``."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def children(self) -> Mapping[str, "StatGroup"]:
        return dict(self._children)

    def locate(self, key: str) -> Tuple[Tuple["StatGroup", str], ...]:
        """The ``(group, counter)`` pairs a dotted ``key`` can name, here
        (``md3.global_evictions``) or in a nested group (``events.C``):
        counters appear on first use, so each split along existing
        children is a candidate, and those named in STAT_KEYS win."""
        found = [(self, key)]
        group, rest = self, key
        while "." in rest:
            head, _, rest = rest.partition(".")
            group = group._children.get(head)
            if group is None:
                break
            found.append((group, rest))
        registered = [(g, name) for g, name in found if name in STAT_KEYS]
        return tuple(registered or found)

    # -- aggregation -------------------------------------------------------

    def total(self, counter: str) -> float:
        """Sum of ``counter`` over this group and all descendants."""
        value = self.get(counter)
        for sub in self._children.values():
            value += sub.total(counter)
        return value

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` for this group, 0.0 when empty."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    def merge(self, other: "StatGroup") -> None:
        """Accumulate another group's counters (recursively) into this one."""
        counters = self._counters
        for key, value in other._counters.items():
            counters[key] = counters.get(key, 0.0) + value
        for name, sub in other._children.items():
            self.child(name).merge(sub)

    def reset(self) -> None:
        """Zero all counters in this group and its descendants."""
        self._counters.clear()
        for sub in self._children.values():
            sub.reset()

    # -- export --------------------------------------------------------------

    def flatten(self, prefix: str = "") -> Dict[str, float]:
        """All counters in the tree as ``{'a.b.counter': value}``."""
        label = f"{prefix}{self.name}" if self.name else prefix.rstrip(".")
        out: Dict[str, float] = {}
        for key, value in self._counters.items():
            out[f"{label}.{key}" if label else key] = value
        for sub in self._children.values():
            out.update(sub.flatten(f"{label}." if label else ""))
        return out

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name!r}, counters={len(self._counters)}, "
            f"children={list(self._children)})"
        )
