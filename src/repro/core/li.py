"""Location Information (LI): the 6-bit per-cacheline pointer of Table I.

The LI is the heart of the split hierarchy — it replaces the ~30-bit
address tag with a 6-bit pointer that says *where the line is*:

=========  =======================================
``000NNN``  master is in remote node ``NNN``
``001WWW``  in the local L1, way ``WWW``
``010WWW``  in the local L2, way ``WWW``
``011SSS``  one of eight symbols (``MEM``, ``INVALID``, ...)
``1WWWWW``  in the (far-side) LLC, way ``WWWWW``
=========  =======================================

With a near-side LLC the last encoding is reinterpreted as ``1NNNWW``:
node ``NNN``'s slice, way ``WW`` (paper §IV-B).

The protocol manipulates LI values as small frozen objects; the
bit-level ``encode``/``decode`` pair exists to demonstrate (and test)
that every value the protocol uses really fits the paper's 6 bits.

One modeled refinement: the paper keeps separate MD1-I/MD1-D stores and
L1-I/L1-D arrays and infers which L1 array an ``In L1`` pointer means
from the active MD1 side.  We carry an explicit instruction/data flag on
L1 pointers instead, which is equivalent information and keeps mixed
code/data regions (exercised by the property tests) well-defined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ConfigError


class LIKind(enum.Enum):
    """Where a Location Information pointer points."""

    INVALID = "invalid"
    MEM = "mem"
    NODE = "node"       # master is in a remote node (tracked by node id only)
    L1 = "l1"           # local L1, exact way
    L2 = "l2"           # local L2, exact way
    LLC = "llc"         # far-side LLC, exact way
    LLC_SLICE = "llc-slice"  # near-side LLC: (node, way)


@dataclass(frozen=True)
class LI:
    """One Location Information pointer (see module docstring)."""

    kind: LIKind
    way: int = 0
    node: int = 0
    instr: bool = False  # for L1 pointers: L1-I vs L1-D array

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def invalid() -> "LI":
        return _INVALID

    @staticmethod
    def mem() -> "LI":
        return _MEM

    # LI values are frozen and compared by value, so the constructors
    # intern their results: a frozen-dataclass __init__ pays one
    # object.__setattr__ per field, which is pure overhead on the
    # install/eviction paths that mint pointers constantly.  The domains
    # are tiny (ways x nodes), so the memo dicts stay small.

    @staticmethod
    def in_node(node: int) -> "LI":
        li = _NODE_CACHE.get(node)
        if li is None:
            li = _NODE_CACHE[node] = LI(LIKind.NODE, node=node)
        return li

    @staticmethod
    def in_l1(way: int, instr: bool) -> "LI":
        key = (way, instr)
        li = _L1_CACHE.get(key)
        if li is None:
            li = _L1_CACHE[key] = LI(LIKind.L1, way=way, instr=instr)
        return li

    @staticmethod
    def in_l2(way: int) -> "LI":
        li = _L2_CACHE.get(way)
        if li is None:
            li = _L2_CACHE[way] = LI(LIKind.L2, way=way)
        return li

    @staticmethod
    def in_llc(way: int) -> "LI":
        li = _LLC_CACHE.get(way)
        if li is None:
            li = _LLC_CACHE[way] = LI(LIKind.LLC, way=way)
        return li

    @staticmethod
    def in_slice(node: int, way: int) -> "LI":
        key = (node, way)
        li = _SLICE_CACHE.get(key)
        if li is None:
            li = _SLICE_CACHE[key] = LI(LIKind.LLC_SLICE, way=way,
                                        node=node)
        return li

    # -- predicates ------------------------------------------------------------

    @property
    def is_valid(self) -> bool:
        return self.kind is not LIKind.INVALID

    @property
    def is_local_cache(self) -> bool:
        """Points into the node's own L1/L2 arrays."""
        return self.kind in (LIKind.L1, LIKind.L2)

    @property
    def is_llc(self) -> bool:
        return self.kind in (LIKind.LLC, LIKind.LLC_SLICE)

    def __str__(self) -> str:
        if self.kind is LIKind.NODE:
            return f"Node{self.node}"
        if self.kind is LIKind.L1:
            return f"L1{'I' if self.instr else 'D'}[{self.way}]"
        if self.kind is LIKind.L2:
            return f"L2[{self.way}]"
        if self.kind is LIKind.LLC:
            return f"LLC[{self.way}]"
        if self.kind is LIKind.LLC_SLICE:
            return f"LLC{self.node}[{self.way}]"
        return self.kind.value.upper()


_INVALID = LI(LIKind.INVALID)
_MEM = LI(LIKind.MEM)
_NODE_CACHE: dict = {}
_L1_CACHE: dict = {}
_L2_CACHE: dict = {}
_LLC_CACHE: dict = {}
_SLICE_CACHE: dict = {}

# Symbol values for the 011SSS group.
_SYM_MEM = 0
_SYM_INVALID = 1


class LICodec:
    """Bit-level encoder/decoder for one system geometry.

    Far-side: exactly Table I (needs nodes<=8, L1/L2<=8 ways, LLC<=32
    ways for the 6-bit budget; the codec widens fields for bigger
    configs and reports the resulting width).
    """

    def __init__(self, nodes: int, l1_ways: int, l2_ways: int, llc_ways: int,
                 near_side: bool = False) -> None:
        if nodes <= 0:
            raise ConfigError("nodes must be positive")
        self.nodes = nodes
        self.l1_ways = l1_ways
        self.l2_ways = l2_ways
        self.llc_ways = llc_ways
        self.near_side = near_side
        low = max(
            _width(nodes), _width(l1_ways) + 1, _width(l2_ways), 3
        )
        if near_side:
            slice_ways = llc_ways // nodes
            high = _width(nodes) + _width(slice_ways)
        else:
            high = _width(llc_ways)
        self.low_bits = low
        self.bits = 1 + max(low + 2, high)

    def encode(self, li: LI) -> int:
        group_shift = self.bits - 3  # two selector bits + the LLC flag
        if li.kind is LIKind.LLC and not self.near_side:
            return (1 << (self.bits - 1)) | li.way
        if li.kind is LIKind.LLC_SLICE and self.near_side:
            slice_way_bits = _width(self.llc_ways // self.nodes)
            return (1 << (self.bits - 1)) | (li.node << slice_way_bits) | li.way
        if li.kind is LIKind.NODE:
            return (0b00 << group_shift) | li.node
        if li.kind is LIKind.L1:
            return (0b01 << group_shift) | (int(li.instr) << _width(self.l1_ways)) | li.way
        if li.kind is LIKind.L2:
            return (0b10 << group_shift) | li.way
        if li.kind is LIKind.MEM:
            return (0b11 << group_shift) | _SYM_MEM
        if li.kind is LIKind.INVALID:
            return (0b11 << group_shift) | _SYM_INVALID
        raise ConfigError(f"cannot encode {li} for this geometry")

    def decode(self, value: int) -> LI:
        if value < 0 or value >= (1 << self.bits):
            raise ConfigError(f"LI value {value} outside {self.bits} bits")
        if value >> (self.bits - 1):
            payload = value & ((1 << (self.bits - 1)) - 1)
            if self.near_side:
                slice_way_bits = _width(self.llc_ways // self.nodes)
                return LI.in_slice(payload >> slice_way_bits,
                                   payload & ((1 << slice_way_bits) - 1))
            return LI.in_llc(payload)
        group_shift = self.bits - 3
        group = (value >> group_shift) & 0b11
        payload = value & ((1 << group_shift) - 1)
        if group == 0b00:
            return LI.in_node(payload)
        if group == 0b01:
            way_bits = _width(self.l1_ways)
            return LI.in_l1(payload & ((1 << way_bits) - 1),
                            bool(payload >> way_bits))
        if group == 0b10:
            return LI.in_l2(payload)
        if payload == _SYM_MEM:
            return LI.mem()
        return LI.invalid()


def _width(count: int) -> int:
    """Bits needed to index ``count`` items."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()
