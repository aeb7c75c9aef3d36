"""Fundamental value types shared across the simulator.

The unit of work in the whole package is the :class:`Access`: one memory
reference (instruction fetch, load, or store) issued by one core at a
virtual address.  Workload generators produce streams of accesses and the
simulators consume them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable


@runtime_checkable
class EventTracer(Protocol):
    """Duck-typed event sink the core hierarchies report into.

    The ``tracer`` slots hold the :class:`repro.common.observe.Observers`
    composite of every attached event observer; declared here so core
    modules can type the slot without importing observer code.
    """

    def begin_access(self, node: int, line: int, region: int, idx: int,
                     detail: str = "") -> None: ...

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None: ...

    def end_access(self) -> None: ...


class FastPathProbe(Protocol):
    """A machine's fast-path probe for the batched driver (repro.sim.batch).

    Built by the machine's ``fastpath_probe()`` next to the ``access``
    it replays.  The driver passes each access's ``vaddr >> key_bits``
    as ``vkey``; :meth:`hit` classifies with pure reads and, only when
    the access is eligible, commits the machine's exact hit-path
    effects and returns True (latency :attr:`latency`).  Per-access
    stat and energy counts are deferred inside the probe:
    :meth:`flush` folds them in at each chunk end and :meth:`discard`
    drops them at the warm-up/ROI reset.
    """

    key_bits: int
    latency: int

    def hit(self, core: int, kcode: int, vkey: int, line: int,
            version: int) -> bool: ...

    def flush(self) -> None: ...

    def discard(self) -> None: ...


class AccessKind(enum.Enum):
    """The three kinds of memory references the simulator models."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"

    @property
    def is_instruction(self) -> bool:
        return self is AccessKind.IFETCH

    @property
    def is_write(self) -> bool:
        return self is AccessKind.STORE

    @property
    def is_data(self) -> bool:
        return self is not AccessKind.IFETCH


#: Compact integer op-kind codes used by the batched driver's flat
#: parallel arrays (``repro.sim.batch``): a chunk carries plain ints so
#: generation never allocates Access objects on the hot path.
IFETCH_CODE, LOAD_CODE, STORE_CODE = 0, 1, 2
KIND_CODE = {AccessKind.IFETCH: IFETCH_CODE,
             AccessKind.LOAD: LOAD_CODE,
             AccessKind.STORE: STORE_CODE}
CODE_KIND = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)


@dataclass(frozen=True)
class Access:
    """One memory reference.

    Attributes:
        core: issuing core id (0-based).
        kind: instruction fetch, load, or store.
        vaddr: virtual byte address.
    """

    core: int
    kind: AccessKind
    vaddr: int

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError(f"core must be non-negative, got {self.core}")
        if self.vaddr < 0:
            raise ValueError(f"vaddr must be non-negative, got {self.vaddr}")

    @property
    def is_instruction(self) -> bool:
        return self.kind.is_instruction

    @property
    def is_write(self) -> bool:
        return self.kind.is_write


class CoherenceState(enum.Enum):
    """Classic MESI states used by the baseline directory protocol."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not CoherenceState.INVALID

    @property
    def can_write(self) -> bool:
        return self in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE)


class HitLevel(enum.Enum):
    """Where in the hierarchy an access was satisfied.

    Used uniformly by baselines and D2M so the experiment harnesses can
    compute hit-ratio tables without knowing which system produced them.
    """

    L1 = "L1"
    L2 = "L2"
    LLC_LOCAL = "LLC-local"
    LLC_REMOTE = "LLC-remote"
    REMOTE_NODE = "remote-node"
    MEMORY = "memory"
    LATE = "late-hit"

    @property
    def is_l1_miss(self) -> bool:
        """True when the access left the L1 (a miss in the paper's terms)."""
        return self not in (HitLevel.L1, HitLevel.LATE)


@dataclass
class AccessResult:
    """What one access cost and where it was served from.

    Returned by every hierarchy implementation so the simulator and the
    experiment harnesses never need to know which system produced it.

    Attributes:
        level: where the access was satisfied.
        latency: cycles from issue to completion.
        version: version observed by a load (value-checker hook).
        private_region: for D2M L1 misses, whether the target region was
            classified private at the time (None for baselines and hits).
    """

    level: HitLevel
    latency: int
    version: int = 0
    private_region: bool | None = None
