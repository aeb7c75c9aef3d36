"""Protocol event primitives: the event record, its ring, and timelines.

Events are what the core protocol emits through its duck-typed
``tracer`` hook — one :class:`ProtocolEvent` per state-changing protocol
action, holding only primitives (plus the hashable frozen ``LI``) so an
instrumented machine stays picklable for parallel sweeps.

:class:`EventRing` is the one buffer of that stream.  The sanitizer
keeps the last few hundred events and, on a violation, filters them by
the offending region/line and renders the survivors as a readable
timeline — the forensic report that turns "invariant broken" into "here
is the event sequence that broke it".  ``repro run --view trace`` keeps
the whole stream (or a window) and exports it (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional


@dataclass(frozen=True)
class ProtocolEvent:
    """One protocol action, as reported through the tracer hook."""

    seq: int                     # global order (monotonic per ring)
    kind: str                    # e.g. "llc.evict", "md3.pb_add"
    node: Optional[int] = None   # acting / affected node id
    line: Optional[int] = None   # cache line address, when line-scoped
    region: Optional[int] = None  # physical region, when region-scoped
    idx: Optional[int] = None    # line index within the region
    detail: str = ""             # free-form qualifier (e.g. "D2", "write")
    t: int = 0                   # index of the access it occurred under

    def touches(self, region: Optional[int] = None,
                line: Optional[int] = None) -> bool:
        """Whether the event involves the given region and/or line."""
        if region is not None and self.region != region:
            return False
        if line is not None and self.line is not None and self.line != line:
            return False
        return True

    def describe(self) -> str:
        """One timeline row: ``[  seq] kind  field=value ...``."""
        fields: List[str] = []
        if self.node is not None:
            fields.append(f"node={self.node}")
        if self.region is not None:
            fields.append(f"region={self.region:#x}")
        if self.line is not None:
            fields.append(f"line={self.line:#x}")
        if self.idx is not None:
            fields.append(f"idx={self.idx}")
        if self.detail:
            fields.append(self.detail)
        return f"[{self.seq:6d}] {self.kind:<16s} {' '.join(fields)}".rstrip()


class EventRing:
    """The protocol event stream, buffered; an event observer.

    ``window=0`` keeps every event; ``window=N`` keeps a ring of the
    last N, for long runs where only the tail is interesting.  Each
    event is stamped with its sequence number and the index of the
    access it occurred under (``begin_access`` advances it), the time
    axis of trace exports.
    """

    __slots__ = ("window", "access_index", "recorded", "_events")

    def __init__(self, window: int = 0) -> None:
        if window < 0:
            raise ValueError("window must be >= 0 (0 = unbounded)")
        self.window = window
        self.access_index = 0
        self.recorded = 0  # total events ever recorded (ring may be smaller)
        self._events: Deque[ProtocolEvent] = deque(maxlen=window or None)

    def begin_access(self, node: int, line: int, region: int, idx: int,
                     detail: str = "") -> None:
        self.access_index += 1
        self.emit("access", node=node, line=line, region=region, idx=idx,
                  detail=detail)

    def emit(self, kind: str, node: Optional[int] = None,
             line: Optional[int] = None, region: Optional[int] = None,
             idx: Optional[int] = None, detail: str = "") -> None:
        """Record an event, assigning it the next sequence number."""
        self._events.append(ProtocolEvent(
            self.recorded, kind, node=node, line=line, region=region,
            idx=idx, detail=detail, t=self.access_index))
        self.recorded += 1

    def events(self) -> List[ProtocolEvent]:
        """All buffered events, oldest first."""
        return list(self._events)

    def matching(self, region: Optional[int] = None,
                 line: Optional[int] = None,
                 last: Optional[int] = None) -> List[ProtocolEvent]:
        """Buffered events touching ``region``/``line`` (newest ``last``)."""
        hits = [event for event in self._events
                if event.touches(region=region, line=line)]
        if last is not None and len(hits) > last:
            hits = hits[-last:]
        return hits

    def __len__(self) -> int:
        return len(self._events)


def render_timeline(events: Iterable[ProtocolEvent],
                    header: str = "") -> str:
    """Render events as an indented, human-readable timeline."""
    rows = [event.describe() for event in events]
    if not rows:
        rows = ["(no buffered events touch the offending state)"]
    lines = []
    if header:
        lines.append(f"  {header}")
    lines.extend(f"    {row}" for row in rows)
    return "\n".join(lines)
