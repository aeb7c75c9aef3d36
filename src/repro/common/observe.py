"""The observer seam: one hook set, one composite, one attach path.

Everything that watches a run without perturbing it — histogram
telemetry, the timeline sampler, the slow-tail profiler, sweep
heartbeats, the coherence sanitizer, protocol event rings — is an
*observer*: an object implementing any subset of these hooks.

Driver half (called by both drivers of :mod:`repro.sim.simulator`):

===========================  ============================================
``bind(hierarchy, result)``  once, before the first access
``tick()``                   every access (forces per-access bookkeeping)
``on_access(level, lat)``    every recorded access, post-MSHR
``on_mshr(latency)``         every recorded new MSHR entry
``on_roi()``                 at the warm-up/ROI boundary, after the reset
``on_chunk(instr, acc, n)``  every :attr:`Observers.chunk` stream
                             accesses and after a trailing partial chunk:
                             recorded instructions/accesses so far and
                             ``n`` stream accesses (warm-up included)
``slow_start()``             batched only: before a slow-tail access
``slow_done(ns)``            batched only: after it, with its wall time
``finalize()``               once, after the hierarchy's own finalize
===========================  ============================================

Event half (the :class:`~repro.common.types.EventTracer` hooks the
protocol, its nodes and MD3 call through their ``tracer`` slots):
``begin_access``, ``emit`` and ``end_access``.  An observer with an
event half that can live with the batched driver resolving L1 hits
without the protocol declares ``fast_path_safe = True``; any event
observer without it sends every access down the slow path.  An observer
that needs boundaries at fixed stream positions declares ``epoch``; it
becomes the chunk length.

:class:`Observers` resolves each hook once to ``None`` (nobody
implements it: the driver skips the call), the single implementer's
bound method, or a fan-out over several.  :func:`attach` is the only
code that fills the ``tracer`` slots.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

#: stream accesses between two ``on_chunk`` boundaries (and the batched
#: driver's flush/vectorization granularity) unless an observer
#: declares an ``epoch``
DEFAULT_CHUNK = 4096

DRIVER_HOOKS = ("bind", "tick", "on_access", "on_mshr", "on_roi",
                "on_chunk", "slow_start", "slow_done", "finalize")
EVENT_HOOKS = ("begin_access", "emit", "end_access")


def _fan_out(name: str,
             hooks: Tuple[Callable[..., None], ...]) -> Callable[..., None]:
    """One hook implemented by several observers, called in order.

    ``emit``, the hottest hook, takes the protocol's keyword operands
    with the :class:`~repro.common.types.EventTracer` signature and
    forwards them positionally: about 3x cheaper per event than
    ``*args, **kwargs`` forwarding.
    """
    if name == "emit":
        def emit(kind: str, node: Optional[int] = None,
                 line: Optional[int] = None, region: Optional[int] = None,
                 idx: Optional[int] = None, detail: str = "") -> None:
            for hook in hooks:
                hook(kind, node, line, region, idx, detail)
        return emit

    def fan_out(*args: Any, **kwargs: Any) -> None:
        for hook in hooks:
            hook(*args, **kwargs)
    return fan_out


def _ignore(*args: Any, **kwargs: Any) -> None:
    """An event hook no member implements."""


def _resolve(members: Tuple[Any, ...],
             name: str) -> Optional[Callable[..., None]]:
    hooks = tuple(getattr(m, name) for m in members if hasattr(m, name))
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]
    return _fan_out(name, hooks)


class Observers:
    """The composite of a run's observers, one attribute per hook.

    Each driver hook attribute is ``None``, a bound method or a
    fan-out.  An instance holding the event observers is what
    :func:`attach` puts in the ``tracer`` slots, so a missing event hook
    is a no-op instead (the protocol calls all three).  Pickles as its
    member list, rebuilding the hooks: parallel sweeps ship sanitized
    machines back.
    """

    def __init__(self, observers: Iterable[Any] = ()) -> None:
        members = tuple(observers)
        self.members = members
        for name in DRIVER_HOOKS:
            setattr(self, name, _resolve(members, name))
        for name in EVENT_HOOKS:
            setattr(self, name, _resolve(members, name) or _ignore)
        epochs = {m.epoch for m in members if getattr(m, "epoch", 0)}
        if len(epochs) > 1:
            raise ValueError(f"observers disagree on the epoch: {epochs}")
        self.chunk = epochs.pop() if epochs else DEFAULT_CHUNK
        self.watchers = tuple(m for m in members if hasattr(m, "emit"))
        #: whether the batched fast path may skip the event hooks
        self.fast_path_safe = all(getattr(m, "fast_path_safe", False)
                                  for m in self.watchers)

    def __getstate__(self) -> dict:
        return {"members": self.members}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["members"])


def attach(hierarchy: Any, *observers: Any) -> bool:
    """Put the observers' event half on the hierarchy's ``tracer`` slots.

    Composes with the observers already attached (each joins once).
    Returns False when the hierarchy has no slots (the MESI baselines):
    observing their event stream yields nothing rather than an error.
    """
    protocol = getattr(hierarchy, "protocol", None)
    if protocol is None or not hasattr(protocol, "tracer"):
        return False
    current = protocol.tracer
    watchers = current.watchers if current is not None else ()
    added = tuple(o for o in observers
                  if hasattr(o, "emit") and o not in watchers)
    if not added:
        return True
    slot = Observers(watchers + added)
    protocol.tracer = slot
    for node in protocol.nodes:
        node.tracer = slot
    protocol.md3.tracer = slot
    return True
