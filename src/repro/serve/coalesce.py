"""Request coalescing: one simulation per in-flight run cache key.

Two jobs asking for the same ``(workload, config, nodes, instructions,
seed, warmup)`` cell share one cache key (see
:func:`repro.experiments.runner.run_cache_key`).  The first job to
claim a key *owns* it and simulates; a later claimant whose requested
extras (histograms, timeline; :attr:`repro.sim.runner.RunSpec.extras`)
the owner's cover gets the owner's future and just awaits.  The owner
resolves (or fails) the future as the run lands, fanning one result
out to all waiters — so N identical submissions, in flight or queued,
cost exactly one simulation on top of the disk cache.

The key leaves the extras out, so a job that asks for more than an
in-flight owner does must not take that owner's record: it first lets
such runs land (:meth:`Coalescer.settle`), then claims the key itself
and simulates with its own extras.

A job looks its keys up in the disk cache before it claims them, so a
run can land in between; the app therefore looks the keys it owns up
again after claiming them, and simulates only those still missing.

The registry lives on the event loop: :meth:`claim`, :meth:`settle` and
:meth:`resolve`/:meth:`fail` must be called from the loop thread
(worker threads hand results back via ``call_soon_threadsafe``, which
the app does).
"""

from __future__ import annotations

import asyncio
from typing import AbstractSet, Dict, FrozenSet, Mapping, Tuple


class Coalescer:
    """In-flight run registry keyed by run cache key.

    Keeps its own lifetime counters (``owned_total`` / ``hits_total``)
    so the `/metrics` endpoint can report the coalesce hit ratio without
    the app shadow-counting every claim.
    """

    def __init__(self) -> None:
        # key -> (the owner's future, the owner's extras)
        self._inflight: Dict[str, Tuple["asyncio.Future[object]",
                                        FrozenSet[str]]] = {}
        self.owned_total = 0
        self.hits_total = 0

    def __len__(self) -> int:
        return len(self._inflight)

    async def settle(self, wanted: Mapping[str, AbstractSet[str]]) -> None:
        """Wait until no key of ``wanted`` (key -> requested extras) is in
        flight under an owner whose extras miss some of the requested
        ones.  With no ``await`` between this and :meth:`claim`, every
        claim then owns its key or joins a covering owner."""
        while True:
            blocking = []
            for key, extras in wanted.items():
                entry = self._inflight.get(key)
                if entry is not None and not extras <= entry[1]:
                    blocking.append(entry[0])
            if not blocking:
                return
            await asyncio.wait(blocking)

    def claim(self, key: str, extras: AbstractSet[str] = frozenset()
              ) -> Tuple[bool, "asyncio.Future[object]"]:
        """``(owned, future)``: ``owned`` is True when the caller must
        simulate this key; False means another job already is, with
        extras covering ``extras`` — await the shared future instead.

        A key in flight under an owner that does not cover ``extras``
        cannot be claimed; :meth:`settle` waits those out.
        """
        entry = self._inflight.get(key)
        if entry is not None:
            future, have = entry
            if not extras <= have:
                raise RuntimeError(f"run {key} is in flight without "
                                   f"{sorted(extras - have)}; settle first")
            self.hits_total += 1
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = (future, frozenset(extras))
        self.owned_total += 1
        return True, future

    def resolve(self, key: str, result: object) -> None:
        """Owner callback: the run landed; fan ``result`` out."""
        entry = self._inflight.pop(key, None)
        if entry is not None and not entry[0].done():
            entry[0].set_result(result)

    def fail(self, key: str, message: str,
             future: "asyncio.Future[object]") -> None:
        """Owner callback for the ``future`` it claimed: the run failed;
        waiters see the message.

        Failures resolve to an exception so every waiting job marks the
        cell failed rather than hanging forever.  A later owner's claim
        of the same key is left alone.
        """
        entry = self._inflight.get(key)
        if entry is not None and entry[0] is future:
            del self._inflight[key]
        if not future.done():
            future.set_exception(RuntimeError(message))
