"""Request coalescing: one simulation per in-flight run cache key.

Two jobs asking for the same ``(workload, config, nodes, instructions,
seed, warmup)`` cell share one cache key (see
:func:`repro.experiments.runner.run_cache_key`).  The first job to
claim a key *owns* it; a later claimant whose requested extras
(histograms, timeline; :attr:`repro.sim.runner.RunSpec.extras`) the
owner's cover gets the owner's future and just awaits.  The owner
resolves (or fails) the future as its cell is served from disk or its
run lands, fanning one result out to all waiters — so N identical
submissions, in flight or queued, cost exactly one simulation on top
of the disk cache.

The key leaves the extras out, so a job that asks for more than an
in-flight owner does must not take that owner's record: one
:meth:`Coalescer.claim` call first lets such runs land, then claims
every key of the job with no ``await`` in between, so each key is
owned or joined under a covering owner.

A job claims its keys *before* it looks them up in the disk cache, so
no run can land between its lookup and its claim: an owned key found
on disk resolves at once with its record, and only the rest simulate.

The registry lives on the event loop: :meth:`claim` and
:meth:`resolve`/:meth:`fail` must be called from the loop thread
(worker threads hand results back via ``call_soon_threadsafe``, which
the app does).
"""

from __future__ import annotations

import asyncio
from typing import AbstractSet, Dict, FrozenSet, Mapping, Tuple

Claim = Tuple[bool, "asyncio.Future[object]"]


class Coalescer:
    """In-flight run registry keyed by run cache key."""

    def __init__(self) -> None:
        # key -> (the owner's future, the owner's extras)
        self._inflight: Dict[str, Tuple["asyncio.Future[object]",
                                        FrozenSet[str]]] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    async def claim(self, wanted: Mapping[str, AbstractSet[str]]
                    ) -> Dict[str, Claim]:
        """Claim every key of ``wanted`` (key -> requested extras):
        ``key -> (owned, future)``.  ``owned`` is True when the caller
        must serve the key (from disk or by simulating it) and resolve
        or fail ``future``; False means another job owns it with extras
        covering the requested ones — await the shared future instead.

        First waits until no key is in flight under an owner whose
        extras miss some of the requested ones.
        """
        while True:
            blocking = []
            for key, extras in wanted.items():
                entry = self._inflight.get(key)
                if entry is not None and not extras <= entry[1]:
                    blocking.append(entry[0])
            if not blocking:
                break
            await asyncio.wait(blocking)
        loop = asyncio.get_running_loop()
        claims: Dict[str, Claim] = {}
        for key, extras in wanted.items():
            entry = self._inflight.get(key)
            if entry is not None:
                claims[key] = (False, entry[0])
            else:
                future = loop.create_future()
                self._inflight[key] = (future, frozenset(extras))
                claims[key] = (True, future)
        return claims

    def resolve(self, key: str, result: object) -> None:
        """Owner callback: the record is served; fan ``result`` out."""
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
