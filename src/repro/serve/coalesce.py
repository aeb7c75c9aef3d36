"""Request coalescing: one simulation per in-flight run cache key.

Two jobs asking for the same ``(workload, config, nodes, instructions,
seed, warmup)`` cell share one cache key (see
:func:`repro.experiments.runner.run_cache_key`).  The first job to
claim a key *owns* it and simulates; every later claimant gets the
owner's future and just awaits.  The owner resolves (or fails) the
future as the run lands, fanning one result out to all waiters — so N
identical submissions, in flight or queued, cost exactly one
simulation on top of the disk cache.

A job looks its keys up in the disk cache before it claims them, so a
run can land in between; the app therefore looks the keys it owns up
again after claiming them, and simulates only those still missing.

The registry lives on the event loop: :meth:`claim` and
:meth:`resolve`/:meth:`fail` must be called from the loop thread
(worker threads hand results back via ``call_soon_threadsafe``, which
the app does).
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple


class Coalescer:
    """In-flight run registry keyed by run cache key.

    Keeps its own lifetime counters (``owned_total`` / ``hits_total``)
    so the `/metrics` endpoint can report the coalesce hit ratio without
    the app shadow-counting every claim.
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future[object]"] = {}
        self.owned_total = 0
        self.hits_total = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def claim(self, key: str) -> Tuple[bool, "asyncio.Future[object]"]:
        """``(owned, future)``: ``owned`` is True when the caller must
        simulate this key; False means another job already is — await
        the shared future instead."""
        future = self._inflight.get(key)
        if future is not None:
            self.hits_total += 1
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.owned_total += 1
        return True, future

    def resolve(self, key: str, result: object) -> None:
        """Owner callback: the run landed; fan ``result`` out."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def fail(self, key: str, message: str,
             future: "asyncio.Future[object]") -> None:
        """Owner callback for the ``future`` it claimed: the run failed;
        waiters see the message.

        Failures resolve to an exception so every waiting job marks the
        cell failed rather than hanging forever.  A later owner's claim
        of the same key is left alone.
        """
        if self._inflight.get(key) is future:
            del self._inflight[key]
        if not future.done():
            future.set_exception(RuntimeError(message))
