"""True-LRU replacement on a set's plain recency list.

Every set-associative structure keeps one ``order`` list per set: way
indices, least recent first.  :class:`repro.mem.sram.SetAssocStore` and
:class:`repro.core.datastore.DataArray` share these two functions; the
batched driver's fast-path probes inline :func:`lru_touch` on the same
live lists.
"""

from __future__ import annotations

from typing import Collection, List


def lru_touch(order: List[int], way: int) -> None:
    """Make ``way`` the most recent entry of ``order``.

    Re-touching the MRU way is the common case on the hot path and a
    no-op; a way outside the list raises ``ValueError``.
    """
    if order[-1] != way:
        order.remove(way)
        order.append(way)


def lru_victim(order: List[int], banned: Collection[int] = ()) -> int:
    """The least recent way not in ``banned``; strict LRU if all are."""
    for way in order:
        if way not in banned:
            return way
    return order[0]
