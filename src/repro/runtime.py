"""Process-wide runtime state: the registry of cross-session caches.

Several hot paths keep **process-global** memo caches — the ntor client
keyshares, the mixnet sender keys and keystreams, the Poly1305 power
tables, the journal's line templates, the shared base-image layer, the
numpy scratch generator — because their contents are pure functions of
their keys (or overwritten before every use) and identical across
sessions.  Left unmanaged they have two failure modes at
production scale:

* they grow without bound (every distinct key ever seen stays resident),
* they leak state across sessions in one process — a long-lived worker
  serving many simulations carries every prior run's key material.

Every such cache is a :class:`ProcessCache`: it registers itself by name
when it is built, stays under its ``max_entries`` bound with
deterministic oldest-first eviction, and is emptied by
:func:`reset_process_caches` (the :class:`~repro.api.NymixSession` close
hook calls it).  Cache state never feeds the seeded RNG stream, so
journal bytes are identical whether a cache is warm, cold, bounded, or
mid-eviction — pinned by tests/test_runtime_caches.py.
"""

from __future__ import annotations

from typing import Dict, List


class ProcessCache(dict):
    """A registered, bounded process-global memo.

    Reads are plain ``dict`` reads (``get``, ``[]``, ``in``), which stay
    in C; a miss stores through :meth:`put`, which keeps the bound.
    ``max_entries`` is fixed by the module that builds the cache.
    Building a second cache under a name replaces the first in the
    registry (modules may be reloaded in tests).
    """

    def __init__(self, name: str, max_entries: int) -> None:
        super().__init__()
        self.name = name
        self.max_entries = max_entries
        self.evictions = 0
        _PROCESS_CACHES[name] = self

    def put(self, key, value):
        """Store ``value`` under ``key`` and return it, evicting FIFO.

        Deterministic: dicts iterate in insertion order, so which entries
        go depends only on the call sequence — identical across same-seed
        runs.
        """
        self[key] = value
        while len(self) > self.max_entries:
            del self[next(iter(self))]
            self.evictions += 1
        return value


_PROCESS_CACHES: Dict[str, ProcessCache] = {}


def process_cache_sizes() -> Dict[str, int]:
    """Current entry count of every registered process-global cache."""
    return {name: len(cache) for name, cache in sorted(_PROCESS_CACHES.items())}


def reset_process_caches() -> Dict[str, int]:
    """Clear every registered cache; returns the sizes they had.

    Safe at any point: caches only memoize derived values, never RNG
    draws, so clearing them changes performance but not a single journal
    byte.
    """
    sizes = process_cache_sizes()
    for cache in _PROCESS_CACHES.values():
        cache.clear()
    return sizes


def registered_cache_names() -> List[str]:
    return sorted(_PROCESS_CACHES)
