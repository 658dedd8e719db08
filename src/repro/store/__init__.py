"""Content-addressed results store: never simulate the same cell twice.

The campaign engine is deterministic by construction — every replica is a
pure function of its seed-schedule entry and the cell's fully-resolved
configuration — yet, before this package, every campaign re-simulated
every cell from scratch: overlapping grids across presets, resumed
sweeps and report iterations paid full simulation cost each time.
:class:`CampaignStore` is the warehouse that closes that loop, trading
storage for recomputation (the store-vs-recompute axis of the
checkpointing literature, applied to the simulations themselves).

Design:

* **Keying** (:func:`cell_key`) — one entry per grid cell, holding the
  cell's ordered replica prefix ``[0, n)`` and addressed by the SHA-256
  of exactly the inputs that determine its output bytes: protocol, φ,
  workload, horizon, resolved platform parameters, failure-law dict,
  and replica 0's *derived* seeds (the rest follow by fixed strides, so
  prefixes nest and fixed-count and adaptive campaigns share entries).
  Deliberately finer than a campaign fingerprint: two different
  campaigns whose grids overlap share cached cells.
* **Concurrency** — publishing is one write-then-rename per cell (the
  queue directory's atomic-publish pattern), so any number of processes
  publish and look up the same cells race-free; a longer prefix
  replaces a shorter one, never the reverse, and a shorter publish that
  wins a race costs only a recompute.
* **Integrity** — every lookup re-verifies the entry once per cell:
  full-key match (collisions/tampering refused), the payload digest,
  and each replica re-serialising to exactly its stored line, which is
  the byte string a warm campaign emits.
* **Old stores** — version-1 per-replica entries still open but are
  never served: each recomputes, ``store verify`` names it by path, and
  ``gc`` evicts it.
* **Retention** (:meth:`CampaignStore.gc`) — bounded-size caching, not
  an unbounded archive: LRU/mtime eviction to a byte budget, with the
  footprints of pinned specs and in-progress queue campaigns immune.
* **Query layer** — :meth:`CampaignStore.query`/``ls``/``stat`` over the
  self-describing object tree, :meth:`CampaignStore.export` to
  materialise a spec's byte-identical results file with zero
  simulations, and :func:`cells_from_store` behind
  ``repro-checkpoint report --from-spec --store``.
* **Scale** (:mod:`repro.store.segments`, :mod:`repro.store.cache`) —
  ``store compact`` packs loose entries into append-only segment files
  with a sorted hash index (warm lookup = one index probe + one
  ``pread``; ``ls``/``stat``/``query`` read no data at all), the loose
  tree fans out across 2-hex shard directories, and a process-wide
  byte-bounded :class:`~repro.store.cache.HotCellCache` serves hot
  cells without disk I/O (full verification on first read,
  digest-level on cached re-reads) — warm-replay and report latency
  stay flat as the store grows to fleet scale.

Campaigns opt in through the volatile
:class:`~repro.sim.spec.ExecutionPolicy` fields ``store``/``store_mode``
(or ``execute_spec(..., store=...)`` / ``campaign --store DIR``): the
executor consults the store per cell before dispatching anything to a
backend and publishes fresh cells after the sink append, so a warm
re-run of a completed spec performs **zero** simulations yet produces a
byte-identical results file.
"""

from .cache import (
    CACHED_VERIFICATION_LEVELS,
    DEFAULT_CACHE_BYTES,
    CacheStats,
    HotCellCache,
    configure_cache,
    default_cache,
)
from .store import (
    STORE_FORMAT,
    STORE_MODES,
    STORE_VERSION,
    ENTRY_VERSION,
    CampaignStore,
    CompactReport,
    ExportReport,
    GcReport,
    StoreEntry,
    StoreStat,
    VerifyReport,
    cell_key,
    cells_from_store,
    key_hash,
)

__all__ = [
    "STORE_FORMAT",
    "STORE_MODES",
    "STORE_VERSION",
    "ENTRY_VERSION",
    "CampaignStore",
    "StoreEntry",
    "StoreStat",
    "GcReport",
    "ExportReport",
    "VerifyReport",
    "CompactReport",
    "cell_key",
    "key_hash",
    "cells_from_store",
    "CACHED_VERIFICATION_LEVELS",
    "DEFAULT_CACHE_BYTES",
    "CacheStats",
    "HotCellCache",
    "configure_cache",
    "default_cache",
]
