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

* **Keying** (:func:`replica_key`) — one entry per (grid cell, replica)
  simulation, addressed by the SHA-256 of exactly the inputs that
  determine its output bytes: protocol, φ, workload, horizon, resolved
  platform parameters, failure-law dict, and the *derived* seed-schedule
  entry.  Deliberately finer than a campaign fingerprint: two different
  campaigns whose grids overlap share cached cells.
* **Concurrency** — publishing is write-then-rename (the queue
  directory's atomic-publish pattern), so any number of processes
  publish and look up the same cells race-free; identical keys can only
  ever carry identical bytes, so the last rename winning is harmless.
* **Integrity** — every lookup re-verifies the entry: full-key match
  (collisions/tampering refused) and an exact serialisation round-trip
  against the stored bytes, which are the bytes a warm campaign emits.
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
    CampaignStore,
    CompactReport,
    ExportReport,
    GcReport,
    ReadStats,
    StoreEntry,
    StoreStat,
    VerifyReport,
    cell_keys,
    cells_from_store,
    key_hash,
    replica_key,
)

__all__ = [
    "STORE_FORMAT",
    "STORE_MODES",
    "STORE_VERSION",
    "CampaignStore",
    "ReadStats",
    "StoreEntry",
    "StoreStat",
    "GcReport",
    "ExportReport",
    "VerifyReport",
    "CompactReport",
    "replica_key",
    "cell_keys",
    "key_hash",
    "cells_from_store",
    "CACHED_VERIFICATION_LEVELS",
    "DEFAULT_CACHE_BYTES",
    "CacheStats",
    "HotCellCache",
    "configure_cache",
    "default_cache",
]
