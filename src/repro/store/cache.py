"""In-process read-through cache of decoded hot store entries.

Every consumer of :class:`~repro.store.CampaignStore` — the executor's
store-mode cell reads, :class:`~repro.sim.distributed.DistributedBackend`
workers, and ``report --from-spec`` — pays the same per-hit cost on a
warm lookup: read the cell entry's bytes, decode every replica, and
re-verify them against the stored payload (full-key match, payload
digest, serialisation round-trip: :func:`repro.io.load_cell`).  That
is the right price to pay *once* — the store must never silently serve a wrong result — but hot
cells (a report queried in a loop, overlapping campaigns replaying the
same grid rows, a long-lived service answering the same waste-surface
query) re-pay it on every hit.

:class:`HotCellCache` is the fix: a byte-bounded, LRU, process-wide
cache of *already verified* decoded entries.  The store's entries are
immutable by construction (content-addressed, deterministic bytes per
key), so a cached value can never go stale — at worst the entry was
gc-evicted from disk, and serving the cached copy is still
byte-correct.  What changes on a cached re-read is the *verification
level*:

* ``"full"`` on first read (in :meth:`CampaignStore.lookup`): bytes are
  read from disk and the complete integrity check runs before the entry
  is admitted to the cache;
* ``"digest"`` (the default) on cached re-reads: the cached canonical
  payload text is re-hashed and compared against the digest recorded on
  first read — memory corruption is caught, the JSON decode and
  round-trip serialisation are skipped;
* ``"full"`` may be requested for cached re-reads too
  (``CampaignStore(..., cached_verification="full")``): the cached
  block is additionally re-encoded through the cell template
  (:func:`repro.io.dump_cell`), with any rows hits built from it, and
  compared against the cached payload text, catching in-place mutation
  of the shared results (disk is still not touched).

One module-level default cache (:func:`default_cache`) is shared by
every ``CampaignStore`` that does not bring its own, so the executor, a
distributed worker's per-claimed-cell lookups and an offline report in
the same process all warm one another.  :func:`configure_cache` resizes
(or disables) that shared cache process-wide.

The cache is keyed on ``(store root, surrogate)`` where the surrogate
(:func:`cache_key`) is a cheap flat tuple of the cell key's scalar
fields — computing the store's real content address costs ~8µs of
canonical-JSON + SHA-256 per call, which would dominate a cache hit.
The surrogate is *not* guaranteed unique (two keys differing only in,
say, their failure-law dict share one), so every hit compares the full
stored key: a mismatch is simply a miss (the caller falls through to
the content-addressed disk path), never a wrong answer.  A lock guards
the map, so concurrent readers (the campaign-service threads) are
safe; it is per-process state — distributed workers on other machines
each warm their own.

Each entry also keeps the aggregated cells built from it
(:attr:`CachedEntry.cells`: prefix length → the
:class:`~repro.sim.campaign.CampaignCell` that
:func:`repro.sim.events.make_cell` returned).  A warm report reads the
same prefixes on every query, and the summary is a pure function of
the entry's verified bytes, so it is computed once per entry and
prefix.  The memo is only ever reached through a hit that has just
passed :meth:`CachedEntry.verify` at the store's level (the store hands
it out on a :class:`~repro.store.store.StoredCell`), and it lives and
dies with its entry: an invalidated or evicted entry takes its cells
with it, and a re-read starts an empty memo.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import ParameterError
from ..obs import Counter, Gauge, default_registry
from ..sim.results import CellBlock

__all__ = [
    "CACHED_VERIFICATION_LEVELS",
    "DEFAULT_CACHE_BYTES",
    "CachedEntry",
    "CacheStats",
    "HotCellCache",
    "cache_key",
    "configure_cache",
    "default_cache",
]

#: Levels a store may re-verify cached re-reads at (see module docstring).
CACHED_VERIFICATION_LEVELS = ("digest", "full")

#: Default byte budget of the shared process-wide cache: large enough to
#: hold the hot rows of a fleet-scale report workload (~100k typical
#: entries), small enough to disappear inside any modern RSS budget.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def cache_key(key: dict) -> tuple:
    """Cheap hashable surrogate of a cell key, for cache addressing.

    A flat tuple of the key's scalar fields — ~10x cheaper to build
    than the store's canonical-JSON SHA-256 address, which matters
    because the surrogate is computed on *every* lookup, hit or miss.
    Collisions are possible (keys differing only inside nested dicts
    share a surrogate) and harmless: the cache stores the full key and
    every hit compares it, so a collision is a miss, never a mix-up.
    """
    params = key.get("params")
    if not isinstance(params, dict):
        params = {}
    return (
        key.get("protocol"), key.get("phi"), key.get("seed"),
        key.get("trace_seed"), key.get("work_target"),
        key.get("engine"), params.get("M"), params.get("n"),
    )


@dataclass(frozen=True)
class CachedEntry:
    """One verified, decoded cell entry as the cache holds it.

    ``block`` is the stored replica prefix, in seed order, as the
    columnar :class:`~repro.sim.results.CellBlock` the admit check
    built (:func:`repro.io.load_cell`), its stored lines as its
    records, and ``payload_text`` those lines joined, exactly what
    ``payload_sha256`` digests.  Keeping it lets a cached re-read
    re-verify at ``"digest"`` level without re-serialising, and at
    ``"full"`` level (one template re-encode) without touching disk; a
    hit serves a prefix of the block, so a warm campaign writes the
    verified bytes and builds no :class:`~repro.sim.results.DesResult`.

    ``cells`` memoizes the aggregated cell of each prefix length served
    from this entry (:meth:`repro.store.store.StoredCell.cell` fills
    it).  The entry's key pins the protocol, M and φ that
    :func:`~repro.sim.events.make_cell` reads from a plan, so the
    prefix length alone names the cell.  It is served only from a hit
    that has just passed :meth:`verify`, is not part of the entry's
    equality or size, and goes wherever the entry goes.
    """

    key: dict
    block: CellBlock
    payload_text: str
    payload_sha256: str
    cells: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.payload_text)

    def verify(self, level: str) -> bool:
        """Re-check this cached entry at ``level``; True when intact."""
        digest = hashlib.sha256(
            self.payload_text.encode("utf-8")
        ).hexdigest()
        if digest != self.payload_sha256:
            return False
        if level == "full":
            from .. import io as repro_io

            lines = repro_io.dump_cell(self.block)
            # Rows earlier hits built from the columns are shared with
            # later hits, so they are re-encoded too.
            rows = self.block._rows if self.block.columns is not None \
                else None
            return "".join(line + "\n" for line in lines) \
                == self.payload_text and (rows is None or tuple(
                    map(repro_io.dump_result, rows)) == lines)
        return True


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`HotCellCache` (``hits`` are re-reads
    served without disk I/O)."""

    entries: int
    bytes: int
    max_bytes: int
    hits: int
    misses: int
    evictions: int

    def describe(self) -> str:
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (f"{self.entries} entries, {self.bytes}/{self.max_bytes} "
                f"bytes, {self.hits}/{total} hits ({rate:.0%}), "
                f"{self.evictions} evicted")


class HotCellCache:
    """Byte-bounded LRU of verified decoded store entries.

    ``max_bytes <= 0`` builds a disabled cache (every ``get`` misses,
    every ``put`` is dropped) so callers never need a ``None`` branch.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES,
                 *, registry=None):
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], CachedEntry] = \
            OrderedDict()
        # The counters are registry instruments (repro_store_cache_*):
        # per-instance state exactly as before, additionally exported
        # process-wide when a registry is passed (the shared default
        # cache registers into repro.obs.default_registry()).
        self._hits = Counter("repro_store_cache_hits_total",
                             help="Cached re-reads served without disk "
                                  "I/O.")
        self._misses = Counter("repro_store_cache_misses_total",
                               help="Cache probes that fell through to "
                                    "disk.")
        self._evictions = Counter("repro_store_cache_evictions_total",
                                  help="Entries evicted by the byte "
                                       "budget.")
        self._gauge_entries = Gauge("repro_store_cache_entries",
                                    help="Entries resident right now.")
        self._gauge_bytes = Gauge("repro_store_cache_bytes",
                                  help="Payload bytes resident right "
                                       "now.")
        self._gauge_max = Gauge("repro_store_cache_max_bytes",
                                help="Configured byte budget.")
        self._gauge_max.set(self.max_bytes)
        self._bytes = 0
        if registry is not None:
            for instrument in (self._hits, self._misses,
                               self._evictions, self._gauge_entries,
                               self._gauge_bytes, self._gauge_max):
                registry.register(instrument)

    def get(self, root: str, token) -> CachedEntry | None:
        """The entry under ``(root, token)``, LRU-refreshed, or None.

        ``token`` is opaque to the cache — any hashable; the store
        passes :func:`cache_key` surrogates.  Callers MUST compare the
        returned entry's full ``key`` (surrogates can collide).
        """
        with self._lock:
            entry = self._entries.get((root, token))
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end((root, token))
            self._hits.inc()
            return entry

    def peek(self, root: str, token) -> CachedEntry | None:
        """Like :meth:`get` but invisible: no LRU refresh, no counters.

        For bulk preloaders deciding what still needs reading — a peek
        is bookkeeping, not a served read, so it must not inflate the
        hit rate the live counters report."""
        with self._lock:
            return self._entries.get((root, token))

    def put(self, root: str, token, entry: CachedEntry) -> None:
        if entry.size > self.max_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            old = self._entries.pop((root, token), None)
            if old is not None:
                self._bytes -= old.size
            self._entries[(root, token)] = entry
            self._bytes += entry.size
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.size
                self._evictions.inc()
            self._gauge_entries.set(len(self._entries))
            self._gauge_bytes.set(self._bytes)

    def invalidate(self, root: str, token) -> None:
        """Drop one entry (a lookup found its copy corrupt)."""
        with self._lock:
            old = self._entries.pop((root, token), None)
            if old is not None:
                self._bytes -= old.size
                self._gauge_entries.set(len(self._entries))
                self._gauge_bytes.set(self._bytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._gauge_entries.set(0)
            self._gauge_bytes.set(0)

    def stats(self) -> CacheStats:
        """This cache's counters as a :class:`CacheStats`.

        .. deprecated:: the ad-hoc snapshot shape — now a thin view
           over the cache's registry instruments
           (``repro_store_cache_*``); kept exact per instance for
           existing callers and ``/healthz``.  Prefer the process-wide
           :func:`repro.obs.default_registry` snapshot for anything
           new.
        """
        with self._lock:
            return CacheStats(
                entries=len(self._entries), bytes=self._bytes,
                max_bytes=self.max_bytes, hits=int(self._hits.value),
                misses=int(self._misses.value),
                evictions=int(self._evictions.value),
            )


_default_cache = HotCellCache(registry=default_registry())
_default_lock = threading.Lock()


def default_cache() -> HotCellCache:
    """The process-wide cache shared by every store that does not bring
    its own."""
    return _default_cache


def configure_cache(max_bytes: int) -> HotCellCache:
    """Resize the shared process-wide cache (0 disables it).

    Replaces the shared instance, so stores constructed *afterwards* see
    the new budget; stores already holding the old instance keep it (a
    cache is per-consumer state, never coordination).
    """
    global _default_cache
    if max_bytes < 0:
        raise ParameterError(
            f"cache max_bytes must be >= 0, got {max_bytes!r}"
        )
    with _default_lock:
        _default_cache = HotCellCache(max_bytes,
                                      registry=default_registry())
        return _default_cache
