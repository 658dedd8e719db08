"""The content-addressed results warehouse behind ``repro.store``.

See the package docstring (:mod:`repro.store`) for the design; this
module holds the mechanism:

* :func:`replica_key` — the identity of one stored simulation,
* :class:`CampaignStore` — publish/lookup/query/compact/gc/export over
  a store directory,
* :func:`cells_from_store` — a spec's aggregated cells with zero
  re-simulation (the engine behind ``report --from-spec``).

Storage layout (all three coexist; lookups check them in this order):

* ``segments/<id>.seg`` + ``.idx`` — compacted entries
  (:mod:`repro.store.segments`): one index probe + one ``pread`` per
  lookup, index-only queries, written by :meth:`CampaignStore.compact`;
* ``objects/<2-hex>/<hash>.json`` — loose entries, the atomic-rename
  publish path (2-hex fan-out so no single directory grows unbounded);
* ``objects/<hash>.json`` — the historical flat layout, read
  transparently and migrated into the fan-out on first touch (and into
  segments by compaction).

Hot reads are additionally served by an in-process byte-bounded LRU
(:mod:`repro.store.cache`): full verification on the first disk read,
digest-level verification on cached re-reads.

Import discipline: this module imports only the seed-schedule helpers
from :mod:`repro.sim.backends` at module level; everything that would
close an import cycle (:mod:`repro.sim.spec`, :mod:`repro.sim.executor`,
:mod:`repro.sim.distributed`) is imported lazily inside the functions
that need it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ParameterError
from ..fsclock import clamped_age, filesystem_now
from ..obs import Counter, Gauge, Histogram, default_registry
from ..obs.metrics import DEFAULT_TIME_BUCKETS
from ..obs.trace import current_tracer
from ..sim.backends import replica_seed, trace_seed
from ..sim.campaign import CampaignConfig
from ..sim.distributed import _atomic_write
from ..sim.results import DesResult
from ..sim.spec import STORE_MODES  # noqa: F401 - canonical home is the policy
from .cache import (
    CACHED_VERIFICATION_LEVELS,
    CachedEntry,
    cache_key,
    default_cache,
)
from .segments import Segment, SegmentEntry, load_segments, write_segment

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "STORE_MODES",
    "replica_key",
    "cell_keys",
    "key_hash",
    "CampaignStore",
    "ReadStats",
    "StoreEntry",
    "StoreStat",
    "GcReport",
    "ExportReport",
    "VerifyReport",
    "CompactReport",
    "cells_from_store",
]

STORE_FORMAT = "repro-store"
_ENTRY_FORMAT = "repro-store-entry"
#: Written version; readers refuse other numbers by name, like every
#: envelope in :mod:`repro.io`.  Segments are *additive*: a compacted
#: store still speaks version 1, and a pre-segment reader simply sees
#: the segment-resident entries as cache misses (wasted work, never
#: wrong results).
STORE_VERSION = 1

_HASH_RE = re.compile(r"^[0-9a-f]{64}\.json$")
#: A publish is write-temp-then-rename; gc only sweeps temp files (and
#: orphan segment data files from crashed compactions) older than this
#: (seconds) so it cannot race a live writer's rename.
_TMP_SWEEP_GRACE = 3600.0
#: Engines whose results the store may key (mirrors
#: :data:`repro.sim.spec.CAMPAIGN_BACKENDS`; duplicated here because the
#: store validates *keys*, which outlive any one policy object).
_ENGINES = ("des", "vectorized")

#: Sentinel: "use the process-wide shared hot-cell cache".
_DEFAULT_CACHE = object()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def replica_key(
    config: CampaignConfig, plan, replica: int, *, engine: str = "des"
) -> dict:
    """The store identity of one (grid cell, replica) simulation.

    Deliberately *finer* than a campaign fingerprint: it names exactly
    the inputs that determine the simulation's output bytes — protocol,
    requested φ, workload, horizon, the fully-resolved platform
    parameters (M substituted), the failure-law dict, and the *derived*
    seed-schedule entry (the DES seed, and the shared-trace seed or
    ``None`` when traces are not shared).  The campaign seed and the
    cell's grid coordinates appear only through the derived seeds, so
    two different campaigns whose grids overlap share cached cells —
    including campaigns whose M axes list the same value at different
    positions (no trace sharing), where the raw ``(seed, m_index)`` pair
    would differ but the derived schedule does not.

    ``engine`` names the simulation engine that produced (or must
    produce) the bytes.  The engines are statistically equivalent but
    not byte-identical, so they must never serve each other's results:
    any engine other than the historical ``"des"`` is spliced into the
    key (the ``"des"`` spelling is left exactly as always, so existing
    warehouses keep their contents addressable).  The caller resolves
    the per-cell engine (:func:`repro.sim.vectorized.plan_engine`)
    before keying; shared-trace cells of a vectorized campaign key as
    ``"vectorized"`` (common random-number streams, not DES traces), so
    a DES run of the same spec never serves them, nor they it.
    """
    if engine not in _ENGINES:
        raise ParameterError(
            f"unknown engine {engine!r}; known: {list(_ENGINES)}"
        )
    params = config.base_params.with_updates(M=float(plan.M))
    dist = config.distribution
    key = {
        "format": _ENTRY_FORMAT,
        "version": STORE_VERSION,
        "protocol": plan.protocol,
        "phi": float(plan.phi),
        "work_target": float(config.work_target),
        "max_time": None if config.max_time is None else float(config.max_time),
        "params": params.to_dict(),
        "distribution": None if dist is None else dist.to_dict(),
        "seed": replica_seed(config, replica),
        "trace_seed": trace_seed(config, plan.m_index, replica)
        if config.share_traces else None,
    }
    if engine != "des":
        key["engine"] = engine
    return key


def cell_keys(
    config: CampaignConfig, plan, max_replicas: int, *, engine: str = "des"
) -> Iterator[dict]:
    """The replica keys of one grid cell, in seed order."""
    for replica in range(max_replicas):
        yield replica_key(config, plan, replica, engine=engine)


def key_hash(key: dict) -> str:
    """Content address of a key: SHA-256 of its canonical JSON."""
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _payload_digest(payload: dict) -> str:
    """SHA-256 of a payload's canonical JSON (the tamper witness)."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key_fields(key: dict) -> dict:
    """The queryable fields of an entry key (what index rows carry)."""
    params = key.get("params") or {}
    return {
        "protocol": key.get("protocol"),
        "M": float(params.get("M", float("nan"))),
        "phi": float(key.get("phi", float("nan"))),
        "n": int(params.get("n", 0)),
        "seed": key.get("seed"),
        "trace_seed": key.get("trace_seed"),
        "work_target": float(key.get("work_target", float("nan"))),
    }


def _spec_hashes(spec) -> set[str]:
    """Every replica hash a spec can touch (its pin/coverage footprint).

    Uses the grid's full replica budget, not the adaptive stop points:
    pinning a superset is always safe, and the footprint stays a pure
    function of the spec (no simulation, no store access).
    """
    from ..sim.executor import plan_cells

    from ..sim.vectorized import plan_engine

    config = spec.config()
    backend = getattr(spec.policy, "backend", "des")
    hashes: set[str] = set()
    for plan in plan_cells(config):
        engine = plan_engine(backend, config, plan)
        for key in cell_keys(config, plan, spec.grid.replicas, engine=engine):
            hashes.add(key_hash(key))
    return hashes


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntry:
    """One stored replica result, as the query layer sees it."""

    hash: str
    protocol: str
    M: float
    phi: float
    n: int
    seed: int
    trace_seed: int | None
    work_target: float
    size: int
    mtime: float
    #: Where the bytes live: ``"loose"`` (one file) or ``"segment"``.
    origin: str = "loose"


@dataclass(frozen=True)
class StoreStat:
    """Aggregate accounting of a store directory."""

    entries: int
    total_bytes: int
    protocols: dict[str, int]
    oldest_mtime: float | None
    newest_mtime: float | None
    #: Layout breakdown: loose files vs segment-resident entries.
    loose_entries: int = 0
    segment_entries: int = 0
    segments: int = 0

    def describe(self) -> str:
        per_protocol = ", ".join(
            f"{k}={v}" for k, v in sorted(self.protocols.items())
        ) or "empty"
        layout = f"{self.loose_entries} loose"
        if self.segments:
            layout += (f" + {self.segment_entries} in "
                       f"{self.segments} segment(s)")
        return (f"{self.entries} entries, {self.total_bytes} bytes "
                f"({per_protocol}; {layout})")


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`CampaignStore.gc` pass did (or would do)."""

    entries_before: int
    bytes_before: int
    evicted_entries: int
    evicted_bytes: int
    pinned_entries: int
    dry_run: bool

    @property
    def entries_after(self) -> int:
        return self.entries_before - self.evicted_entries

    @property
    def bytes_after(self) -> int:
        return self.bytes_before - self.evicted_bytes

    def describe(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (f"{verb} {self.evicted_entries} entries "
                f"({self.evicted_bytes} bytes); "
                f"{self.entries_after} entries ({self.bytes_after} bytes) "
                f"remain, {self.pinned_entries} pinned")


@dataclass(frozen=True)
class ExportReport:
    """What :meth:`CampaignStore.export` materialised."""

    cells: int
    frames: int
    bytes_written: int

    def describe(self) -> str:
        return (f"{self.cells} cells ({self.frames} frames, "
                f"{self.bytes_written} bytes) exported from the store, "
                "zero re-simulation")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full-store integrity re-verification."""

    checked: int
    errors: tuple[str, ...]
    #: Aggregates of the entries that verified clean, collected during
    #: the same scan (so ``stat --verify`` never walks the store twice).
    stat: StoreStat | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> str:
        if self.ok:
            return f"{self.checked} entries verified, no corruption"
        return (f"{self.checked} entries checked, "
                f"{len(self.errors)} corrupt: {self.errors[0]}")


@dataclass(frozen=True)
class CompactReport:
    """What one :meth:`CampaignStore.compact` pass did (or would do)."""

    #: Loose entry files found (including historical flat-layout files).
    loose_before: int
    #: Entries packed into the new segment.
    packed_entries: int
    packed_bytes: int
    #: Loose files removed because a segment already held their hash
    #: (leftovers of a crashed compaction or a publish/compact race).
    deduplicated: int
    #: Loose files left in place because they failed validation.
    corrupt: tuple[str, ...]
    #: Id of the segment written, or ``None`` when nothing was packed.
    segment_id: str | None
    #: Store-wide totals after the pass.
    segments_total: int
    segment_entries_total: int
    loose_remaining: int
    dry_run: bool

    def describe(self) -> str:
        verb = "would pack" if self.dry_run else "packed"
        head = (f"{verb} {self.packed_entries} of {self.loose_before} "
                f"loose entries ({self.packed_bytes} bytes)")
        if self.segment_id is not None:
            head += f" into segment {self.segment_id[:12]}"
        tail = (f"; store now: {self.segment_entries_total} entries in "
                f"{self.segments_total} segment(s), "
                f"{self.loose_remaining} loose")
        if self.deduplicated:
            tail += f", {self.deduplicated} duplicates removed"
        if self.corrupt:
            tail += (f", {len(self.corrupt)} corrupt left loose: "
                     f"{self.corrupt[0]}")
        return head + tail


@dataclass(frozen=True)
class ReadStats:
    """Concurrent-read counters of one :class:`CampaignStore` instance.

    ``lookups`` counts every :meth:`CampaignStore.lookup` call (hit or
    miss), ``active`` the lookups in flight at the instant of the
    snapshot, and ``peak_concurrent`` the high-water mark of
    simultaneous readers — the number that proves (or disproves) that a
    shared store instance really was read concurrently, which is what
    the campaign service's load tests assert.  Per *instance*, unlike
    the hot-cell cache counters, which belong to the (usually shared)
    cache object.
    """

    lookups: int
    active: int
    peak_concurrent: int

    def describe(self) -> str:
        return (f"{self.lookups} lookups, {self.active} active, "
                f"peak {self.peak_concurrent} concurrent")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CampaignStore:
    """A content-addressed, concurrency-safe warehouse of replica results.

    One entry per (grid cell, replica) simulation, filed under the
    SHA-256 of its :func:`replica_key`.  Publishing is write-then-rename
    (the same atomic-publish pattern as the distributed queue's done
    markers), so readers never observe a torn entry and concurrent
    publishers of the same key converge on identical bytes.  Lookups
    re-verify the entry against its stored bytes — the full key must
    match (hash collisions and tampering are refused, never silently
    served) and the decoded result must re-serialise to exactly the
    payload on disk, which is the byte string a warm campaign will emit.

    Entries live loose (one file each, the write path) or packed into
    segments (:meth:`compact`, the read-at-scale path); lookups probe
    segments first, then the loose tree, then re-scan for segments a
    concurrent compaction may have just committed — so an entry is
    always found wherever a racing maintenance pass left it.

    Hot entries are additionally served from an in-process read-through
    LRU (:mod:`repro.store.cache`): the first read does the full
    integrity check, cached re-reads re-verify at the configurable
    ``cached_verification`` level (``"digest"`` by default; ``"full"``
    adds the in-memory round-trip).  Pass ``cache=None`` to always read
    from disk.

    Loose lookup hits refresh the entry file's mtime, making mtime a
    last-access clock; segment-resident entries keep the access stamp
    recorded in their index row.  :meth:`gc` evicts least-recently-used
    entries first when trimming to a size budget.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        *,
        create: bool = True,
        cache=_DEFAULT_CACHE,
        cached_verification: str = "digest",
    ):
        self.root = pathlib.Path(root)
        if cached_verification not in CACHED_VERIFICATION_LEVELS:
            raise ParameterError(
                f"unknown cached_verification {cached_verification!r}; "
                f"known: {list(CACHED_VERIFICATION_LEVELS)}"
            )
        self._cached_verification = cached_verification
        self._cache = default_cache() if cache is _DEFAULT_CACHE else cache
        self._cache_root = str(self.root.resolve())
        #: Concurrent-read accounting (see :meth:`read_stats`).  The
        #: counters are registry instruments — per-instance, so
        #: ``read_stats()`` stays exact for tests that construct private
        #: stores, while the process-wide registry sums live instances
        #: for ``GET /metrics``.  ``_read_lock`` still serialises the
        #: active/peak pair (the high-water mark must see a consistent
        #: active count).
        registry = default_registry()
        self._read_lock = threading.Lock()
        self._m_lookups = registry.register(Counter(
            "repro_store_lookups_total",
            help="Store lookups (hit or miss)."))
        self._m_active = registry.register(Gauge(
            "repro_store_readers_active",
            help="Lookups in flight right now."))
        self._m_peak = registry.register(Gauge(
            "repro_store_readers_peak_concurrent", aggregate="max",
            help="High-water mark of simultaneous readers."))
        self._m_results = {
            outcome: registry.register(Counter(
                "repro_store_lookup_results_total",
                help="Lookup outcomes.", labels={"result": outcome}))
            for outcome in ("hit", "miss")
        }
        self._m_lookup_seconds = {
            outcome: registry.register(Histogram(
                "repro_store_lookup_seconds", DEFAULT_TIME_BUCKETS,
                help="Full lookup latency by outcome.", unit="seconds",
                labels={"result": outcome}))
            for outcome in ("hit", "miss")
        }
        self._m_verify_seconds = registry.register(Histogram(
            "repro_store_verify_seconds", DEFAULT_TIME_BUCKETS,
            help="Entry decode+verify latency (disk reads only; cached "
                 "hits re-verify inside the cache).", unit="seconds"))
        self._m_publish = {
            outcome: registry.register(Counter(
                "repro_store_publish_total",
                help="Publish outcomes.", labels={"result": outcome}))
            for outcome in ("stored", "duplicate")
        }
        self._m_preload = registry.register(Counter(
            "repro_store_preload_entries_total",
            help="Entries admitted to the hot-cell cache by preload."))
        #: Lazily-loaded committed segments (id → Segment) and the
        #: merged hash → segment-id probe map (first id wins, so every
        #: process resolves duplicate hashes to the same copy).
        self._segments: dict[str, Segment] | None = None
        self._segment_map: dict[str, str] = {}
        manifest = self.root / "store.json"
        if manifest.exists():
            try:
                stored = json.loads(manifest.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ParameterError(
                    f"{manifest}: unreadable store manifest ({exc}); this "
                    "is not a results-store directory"
                ) from exc
            if not isinstance(stored, dict) \
                    or stored.get("format") != STORE_FORMAT:
                raise ParameterError(
                    f"{manifest}: not a {STORE_FORMAT} manifest; refusing "
                    "to treat a foreign directory as a results store"
                )
            if stored.get("version") != STORE_VERSION:
                raise ParameterError(
                    f"{manifest}: unsupported store version "
                    f"{stored.get('version')!r} (this library speaks "
                    f"version {STORE_VERSION})"
                )
        elif create:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            _atomic_write(manifest, json.dumps(
                {"format": STORE_FORMAT, "version": STORE_VERSION},
                sort_keys=True,
            ) + "\n")
        else:
            raise ParameterError(
                f"{self.root}: no results store here (missing store.json)"
            )

    def cache_stats(self):
        """This store's hot-cell cache counters
        (:class:`~repro.store.cache.CacheStats`), or ``None`` when the
        store reads straight from disk (``cache=None``).

        The counters belong to the cache *instance* — usually the
        process-wide default shared by every store in the process — so
        they describe what a live process (a campaign session, the
        planned service) has actually served, not this store alone.
        """
        if self._cache is None:
            return None
        return self._cache.stats()

    # -- paths ---------------------------------------------------------
    def _objects(self) -> pathlib.Path:
        return self.root / "objects"

    def _segments_dir(self) -> pathlib.Path:
        return self.root / "segments"

    def _entry_path(self, hash_: str) -> pathlib.Path:
        return self._objects() / hash_[:2] / f"{hash_}.json"

    def _flat_path(self, hash_: str) -> pathlib.Path:
        """Where the historical flat layout kept this entry."""
        return self._objects() / f"{hash_}.json"

    # -- segment state -------------------------------------------------
    def _refresh_segments(self) -> None:
        """(Re-)scan the segments directory for committed segments."""
        segments: dict[str, Segment] = {}
        for segment in load_segments(self._segments_dir()):
            segments[segment.id] = segment
        merged: dict[str, str] = {}
        for sid in sorted(segments):
            for hash_ in segments[sid].entries:
                merged.setdefault(hash_, sid)
        self._segments = segments
        self._segment_map = merged

    def _segment_probe(self, hash_: str) -> tuple[bytes, str] | None:
        """This entry's exact bytes from a segment, or ``None``.

        Uses the cached index view; a segment rewritten underneath us
        (gc) reads as a miss here and the caller's re-scan finds the
        successor.
        """
        if self._segments is None:
            self._refresh_segments()
        sid = self._segment_map.get(hash_)
        if sid is None:
            return None
        segment = self._segments[sid]
        row = segment.entries[hash_]
        try:
            data = segment.read(row)
        except OSError:
            return None  # concurrently rewritten
        if len(data) != row.length:
            return None  # torn view of a vanishing segment
        return data, f"{segment.data_path}@{row.offset}"

    def _adopt_flat(self, hash_: str) -> None:
        """Migrate one flat-layout file into the 2-hex fan-out.

        Atomic (``os.replace`` within the objects tree) and best-effort:
        a concurrent reader that misses the flat path re-checks the
        sharded path, and losing a race to another migrator is success.
        """
        target = self._entry_path(hash_)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self._flat_path(hash_), target)
        except OSError:
            pass

    def _read_loose(self, hash_: str) -> tuple[str, pathlib.Path] | None:
        """The loose entry text and its (post-migration) path, if any."""
        sharded = self._entry_path(hash_)
        try:
            return sharded.read_text(), sharded
        except FileNotFoundError:
            pass
        try:
            text = self._flat_path(hash_).read_text()
        except FileNotFoundError:
            # A concurrent migrator may have just moved flat → sharded.
            try:
                return sharded.read_text(), sharded
            except FileNotFoundError:
                return None
        self._adopt_flat(hash_)
        return text, sharded

    def _contains(self, hash_: str) -> bool:
        if self._segments is None:
            self._refresh_segments()
        return (hash_ in self._segment_map
                or self._entry_path(hash_).exists()
                or self._flat_path(hash_).exists())

    def _touch(self, hash_: str) -> None:
        """Refresh the loose LRU clock (no-op for segment entries)."""
        try:
            os.utime(self._entry_path(hash_))
        except OSError:
            pass  # segment-resident or concurrently evicted

    # -- publish / lookup ----------------------------------------------
    def publish(self, key: dict, result: DesResult) -> bool:
        """Store one replica result; returns False if already present.

        Always writes a *loose* entry — one atomic write-temp-then-
        rename, the property that makes any number of concurrent
        publishers race-free; compaction folds loose entries into
        segments later.  A crashed publisher leaves only a temp file
        that the next :meth:`gc` sweeps up.
        """
        from .. import io as repro_io

        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("store.publish", "store"):
                return self._publish(key, result, repro_io)
        return self._publish(key, result, repro_io)

    def _publish(self, key: dict, result: DesResult, repro_io) -> bool:
        hash_ = key_hash(key)
        if self._contains(hash_):
            self._m_publish["duplicate"].inc()
            return False
        payload = repro_io.to_envelope(result)
        entry = {
            "format": _ENTRY_FORMAT,
            "version": STORE_VERSION,
            "key": key,
            "payload": payload,
            # The payload's own digest: the address hashes the *key*, so
            # without this a well-formed but altered payload would be
            # undetectable (the simulation bytes are not in the address).
            "payload_sha256": _payload_digest(payload),
        }
        path = self._entry_path(hash_)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(entry, sort_keys=True) + "\n")
        self._m_publish["stored"].inc()
        return True

    def read_stats(self) -> ReadStats:
        """This instance's concurrent-read counters (see
        :class:`ReadStats`); callable from any thread.

        .. deprecated:: the ad-hoc snapshot shape — this is now a thin
           view over the instance's registry instruments
           (``repro_store_lookups_total`` /
           ``repro_store_readers_active`` /
           ``repro_store_readers_peak_concurrent``); prefer the
           process-wide :func:`repro.obs.default_registry` snapshot for
           anything new.  Kept exact per instance for existing callers.
        """
        with self._read_lock:
            return ReadStats(
                lookups=int(self._m_lookups.value),
                active=int(self._m_active.value),
                peak_concurrent=int(self._m_peak.value),
            )

    def lookup(self, key: dict) -> DesResult | None:
        """The stored result of ``key``, or ``None`` on a miss.

        A hit is integrity-checked before it is served: the entry's full
        stored key must equal the requested one (a hash collision or a
        renamed file is a hard error, not a wrong answer), and the
        decoded result must re-serialise to exactly the payload bytes on
        disk — the bytes a warm campaign re-emits.  Corruption raises a
        :class:`~repro.errors.ParameterError` naming the entry; a store
        must never silently substitute wrong results for a simulation.

        Read path: the in-process hot-cell cache (digest-level re-check)
        first, then segments (index probe + ``pread``), then the loose
        tree, then one segment re-scan — the re-scan is what makes a
        concurrent compaction invisible: an entry whose loose file was
        just packed away is found in the segment the compaction
        committed first.

        Safe to call from many threads at once against one instance
        (the campaign service does); :meth:`read_stats` reports how
        concurrent the reads actually were.
        """
        with self._read_lock:
            self._m_lookups.inc()
            self._m_active.inc()
            active = self._m_active.value
            if active > self._m_peak.value:
                self._m_peak.set(active)
        started = time.perf_counter()
        tracer = current_tracer()
        try:
            if tracer is None:
                result = self._lookup(key)
            else:
                with tracer.span("store.lookup", "store") as span:
                    result = self._lookup(key)
                    span.args["result"] = \
                        "hit" if result is not None else "miss"
            outcome = "hit" if result is not None else "miss"
            self._m_results[outcome].inc()
            self._m_lookup_seconds[outcome].observe(
                time.perf_counter() - started)
            return result
        finally:
            with self._read_lock:
                self._m_active.dec()

    def _lookup(self, key: dict) -> DesResult | None:
        token = None
        if self._cache is not None:
            # Probed by cheap surrogate, resolved by full-key equality:
            # the content address (canonical JSON + SHA-256, ~8us) is
            # only computed when the disk must be touched anyway.
            token = cache_key(key)
            cached = self._cache.get(self._cache_root, token)
            if cached is not None and cached.key == key:
                if cached.verify(self._cached_verification):
                    if cached.origin == "loose":
                        self._touch(cached.hash)  # LRU clock for gc
                    return cached.result
                # In-memory corruption: drop it and re-read from disk.
                self._cache.invalidate(self._cache_root, token)

        hash_ = key_hash(key)
        found = self._segment_probe(hash_)
        if found is not None:
            text, label = found
            loose_path = None
        else:
            loose = self._read_loose(hash_)
            if loose is None:
                # A concurrent compaction may have just moved the loose
                # file into a segment we have not scanned yet.
                self._refresh_segments()
                found = self._segment_probe(hash_)
                if found is None:
                    return None
                text, label = found
                loose_path = None
            else:
                text, loose_path = loose
                label = str(loose_path)
        try:
            entry = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(
                f"{label}: corrupt store entry (invalid JSON: {exc}); "
                "delete the file (or run `repro-checkpoint store gc`) "
                "and re-run to repopulate it"
            ) from exc
        verify_started = time.perf_counter()
        result = self._decode_entry(label, entry, expected_key=key)
        self._m_verify_seconds.observe(
            time.perf_counter() - verify_started)
        if self._cache is not None:
            self._cache.put(self._cache_root, token, CachedEntry(
                key=key,
                result=result,
                payload_text=json.dumps(entry["payload"], sort_keys=True),
                payload_sha256=entry["payload_sha256"],
                hash=hash_,
                origin="loose" if loose_path is not None else "segment",
            ))
        if loose_path is not None:
            try:
                os.utime(loose_path)  # LRU clock for gc
            except OSError:
                pass  # concurrently evicted: the result in hand is good
        return result

    def preload(self, keys) -> int:
        """Prime the hot-cell cache for ``keys`` with bulk segment reads.

        The sequential-read fast path behind spec-footprint resolution
        (``store export``, ``report --from-spec``, the executor's
        pre-dispatch store consult): instead of one index probe plus one
        ``pread`` per replica entry, the footprint's segment-resident
        entries are grouped per segment, coalesced into contiguous
        spans, and streamed with a few sequential reads
        (:meth:`~repro.store.segments.Segment.read_many`) — a spec
        whose footprint resolves to few segments reads each of them
        once, front to back.  Every admitted entry passes the same full
        verification a cold :meth:`lookup` performs; the per-key lookup
        that follows is then a memory hit.

        Purely an I/O-pattern optimisation, never a semantic one: loose
        entries, absent keys and torn bulk reads (a concurrent gc
        rewrite) are simply left for the per-entry lookup path, and with
        the cache disabled there is nowhere to stage decoded entries, so
        this is a no-op.  Returns the number of entries admitted.
        """
        if self._cache is None:
            return 0
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("store.preload", "store") as span:
                loaded = self._preload(keys)
                span.args["entries"] = loaded
                return loaded
        return self._preload(keys)

    def _preload(self, keys) -> int:
        if self._segments is None:
            self._refresh_segments()
        wanted: dict[str, list[tuple[dict, tuple, str]]] = {}
        for key in keys:
            token = cache_key(key)
            if self._cache.peek(self._cache_root, token) is not None:
                continue
            hash_ = key_hash(key)
            sid = self._segment_map.get(hash_)
            if sid is not None:
                wanted.setdefault(sid, []).append((key, token, hash_))
        loaded = 0
        for sid, items in wanted.items():
            segment = self._segments[sid]
            data = segment.read_many(
                [segment.entries[hash_] for _, _, hash_ in items]
            )
            for key, token, hash_ in items:
                raw = data.get(hash_)
                if raw is None:
                    continue  # torn read: lookup's re-scan recovers
                label = (f"{segment.data_path}"
                         f"@{segment.entries[hash_].offset}")
                try:
                    entry = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise ParameterError(
                        f"{label}: corrupt store entry (invalid JSON: "
                        f"{exc}); delete the segment pair (or run "
                        "`repro-checkpoint store gc`) and re-run to "
                        "repopulate it"
                    ) from exc
                verify_started = time.perf_counter()
                result = self._decode_entry(label, entry, expected_key=key)
                self._m_verify_seconds.observe(
                    time.perf_counter() - verify_started)
                self._cache.put(self._cache_root, token, CachedEntry(
                    key=key,
                    result=result,
                    payload_text=json.dumps(
                        entry["payload"], sort_keys=True
                    ),
                    payload_sha256=entry["payload_sha256"],
                    hash=hash_,
                    origin="segment",
                ))
                loaded += 1
        self._m_preload.inc(loaded)
        return loaded

    @staticmethod
    def _decode_entry(
        path, entry: dict, *, expected_key: dict | None
    ) -> DesResult:
        from .. import io as repro_io

        if not isinstance(entry, dict) \
                or entry.get("format") != _ENTRY_FORMAT:
            raise ParameterError(
                f"{path}: not a {_ENTRY_FORMAT} record; the store "
                "directory holds foreign files"
            )
        if entry.get("version") != STORE_VERSION:
            raise ParameterError(
                f"{path}: unsupported store-entry version "
                f"{entry.get('version')!r} (this library speaks "
                f"version {STORE_VERSION})"
            )
        stored_key = entry.get("key")
        if expected_key is not None and stored_key != expected_key:
            raise ParameterError(
                f"{path}: stored key does not match the requested one "
                "(hash collision or tampered entry); refusing to serve "
                "a different simulation's result"
            )
        result = repro_io.from_envelope(entry.get("payload"))
        if not isinstance(result, DesResult):
            raise ParameterError(
                f"{path}: store entries hold raw DES runs, found a "
                f"{type(result).__name__}"
            )
        # Re-verification against the stored frame bytes: the payload
        # must match its recorded digest (the address only hashes the
        # key, so tampering inside the payload needs its own witness)
        # and the object we hand out must re-serialise to exactly what
        # is on disk, because that is the byte string a warm campaign
        # emits in place of a simulation.
        if _payload_digest(entry["payload"]) != entry.get("payload_sha256"):
            raise ParameterError(
                f"{path}: entry payload does not match its recorded "
                "digest; the entry is corrupt — delete it and re-run to "
                "repopulate"
            )
        if json.dumps(entry["payload"], sort_keys=True) \
                != repro_io.dump_result(result):
            raise ParameterError(
                f"{path}: entry payload does not survive a serialisation "
                "round-trip; the entry is corrupt — delete it and re-run "
                "to repopulate"
            )
        return result

    # -- cell-level API (what the executor drives) ---------------------
    def load_cell(
        self, config: CampaignConfig, plan, controller, *, engine: str = "des"
    ):
        """A complete cell from the store, or ``None``.

        Replica entries are pulled in seed order and pushed through the
        ``controller``'s incremental cursor — the *same* cursor live
        execution and resume scans drive — so a hit returns exactly the
        replica prefix a fresh run would have produced, whatever
        controller stored the entries.  A store populated by a
        fixed-count campaign therefore serves an adaptive campaign's
        shorter prefix for free, while a store holding fewer replicas
        than this controller needs is a miss (the cell re-runs in full).
        """
        cursor = controller.cursor()
        results: list[DesResult] = []
        for replica in range(controller.max_replicas):
            result = self.lookup(
                replica_key(config, plan, replica, engine=engine)
            )
            if result is None:
                return None
            results.append(result)
            if cursor.push(result.waste):
                return results
        return None  # controller never stopped inside the budget

    def publish_cell(
        self, config: CampaignConfig, plan, results, *, engine: str = "des"
    ) -> int:
        """Publish every replica of one finished cell; returns how many
        entries were new."""
        published = 0
        for replica, result in enumerate(results):
            published += self.publish(
                replica_key(config, plan, replica, engine=engine), result
            )
        return published

    # -- index / query layer -------------------------------------------
    def _object_files(self) -> Iterator[tuple[str, pathlib.Path]]:
        """Every loose entry file — 2-hex fan-out shards first, then any
        historical flat-layout files at the objects root."""
        objects = self._objects()
        try:
            names = sorted(os.listdir(objects))
        except FileNotFoundError:
            return
        flat: list[str] = []
        for name in names:
            if _HASH_RE.match(name):
                flat.append(name)
                continue
            shard_dir = objects / name
            try:
                entries = sorted(os.listdir(shard_dir))
            except (FileNotFoundError, NotADirectoryError):
                continue
            for entry in entries:
                if _HASH_RE.match(entry):
                    yield entry[:-5], shard_dir / entry
        for name in flat:
            yield name[:-5], objects / name

    def entries(self) -> Iterator[StoreEntry]:
        """Every stored entry, as queryable metadata, streamed.

        Segment-resident entries come straight from the in-memory index
        rows — **no data file is read at all** — which is what keeps
        ``ls``/``stat``/``query`` latency flat as the store grows.
        Loose entries are self-describing (the key travels inside the
        file), so the loose index can never drift from the contents and
        needs no cross-process coordination; a loose file whose hash a
        segment already holds (a compaction-race leftover) is reported
        once, as its segment copy.
        """
        self._refresh_segments()
        for sid in sorted(self._segments):
            segment = self._segments[sid]
            for hash_ in sorted(segment.entries):
                if self._segment_map[hash_] != sid:
                    continue  # duplicate across segments: first id wins
                row = segment.entries[hash_]
                yield StoreEntry(
                    hash=hash_, protocol=row.protocol, M=row.M,
                    phi=row.phi, n=row.n, seed=row.seed,
                    trace_seed=row.trace_seed,
                    work_target=row.work_target, size=row.length,
                    mtime=row.mtime, origin="segment",
                )
        for hash_, path in self._object_files():
            if hash_ in self._segment_map:
                continue
            try:
                stat = path.stat()
                entry = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ParameterError(
                    f"{path}: unreadable store entry ({exc})"
                ) from exc
            key = entry.get("key") if isinstance(entry, dict) else None
            if not isinstance(key, dict):
                raise ParameterError(
                    f"{path}: store entry carries no key; the store "
                    "directory holds foreign files"
                )
            yield StoreEntry(
                hash=hash_, size=stat.st_size, mtime=stat.st_mtime,
                origin="loose", **_key_fields(key),
            )

    def query(
        self,
        *,
        protocol: str | None = None,
        M: float | None = None,
        phi: float | None = None,
        n: int | None = None,
    ) -> Iterator[StoreEntry]:
        """Entries matching every given filter (the CLI's ``store ls``)."""
        for entry in self.entries():
            if protocol is not None and entry.protocol != protocol:
                continue
            if M is not None and entry.M != float(M):
                continue
            if phi is not None and entry.phi != float(phi):
                continue
            if n is not None and entry.n != int(n):
                continue
            yield entry

    def stat(self) -> StoreStat:
        """Aggregate accounting (``store stat``), one streaming pass.

        Constant memory: entries are folded into the totals as they
        stream by, and segment-resident entries are counted from their
        index rows without touching the data files.
        """
        entries = 0
        total = 0
        loose = 0
        in_segments = 0
        protocols: dict[str, int] = {}
        oldest: float | None = None
        newest: float | None = None
        for entry in self.entries():
            entries += 1
            total += entry.size
            if entry.origin == "segment":
                in_segments += 1
            else:
                loose += 1
            protocols[entry.protocol] = protocols.get(entry.protocol, 0) + 1
            oldest = entry.mtime if oldest is None else min(oldest, entry.mtime)
            newest = entry.mtime if newest is None else max(newest, entry.mtime)
        return StoreStat(
            entries=entries, total_bytes=total, protocols=protocols,
            oldest_mtime=oldest, newest_mtime=newest,
            loose_entries=loose, segment_entries=in_segments,
            segments=len(self._segments or {}),
        )

    def verify(self) -> VerifyReport:
        """Re-verify every entry against its stored bytes, streamed.

        Checks, per entry: the address (file name, or index row hash)
        matches the SHA-256 of the stored key (content addressing), the
        payload decodes into a raw DES run, and the decoded run
        re-serialises to the exact payload bytes on disk.  Segment
        entries additionally check that the index row's queryable
        fields agree with the stored key.  Collects problems instead of
        stopping at the first, so one corrupt entry does not hide the
        rest; nothing is materialised beyond the running aggregates.
        """
        checked = 0
        errors: list[str] = []
        entries = 0
        total = 0
        loose = 0
        in_segments = 0
        protocols: dict[str, int] = {}
        oldest: float | None = None
        newest: float | None = None

        def _tally(protocol, size: int, mtime: float, *, segment: bool):
            nonlocal entries, total, loose, in_segments, oldest, newest
            entries += 1
            total += size
            if segment:
                in_segments += 1
            else:
                loose += 1
            protocols[protocol] = protocols.get(protocol, 0) + 1
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)

        self._refresh_segments()
        for sid in sorted(self._segments):
            segment = self._segments[sid]
            for hash_ in sorted(segment.entries):
                if self._segment_map[hash_] != sid:
                    continue
                row = segment.entries[hash_]
                label = f"{segment.data_path}@{row.offset}"
                checked += 1
                try:
                    raw = segment.read(row)
                    if len(raw) != row.length:
                        raise ParameterError(
                            "segment data is shorter than the index row"
                        )
                    entry = json.loads(raw)
                    if not isinstance(entry, dict):
                        raise ParameterError("entry is not an object")
                    if key_hash(entry.get("key", {})) != hash_:
                        raise ParameterError(
                            "index hash does not match the stored key's "
                            "hash"
                        )
                    self._decode_entry(label, entry, expected_key=None)
                    fields = _key_fields(entry["key"])
                    if fields["protocol"] != row.protocol \
                            or fields["seed"] != row.seed:
                        raise ParameterError(
                            "index row disagrees with the stored key"
                        )
                except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                        ParameterError) as exc:
                    errors.append(f"{label}: {exc}")
                    continue
                _tally(row.protocol, row.length, row.mtime, segment=True)
        for hash_, path in self._object_files():
            if hash_ in self._segment_map:
                continue  # verified above, as its segment copy
            checked += 1
            try:
                stat = path.stat()
                entry = json.loads(path.read_text())
                if not isinstance(entry, dict):
                    raise ParameterError("entry is not an object")
                if key_hash(entry.get("key", {})) != hash_:
                    raise ParameterError(
                        "file name does not match the stored key's hash"
                    )
                self._decode_entry(path, entry, expected_key=None)
            except (OSError, json.JSONDecodeError, ParameterError) as exc:
                errors.append(f"{path}: {exc}")
                continue
            _tally(entry["key"].get("protocol"), stat.st_size,
                   stat.st_mtime, segment=False)
        return VerifyReport(
            checked=checked, errors=tuple(errors),
            stat=StoreStat(
                entries=entries, total_bytes=total, protocols=protocols,
                oldest_mtime=oldest, newest_mtime=newest,
                loose_entries=loose, segment_entries=in_segments,
                segments=len(self._segments or {}),
            ),
        )

    # -- compaction ----------------------------------------------------
    def compact(self, *, dry_run: bool = False) -> CompactReport:
        """Pack the loose entries into one new segment (``store compact``).

        Safe against every concurrent store user, by construction:

        * **readers** — the segment is committed (index rename) *before*
          any loose file is unlinked, and lookups re-scan for new
          segments before declaring a miss, so there is no instant at
          which a packed entry is findable nowhere;
        * **writers** — publish only ever creates loose files, which the
          *next* compaction folds in; a publish racing this pass at
          worst re-creates a loose duplicate with identical bytes
          (content-addressed keys make that harmless), removed as a
          duplicate later;
        * **gc** — eviction unlinks loose files or rewrites other
          segments; a loose file that vanishes mid-pack is simply
          dropped from the batch.  (A file gc unlinks *after* this pass
          read it is resurrected inside the segment — rerun ``gc`` after
          ``compact`` to re-apply a byte budget exactly.)

        Each loose file is validated (parse, format, address, payload
        digest) before packing; corrupt files are left loose and
        reported, never baked into a segment.  Historical flat-layout
        files are packed like any other loose entry, which migrates
        them off the objects root for good.
        """
        self._refresh_segments()
        listing: list[tuple[str, pathlib.Path]] = []
        duplicates: list[pathlib.Path] = []
        for hash_, path in self._object_files():
            if hash_ in self._segment_map:
                duplicates.append(path)
            else:
                listing.append((hash_, path))
        loose_before = len(listing) + len(duplicates)
        listing.sort()  # hash order: identical sets pack identically

        corrupt: list[str] = []
        packed: list[tuple[str, pathlib.Path]] = []
        packed_bytes = 0

        def _records() -> Iterator[tuple[SegmentEntry, bytes]]:
            nonlocal packed_bytes
            for hash_, path in listing:
                try:
                    stat = path.stat()
                    raw = path.read_bytes()
                except OSError:
                    continue  # concurrently evicted by gc: drop it
                try:
                    entry = json.loads(raw)
                    if not isinstance(entry, dict) \
                            or entry.get("format") != _ENTRY_FORMAT:
                        raise ParameterError(
                            f"not a {_ENTRY_FORMAT} record"
                        )
                    if entry.get("version") != STORE_VERSION:
                        raise ParameterError(
                            "unsupported store-entry version "
                            f"{entry.get('version')!r}"
                        )
                    if key_hash(entry.get("key", {})) != hash_:
                        raise ParameterError(
                            "file name does not match the stored key's "
                            "hash"
                        )
                    if _payload_digest(entry["payload"]) \
                            != entry.get("payload_sha256"):
                        raise ParameterError(
                            "entry payload does not match its recorded "
                            "digest"
                        )
                except (json.JSONDecodeError, UnicodeDecodeError,
                        ParameterError, KeyError) as exc:
                    corrupt.append(f"{path}: {exc}")
                    continue
                fields = _key_fields(entry["key"])
                packed.append((hash_, path))
                packed_bytes += len(raw)
                yield SegmentEntry(
                    hash=hash_, offset=0, length=len(raw),
                    mtime=stat.st_mtime, **fields,
                ), raw

        if dry_run:
            for _ in _records():
                pass
            segment = None
        else:
            segment = write_segment(self._segments_dir(), _records())
            # The segment is committed: now (and only now) retire the
            # packed loose files and any pre-existing duplicates.
            for _, path in packed:
                try:
                    path.unlink()
                except OSError:
                    pass
            for path in duplicates:
                try:
                    path.unlink()
                except OSError:
                    pass
            self._refresh_segments()
        return CompactReport(
            loose_before=loose_before,
            packed_entries=len(packed),
            packed_bytes=packed_bytes,
            deduplicated=len(duplicates),
            corrupt=tuple(corrupt),
            segment_id=None if segment is None else segment.id,
            segments_total=len(self._segments or {}),
            segment_entries_total=len(self._segment_map),
            loose_remaining=len(corrupt) if not dry_run
            else loose_before - len(duplicates),
            dry_run=dry_run,
        )

    # -- coverage / eviction -------------------------------------------
    def coverage(self, spec) -> tuple[int, int]:
        """``(present, total)`` replica entries of a spec's footprint."""
        self._refresh_segments()
        hashes = _spec_hashes(spec)
        present = sum(1 for h in hashes if self._contains(h))
        return present, len(hashes)

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age: float | None = None,
        pin_specs: Iterable = (),
        pin_queues: Iterable[str | pathlib.Path] = (),
        dry_run: bool = False,
        now: float | None = None,
    ) -> GcReport:
        """Trim the store to a retention budget (LRU by access mtime).

        ``max_age`` evicts entries idle longer than that many seconds;
        ``max_bytes`` then evicts least-recently-used entries until the
        store fits the budget.  Loose and segment-resident entries are
        judged by one rule — a loose entry's age is its file mtime, a
        segment entry's is the access stamp recorded in its index row,
        and both go through :func:`repro.fsclock.clamped_age` against
        the *store filesystem's* clock, so cross-machine skew can never
        age a fresh entry past the budget.  Evicting from a segment
        atomically rewrites that segment without the evicted rows (or
        removes it outright when empty).

        Entries in the footprint of a ``pin_specs`` spec or of the
        campaign recorded in a ``pin_queues`` queue-directory manifest
        are never evicted — a fleet mid-campaign must not lose the cells
        its queue still references — wherever they live.  Abandoned temp
        files from crashed publishers and orphan segment data files from
        crashed compactions are swept unconditionally.  ``dry_run``
        reports without deleting.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ParameterError(f"max_bytes must be >= 0, got {max_bytes!r}")
        if max_age is not None and max_age <= 0:
            raise ParameterError(f"max_age must be > 0, got {max_age!r}")
        if now is None:
            # Entry mtimes were stamped by the store directory's
            # filesystem (possibly a fileserver on another clock):
            # measure *now* with that same clock, and clamp every age at
            # zero below, so a clock step can never age a just-published
            # entry past --max-age.
            now = filesystem_now(self._objects())
        else:
            now = float(now)

        pinned: set[str] = set()
        for spec in pin_specs:
            pinned |= _spec_hashes(spec)
        for queue in pin_queues:
            from ..sim.distributed import read_queue_manifest
            from ..sim.spec import CampaignSpec

            manifest = read_queue_manifest(queue)
            pinned |= _spec_hashes(CampaignSpec.from_dict(manifest["campaign"]))

        # Sweep crashed writers' leftovers (never the entries) — but
        # only stale ones: a fresh temp may be a live writer's in-flight
        # write-then-rename (or a compaction's data file awaiting its
        # index commit), and unlinking it mid-flight would crash that
        # process's os.replace.
        if not dry_run:
            self._sweep_leftovers(now)

        self._refresh_segments()
        # hash → (newest access mtime, total bytes, loose paths,
        # segment ids); an entry duplicated across layouts is one
        # logical entry with several physical copies, all of which an
        # eviction must remove.
        copies: dict[str, list] = {}
        for sid, segment in (self._segments or {}).items():
            for hash_, row in segment.entries.items():
                copies.setdefault(hash_, []).append(
                    (row.mtime, row.length, "segment", sid)
                )
        for hash_, path in self._object_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            copies.setdefault(hash_, []).append(
                (stat.st_mtime, stat.st_size, "loose", path)
            )

        listing = [
            (max(c[0] for c in copy_list),
             sum(c[1] for c in copy_list),
             hash_, copy_list)
            for hash_, copy_list in copies.items()
        ]
        entries_before = len(listing)
        bytes_before = sum(size for _, size, _, _ in listing)
        pinned_present = sum(1 for _, _, h, _ in listing if h in pinned)

        evicted_entries = 0
        evicted_bytes = 0
        #: segment id → hashes to drop from it (applied in one rewrite).
        segment_drops: dict[str, set[str]] = {}

        def _evict(size: int, hash_: str, copy_list: list) -> None:
            nonlocal evicted_entries, evicted_bytes
            if not dry_run:
                for _, _, kind, where in copy_list:
                    if kind == "loose":
                        try:
                            where.unlink()
                        except OSError:
                            pass  # a racing gc won
                    else:
                        segment_drops.setdefault(where, set()).add(hash_)
            evicted_entries += 1
            evicted_bytes += size

        survivors: list[tuple[float, int, str, list]] = []
        for mtime, size, hash_, copy_list in sorted(
            listing, key=lambda item: item[:3]
        ):
            if hash_ in pinned:
                survivors.append((mtime, size, hash_, copy_list))
                continue
            if max_age is not None and clamped_age(now, mtime) > max_age:
                _evict(size, hash_, copy_list)
                continue
            survivors.append((mtime, size, hash_, copy_list))

        if max_bytes is not None:
            total = sum(size for _, size, _, _ in survivors)
            # Oldest access first; pinned entries are immune however
            # tight the budget gets.
            for mtime, size, hash_, copy_list in sorted(
                survivors, key=lambda item: item[:3]
            ):
                if total <= max_bytes:
                    break
                if hash_ in pinned:
                    continue
                _evict(size, hash_, copy_list)
                total -= size

        if segment_drops and not dry_run:
            for sid, drops in segment_drops.items():
                self._rewrite_segment(sid, drops)
            self._refresh_segments()

        return GcReport(
            entries_before=entries_before,
            bytes_before=bytes_before,
            evicted_entries=evicted_entries,
            evicted_bytes=evicted_bytes,
            pinned_entries=pinned_present,
            dry_run=dry_run,
        )

    def _rewrite_segment(self, sid: str, drops: set[str]) -> None:
        """Atomically replace segment ``sid`` without the ``drops`` rows.

        Survivor bytes are carried over verbatim (offsets recomputed),
        so the rewrite can never change what a lookup serves.  The
        replacement is committed under a fresh id before the old pair is
        unlinked — index first, so no reader ever resolves an index row
        to missing data; a reader already holding the old index keeps
        reading the unlinked inode through its open handle.
        """
        from .segments import segment_index_path

        segment = (self._segments or {}).get(sid)
        if segment is None:
            return
        keep = sorted(h for h in segment.entries if h not in drops)

        def _survivor_records() -> Iterator[tuple[SegmentEntry, bytes]]:
            for hash_ in keep:
                row = segment.entries[hash_]
                try:
                    raw = segment.read(row)
                except OSError:
                    continue  # racing rewrite already retired it
                if len(raw) == row.length:
                    yield row, raw

        if keep:
            write_segment(self._segments_dir(), _survivor_records())
        for path in (segment_index_path(self._segments_dir(), sid),
                     segment.data_path):
            try:
                path.unlink()
            except OSError:
                pass

    def _sweep_leftovers(self, now: float) -> None:
        """Unlink stale temp files and orphan segment data files."""
        def _stale(path: pathlib.Path) -> bool:
            try:
                return clamped_age(now, path.stat().st_mtime) \
                    > _TMP_SWEEP_GRACE
            except OSError:
                return False

        objects = self._objects()
        try:
            names = list(os.listdir(objects))
        except FileNotFoundError:
            names = []
        for name in names:
            path = objects / name
            if ".tmp-" in name:
                if _stale(path):
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            if not path.is_dir():
                continue
            for entry in os.listdir(path):
                if ".tmp-" not in entry:
                    continue
                if _stale(path / entry):
                    try:
                        (path / entry).unlink()
                    except OSError:
                        pass
        segments_dir = self._segments_dir()
        try:
            names = list(os.listdir(segments_dir))
        except FileNotFoundError:
            return
        present = set(names)
        for name in names:
            path = segments_dir / name
            stale_tmp = ".tmp-" in name
            # A .seg whose .idx never appeared is a crashed compaction's
            # data file: committed segments always have their index.
            orphan = name.endswith(".seg") \
                and f"{name[:-4]}.idx" not in present
            if (stale_tmp or orphan) and _stale(path):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- export --------------------------------------------------------
    def export(self, spec, out_path: str | pathlib.Path) -> ExportReport:
        """Materialise a spec's results file straight from the store.

        Writes the framed, grid-ordered, contiguously-sequenced results
        file (plus the ``.manifest`` sidecar holding the spec
        fingerprint) that a single-machine ``sink="framed"`` run of the
        spec would have produced — byte-identical, with **zero**
        simulations.  Cells resolve through the same segment-first
        lookup path as a warm run, so an export is byte-identical before
        and after compaction.  Every cell must be resolvable from the
        store; missing cells are reported by grid coordinates, never
        silently skipped.
        """
        from .. import io as repro_io

        resolved = _resolve_spec(self, spec)
        out_path = pathlib.Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        frames = 0
        tmp = out_path.with_name(out_path.name + f".tmp-{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            for plan, results in resolved:
                for replica, result in enumerate(results):
                    fh.write(repro_io.dump_frame(
                        result, cell=plan.index, replica=replica, seq=frames,
                    ) + "\n")
                    frames += 1
        os.replace(tmp, out_path)
        _atomic_write(
            out_path.with_name(out_path.name + ".manifest"),
            json.dumps(spec.fingerprint(), sort_keys=True) + "\n",
        )
        return ExportReport(
            cells=len(resolved), frames=frames,
            bytes_written=out_path.stat().st_size,
        )


def cells_from_store(store: CampaignStore, spec) -> list:
    """A spec's aggregated campaign cells, resolved with zero simulation.

    The query layer behind ``report --from-spec --store``: every grid
    cell is loaded through the spec's replica controller and aggregated
    exactly as a live run would have (:class:`~repro.sim.campaign.
    CampaignCell` with a full Monte-Carlo summary).  Raises when any
    cell is absent — a report must never silently cover a partial grid.
    """
    from ..sim.executor import _make_cell

    return [
        _make_cell(plan, results)
        for plan, results in _resolve_spec(store, spec)
    ]


def _resolve_spec(store: CampaignStore, spec) -> list[tuple]:
    """Every grid cell of ``spec`` resolved from the store, in plan
    order, as ``(plan, replica results)`` pairs.

    The shared engine behind :meth:`CampaignStore.export` and
    :func:`cells_from_store`: all-or-nothing — missing cells raise with
    grid coordinates rather than returning a partial sweep.
    """
    from ..sim.executor import plan_cells

    config = spec.config()
    controller = spec.controller()
    plans = plan_cells(config)
    # Bulk-stage the footprint's segment-resident entries with
    # sequential per-segment reads; the per-cell loads below then hit
    # the cache instead of issuing one pread per replica.  (The
    # footprint over-approximates under adaptive control — the
    # controller may stop before max_replicas — which only means a few
    # absent hashes are skipped.)
    store.preload(
        replica_key(config, plan, replica)
        for plan in plans
        for replica in range(controller.max_replicas)
    )
    resolved: list[tuple] = []
    missing: list = []
    for plan in plans:
        results = store.load_cell(config, plan, controller)
        if results is None:
            missing.append(plan)
        else:
            resolved.append((plan, results))
    if missing:
        head = ", ".join(
            f"({p.protocol}, M={p.M:g}, phi={p.phi:g})"
            for p in missing[:3]
        )
        raise ParameterError(
            f"{store.root}: store is missing {len(missing)} of "
            f"{len(plans)} cells for this spec (first missing: {head}"
            f"{', ...' if len(missing) > 3 else ''}); run the campaign "
            "with --store to populate them"
        )
    return resolved
