"""The content-addressed results warehouse behind ``repro.store``.

See the package docstring (:mod:`repro.store`) for the design; this
module holds the mechanism:

* :func:`cell_key` — the identity of one stored grid cell,
* :class:`CampaignStore` — publish/lookup/query/compact/gc/export over
  a store directory,
* :func:`cells_from_store` — a spec's aggregated cells with zero
  re-simulation (the engine behind ``report --from-spec``).

One entry per grid cell holds the cell's ordered replica prefix
``[0, n)``: a header line (format, version, key, replica count, payload
digest) followed by one canonical :func:`repro.io.dump_result` line per
replica.  Storage layout (the two coexist; a lookup serves the longer
copy):

* ``segments/<id>.seg`` + ``.idx`` — compacted entries
  (:mod:`repro.store.segments`): one index probe + one ``pread`` per
  lookup, index-only queries, written by :meth:`CampaignStore.compact`;
* ``objects/<2-hex>/<hash>.json`` — loose entries, the atomic-rename
  publish path (2-hex fan-out so no single directory grows unbounded).

Retired formats are never served: a ``<hash>.json`` directly under
``objects/`` (the flat layout) and the version-1 one-entry-per-replica
entries, loose or in version-1 segments.  Lookups miss and recompute,
:meth:`CampaignStore.verify` reports each one as an error by path.
``gc`` evicts every version-1 segment whole and ages retired loose
files out like any entry.

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

import functools
import hashlib
import json
import os
import pathlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import ParameterError
from ..fsclock import clamped_age, filesystem_now
from ..obs import Counter, Gauge, Histogram, default_registry
from ..obs.metrics import DEFAULT_TIME_BUCKETS
from ..obs.trace import current_tracer
from ..sim.backends import replica_seed, trace_seed
from ..sim.campaign import CampaignConfig
from ..sim.distributed import _atomic_write
from ..sim.results import CellBlock, DesResult
from ..sim.sinks import write_framed
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
    "ENTRY_VERSION",
    "STORE_MODES",
    "cell_key",
    "key_hash",
    "CampaignStore",
    "StoreEntry",
    "StoreStat",
    "GcReport",
    "ExportReport",
    "VerifyReport",
    "CompactReport",
    "StoredCell",
    "cells_from_store",
]

STORE_FORMAT = "repro-store"
_ENTRY_FORMAT = "repro-store-entry"
#: Version of the store manifest (``store.json``).  It names the
#: directory layout, which entry versions do not change, so every store
#: opens; readers refuse other numbers by name, like every envelope in
#: :mod:`repro.io`.
STORE_VERSION = 1
#: Written entry version: one entry per grid cell.  Version 1 (one
#: entry per replica) is retired — never served, reported by ``verify``.
ENTRY_VERSION = 2
_RETIRED = ("retired per-replica entry (store-entry version 1) is never "
            "served; delete it or evict it with `repro-checkpoint store gc`")

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
# Keys and entry bytes
# ----------------------------------------------------------------------
def cell_key(config: CampaignConfig, plan, *, engine: str = "des") -> dict:
    """The store identity of one grid cell's stored replica prefix.

    Deliberately *finer* than a campaign fingerprint: it names exactly
    the inputs that determine the cell's output bytes — protocol,
    requested φ, workload, horizon, the fully-resolved platform
    parameters (M substituted), the failure-law dict, and replica 0's
    *derived* seeds (its DES seed, and its shared-trace seed or
    ``None``).  Replica r's seeds follow by the fixed strides of
    :mod:`repro.sim.backends`, so stored prefixes nest: a 32-replica
    entry holds the 8-replica one.  The campaign seed and grid
    coordinates appear only through the derived seeds, so campaigns
    whose grids overlap share cached cells, even when their M axes list
    a value at different positions (no trace sharing).  Campaigns whose
    seeds differ by a multiple of a stride share no entry although
    their replicas overlap: the accepted price of one entry per cell.

    ``engine`` names the simulation engine that produced (or must
    produce) the bytes.  The engines are statistically equivalent but
    not byte-identical, so they must never serve each other's results:
    any engine other than ``"des"`` is spliced into the key.  The caller
    passes the policy's backend: shared-trace cells of a vectorized
    campaign key as ``"vectorized"`` (common random-number streams, not
    DES traces), so a DES run of the same spec never serves them, nor
    they it.
    """
    if engine not in _ENGINES:
        raise ParameterError(
            f"unknown engine {engine!r}; known: {list(_ENGINES)}"
        )
    params = config.base_params.with_updates(M=float(plan.M))
    dist = config.distribution
    key = {
        "format": _ENTRY_FORMAT,
        "version": ENTRY_VERSION,
        "protocol": plan.protocol,
        "phi": float(plan.phi),
        "work_target": float(config.work_target),
        "max_time": None if config.max_time is None else float(config.max_time),
        "params": params.to_dict(),
        "distribution": None if dist is None else dist.to_dict(),
        "seed": replica_seed(config, 0),
        "trace_seed": trace_seed(config, plan.m_index, 0)
        if config.share_traces else None,
    }
    if engine != "des":
        key["engine"] = engine
    return key


def key_hash(key: dict) -> str:
    """Content address of a key: SHA-256 of its canonical JSON."""
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(body: str) -> str:
    """SHA-256 of an entry's replica lines (the tamper witness)."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _entry_text(key: dict, records) -> str:
    """An entry's bytes: a header line, then each replica's record line
    (:func:`repro.io.dump_result`), the text the digest covers."""
    body = "".join(line + "\n" for line in records)
    header = {
        "format": _ENTRY_FORMAT,
        "version": ENTRY_VERSION,
        "key": key,
        "replicas": len(records),
        # The address hashes the *key*, so without this a well-formed
        # but altered payload would be undetectable.
        "payload_sha256": _digest(body),
    }
    return json.dumps(header, sort_keys=True) + "\n" + body


def _header_replicas(data: bytes) -> int:
    """The replica count a live entry's header line claims, else -1."""
    try:
        header = json.loads(data.partition(b"\n")[0])
        if header.get("version") != ENTRY_VERSION:
            return -1
        return int(header["replicas"])
    except (ValueError, TypeError, KeyError, AttributeError):
        return -1


def _check_entry(label, data: bytes) -> tuple[dict, str]:
    """An entry's header and replica-line body, structurally checked:
    the header parses and speaks :data:`ENTRY_VERSION`, and the body
    matches the recorded line count and digest.  Raises naming
    ``label``."""
    try:
        head, _, body = data.decode("utf-8").partition("\n")
        header = json.loads(head)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(
            f"{label}: corrupt store entry (invalid JSON: {exc}); delete "
            "it (or run `repro-checkpoint store gc`) and re-run to "
            "repopulate it"
        ) from exc
    if not isinstance(header, dict) \
            or header.get("format") != _ENTRY_FORMAT:
        raise ParameterError(
            f"{label}: not a {_ENTRY_FORMAT} record; the store "
            "directory holds foreign files"
        )
    version = header.get("version")
    if version != ENTRY_VERSION:
        raise ParameterError(f"{label}: {_RETIRED}" if version == 1 else (
            f"{label}: unsupported store-entry version {version!r} (this "
            f"library speaks version {ENTRY_VERSION})"))
    if _digest(body) != header.get("payload_sha256") \
            or body.count("\n") != header.get("replicas"):
        raise ParameterError(
            f"{label}: entry payload does not match its recorded "
            "digest; the entry is corrupt — delete it and re-run to "
            "repopulate"
        )
    return header, body


def _verify_entry(label, data: bytes, expected_key: dict | None):
    """Every check a lookup makes, once per entry: :func:`_check_entry`,
    the full stored key against ``expected_key`` (a collision or renamed
    file is a hard error, not a wrong answer), and each replica line
    decoding into a raw DES run that re-serialises to exactly that
    line.  Returns ``(header, results, body)``."""
    from .. import io as repro_io

    header, body = _check_entry(label, data)
    if expected_key is not None and header.get("key") != expected_key:
        raise ParameterError(
            f"{label}: stored key does not match the requested one "
            "(hash collision or tampered entry); refusing to serve "
            "a different simulation's result"
        )
    results = []
    for line in body.split("\n")[:-1]:
        result = repro_io.load_result(line)
        if not isinstance(result, DesResult):
            raise ParameterError(
                f"{label}: store entries hold raw DES runs, found a "
                f"{type(result).__name__}"
            )
        if repro_io.dump_result(result) != line:
            raise ParameterError(
                f"{label}: entry payload does not survive a "
                "serialisation round-trip; the entry is corrupt — "
                "delete it and re-run to repopulate"
            )
        results.append(result)
    return header, tuple(results), body


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


def _footprint(spec) -> list[tuple]:
    """``(plan, cell key)`` of every grid cell of ``spec``, in plan
    order: the entries a spec reads, pins and covers."""
    from ..sim.executor import plan_cells

    config = spec.config()
    return [(plan, cell_key(config, plan, engine=spec.policy.backend))
            for plan in plan_cells(config)]


@dataclass(frozen=True)
class StoredCell:
    """A store hit: a cell's replica prefix, and the verified entry it
    was read from.

    :attr:`records` are the prefix's stored lines (one
    :func:`repro.io.dump_result` per replica) — the exact text a warm
    campaign writes, so nobody re-encodes it.  They are sliced on
    demand: a caller that only aggregates (a report) never pays for
    them.  :meth:`cell` is the prefix's aggregated cell, kept on the
    entry's memo (:attr:`CachedEntry.cells`).

    A ``StoredCell`` is only ever built from an entry that passed its
    check in the same lookup — full verification on a disk read,
    :meth:`CachedEntry.verify` at the store's ``cached_verification``
    level on a cache hit — so the memo it reads is always that of an
    intact entry.
    """

    results: list
    entry: CachedEntry = field(repr=False)

    @property
    def records(self) -> tuple[str, ...]:
        count = len(self.results)
        return tuple(self.entry.payload_text.split("\n", count)[:count])

    @property
    def block(self) -> CellBlock:
        """The prefix as the :class:`~repro.sim.results.CellBlock` a
        session emits, carrying its verified lines."""
        return CellBlock.from_rows(self.results, self.records)

    def cell(self, plan):
        """``make_cell(plan, self.results)``, built once per entry and
        prefix length.

        Concurrent callers may both build it; ``setdefault`` keeps the
        first, so every caller gets the same cell object.
        """
        memo = self.entry.cells
        count = len(self.results)
        cell = memo.get(count)
        if cell is None:
            from ..sim.events import make_cell

            cell = memo.setdefault(count, make_cell(plan, self.results))
        return cell


def _replay(entry: CachedEntry | None, controller) -> StoredCell | None:
    """The prefix of a verified entry at which ``controller``'s cursor
    stops, or ``None`` when it never stops inside it."""
    if entry is None:
        return None
    stored = entry.results
    cursor = controller.cursor()
    for count, result in enumerate(stored[:controller.max_replicas], 1):
        if cursor.push(result.waste):
            return StoredCell(list(stored[:count]), entry)
    return None


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntry:
    """One stored cell entry (a replica prefix), as the query layer
    sees it."""

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
    #: Replicas the entry holds (one for a retired per-replica entry).
    replicas: int = 1
    #: Where the bytes live: ``"loose"`` (one file), ``"segment"``, or
    #: ``"retired"`` (a version-1 per-replica entry, never served).
    origin: str = "loose"


@dataclass(frozen=True)
class StoreStat:
    """Aggregate accounting of a store directory."""

    entries: int
    total_bytes: int
    protocols: dict[str, int]
    oldest_mtime: float | None
    newest_mtime: float | None
    #: Layout breakdown: loose files vs segment-resident entries, plus
    #: retired per-replica entries wherever they sit.
    loose_entries: int = 0
    segment_entries: int = 0
    segments: int = 0
    retired_entries: int = 0

    def describe(self) -> str:
        per_protocol = ", ".join(
            f"{k}={v}" for k, v in sorted(self.protocols.items())
        ) or "empty"
        layout = f"{self.loose_entries} loose"
        if self.segments:
            layout += (f" + {self.segment_entries} in "
                       f"{self.segments} segment(s)")
        if self.retired_entries:
            layout += f", {self.retired_entries} retired"
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

    #: Loose entry files found in the 2-hex fan-out (segment duplicates
    #: included).
    loose_before: int
    #: Entries packed into the new segment.
    packed_entries: int
    packed_bytes: int
    #: Loose files removed because a segment already held their hash
    #: with at least as many replicas (leftovers of a crashed compaction
    #: or a publish/compact race).
    deduplicated: int
    #: Loose files left in place because they failed validation
    #: (retired per-replica entries included).
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


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CampaignStore:
    """A content-addressed, concurrency-safe warehouse of cell results.

    One entry per grid cell, filed under the SHA-256 of its
    :func:`cell_key` and holding the cell's ordered replica prefix
    ``[0, n)``.  Publishing is one write-then-rename per cell (the same
    atomic-publish pattern as the distributed queue's done markers), so
    readers never observe a torn entry; a longer prefix replaces a
    shorter one and a shorter one never replaces a longer one (if a
    shorter publish wins a race, the only cost is a recompute).
    Lookups re-verify the entry against its stored bytes, once per cell
    — the full key must match (hash collisions and tampering are
    refused, never silently served), the replica lines must match their
    digest, and each decoded replica must re-serialise to exactly its
    stored line, which is the byte string a warm campaign will emit.

    Entries live loose (one file each, the write path) or packed into
    segments (:meth:`compact`, the read-at-scale path); lookups serve
    the longer of the two copies, then re-scan for segments a
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
        #: Concurrent-read accounting: per-instance registry
        #: instruments, summed over live instances by the process-wide
        #: registry for ``GET /metrics``.  ``_read_lock`` serialises the
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
            help="Cell entries admitted to the hot-cell cache by preload."))
        #: Lazily-loaded committed segments (id → Segment) and the
        #: merged hash → segment-id probe map (see _refresh_segments).
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

    # -- segment state -------------------------------------------------
    def _refresh_segments(self) -> None:
        """(Re-)scan the segments directory for committed segments.

        The probe map sends each hash to its longest live copy (the
        lowest id among equals, so every process resolves duplicates to
        the same copy); retired segments load but are never probed.
        """
        segments = {s.id: s for s in load_segments(self._segments_dir())}
        merged: dict[str, str] = {}
        for sid in sorted(segments):
            if segments[sid].retired:
                continue
            for hash_, row in segments[sid].entries.items():
                best = merged.get(hash_)
                if best is None or row.replicas \
                        > segments[best].entries[hash_].replicas:
                    merged[hash_] = sid
        self._segments = segments
        self._segment_map = merged

    def _segment_row(self, hash_: str) -> tuple[Segment, SegmentEntry] | None:
        if self._segments is None:
            self._refresh_segments()
        sid = self._segment_map.get(hash_)
        if sid is None:
            return None
        return self._segments[sid], self._segments[sid].entries[hash_]

    def _read_longest(self, hash_: str):
        """``(bytes, label, origin)`` of the longer stored copy of an
        entry, or ``None``.

        Uses the cached index view; a segment rewritten underneath us
        (gc) reads as a miss here and the caller's re-scan finds the
        successor.
        """
        path = self._entry_path(hash_)
        try:
            loose = path.read_bytes()
        except FileNotFoundError:
            loose = None
        found = self._segment_row(hash_)
        if found is not None:
            segment, row = found
            if loose is None or _header_replicas(loose) <= row.replicas:
                try:
                    data = segment.read(row)
                except OSError:
                    data = b""  # concurrently rewritten
                if len(data) == row.length:
                    return data, f"{segment.data_path}@{row.offset}", \
                        "segment"
        return None if loose is None else (loose, str(path), "loose")

    def _stored_replicas(self, hash_: str) -> int:
        """Length of the longest stored copy of an entry (0 when absent),
        from its index row and loose header line — no payload is read."""
        found = self._segment_row(hash_)
        stored = 0 if found is None else found[1].replicas
        try:
            with self._entry_path(hash_).open("rb") as fh:
                stored = max(stored, _header_replicas(fh.readline()))
        except OSError:
            pass
        return stored

    def _touch(self, hash_: str) -> None:
        """Refresh the loose LRU clock (no-op for segment entries)."""
        try:
            os.utime(self._entry_path(hash_))
        except OSError:
            pass  # segment-resident or concurrently evicted

    # -- publish / lookup ----------------------------------------------
    def publish(self, key: dict, records) -> bool:
        """Store one cell's replica prefix, given as its record lines
        (one :func:`repro.io.dump_result` per replica, in seed order);
        False when a copy at least as long is already present.

        Always writes a *loose* entry — one atomic write-temp-then-
        rename, the property that makes any number of concurrent
        publishers race-free; compaction folds loose entries into
        segments later.  A crashed publisher leaves only a temp file
        that the next :meth:`gc` sweeps up.
        """
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("store.publish", "store"):
                return self._publish(key, records)
        return self._publish(key, records)

    def _publish(self, key: dict, records) -> bool:
        hash_ = key_hash(key)
        if self._stored_replicas(hash_) >= len(records):
            self._m_publish["duplicate"].inc()
            return False
        path = self._entry_path(hash_)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, _entry_text(key, records))
        self._m_publish["stored"].inc()
        return True

    def lookup(self, key: dict) -> tuple | None:
        """The stored replica prefix of ``key``, or ``None`` on a miss.

        A hit is integrity-checked before it is served (see
        :func:`_verify_entry`); corruption raises a
        :class:`~repro.errors.ParameterError` naming the entry — a store
        must never silently substitute wrong results for a simulation.

        Read path: the in-process hot-cell cache (digest-level re-check)
        first, then the longer of the segment and loose copies, then one
        segment re-scan — the re-scan is what makes a concurrent
        compaction invisible: an entry whose loose file was just packed
        away is found in the segment the compaction committed first.

        Safe to call from many threads at once against one instance
        (the campaign service does); the
        ``repro_store_readers_peak_concurrent`` gauge reports how
        concurrent the reads actually were.
        """
        entry = self._read(key)
        return None if entry is None else entry.results

    def _read(self, key: dict) -> CachedEntry | None:
        """:meth:`lookup`, returning the whole verified entry (its
        replicas and their stored lines)."""
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
                entry = self._lookup(key)
            else:
                with tracer.span("store.lookup", "store") as span:
                    entry = self._lookup(key)
                    span.args["result"] = \
                        "hit" if entry is not None else "miss"
            outcome = "hit" if entry is not None else "miss"
            self._m_results[outcome].inc()
            self._m_lookup_seconds[outcome].observe(
                time.perf_counter() - started)
            return entry
        finally:
            with self._read_lock:
                self._m_active.dec()

    def _lookup(self, key: dict) -> CachedEntry | None:
        token = None
        if self._cache is not None:
            # Probed by cheap surrogate, resolved by full-key equality:
            # the content address (canonical JSON + SHA-256, ~8us) is
            # only computed when the disk must be touched anyway.
            token = cache_key(key)
            hit = self._cache.get(self._cache_root, token)
            if hit is not None and hit.key == key:
                if hit.verify(self._cached_verification):
                    if hit.origin == "loose":
                        self._touch(hit.hash)  # LRU clock for gc
                    return hit
                # In-memory corruption: drop it and re-read from disk.
                self._cache.invalidate(self._cache_root, token)

        hash_ = key_hash(key)
        found = self._read_longest(hash_)
        if found is None:
            # A concurrent compaction may have just moved the loose
            # file into a segment we have not scanned yet.
            self._refresh_segments()
            found = self._read_longest(hash_)
            if found is None:
                return None
        entry = self._admit(key, token, hash_, *found)
        if found[2] == "loose":
            self._touch(hash_)  # LRU clock for gc
        return entry

    def _admit(self, key, token, hash_, data, label, origin) -> CachedEntry:
        """Fully verify an entry read from disk, stage it in the hot-cell
        cache, and return it."""
        started = time.perf_counter()
        header, results, body = _verify_entry(label, data, key)
        self._m_verify_seconds.observe(time.perf_counter() - started)
        entry = CachedEntry(
            key=key, results=results, payload_text=body,
            payload_sha256=header["payload_sha256"],
            hash=hash_, origin=origin,
        )
        if self._cache is not None:
            self._cache.put(self._cache_root, token, entry)
        return entry

    def preload(self, keys) -> int:
        """Prime the hot-cell cache for ``keys`` with bulk segment reads.

        The sequential-read fast path behind :meth:`load_cells`, the
        one store consult of every caller (``store export``, ``report
        --from-spec``, the executor before dispatch, a queue worker per
        claim): instead of one index probe plus one
        ``pread`` per cell entry, the footprint's segment-resident
        entries are grouped per segment, coalesced into contiguous
        spans, and streamed with a few sequential reads
        (:meth:`~repro.store.segments.Segment.read_many`) — a spec
        whose footprint resolves to few segments reads each of them
        once, front to back.  Every admitted entry passes the same full
        verification a cold :meth:`lookup` performs; the per-cell
        lookup that follows is then a memory hit.

        Purely an I/O-pattern optimisation, never a semantic one: cells
        with a loose copy (which may be the longer one), absent keys and
        torn bulk reads (a concurrent gc rewrite) are simply left for
        the per-cell lookup path, and with the cache disabled there is
        nowhere to stage decoded entries, so this is a no-op.  Returns
        the number of cell entries admitted.
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
        wanted: dict[str, list[tuple[dict, tuple, str]]] = {}
        for key in keys:
            token = cache_key(key)
            if self._cache.peek(self._cache_root, token) is not None:
                continue
            hash_ = key_hash(key)
            found = self._segment_row(hash_)
            if found is not None and not self._entry_path(hash_).exists():
                wanted.setdefault(found[0].id, []).append(
                    (key, token, hash_))
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
                label = f"{segment.data_path}@{segment.entries[hash_].offset}"
                self._admit(key, token, hash_, raw, label, "segment")
                loaded += 1
        self._m_preload.inc(loaded)
        return loaded

    # -- cell-level API (what the executor drives) ---------------------
    def load_cell(
        self, config: CampaignConfig, plan, controller, *,
        engine: str = "des", key: dict | None = None,
    ):
        """A complete cell from the store as a :class:`StoredCell`, or
        ``None``.

        One lookup per cell: the stored prefix is pushed through the
        ``controller``'s incremental cursor — the *same* cursor live
        execution and resume scans drive — so a hit returns exactly the
        replica prefix a fresh run would have produced, whatever
        controller stored the entry, together with the same prefix of
        the entry's verified record lines.  A store populated by a
        fixed-count campaign therefore serves an adaptive campaign's
        shorter prefix for free, while a stored prefix shorter than this
        controller needs is a miss (the cell re-runs in full).

        ``key`` is the cell's :func:`cell_key`, for a caller that
        already computed it (:meth:`resolve`).
        """
        if key is None:
            key = cell_key(config, plan, engine=engine)
        held = self._held(key)
        entry = self._read(key)
        hit = _replay(entry, controller)
        if hit is None and entry is not None and held is not None \
                and len(entry.results) < controller.max_replicas:
            # The short prefix came from the cache: a longer one may
            # have landed since (another process, or a fill in this one).
            self._cache.invalidate(self._cache_root, cache_key(key))
            hit = _replay(self._read(key), controller)
        return hit

    def _held(self, key: dict) -> CachedEntry | None:
        """The hot-cell cache's entry for ``key``, or ``None`` — a peek:
        not verified, not counted, no LRU refresh."""
        if self._cache is None:
            return None
        entry = self._cache.peek(self._cache_root, cache_key(key))
        return entry if entry is not None and entry.key == key else None

    def load_cells(
        self, config: CampaignConfig, plans, controller, *,
        engine: str = "des",
    ) -> dict[int, StoredCell]:
        """The cells of ``plans`` the store can serve, by plan index.

        One :meth:`preload` of every cell entry (segment-resident ones
        stream in with a few sequential reads per segment), then one
        :meth:`load_cell` per plan, which the preload made a cache hit.
        Misses are simply absent from the result.
        """
        footprint = [(plan, cell_key(config, plan, engine=engine))
                     for plan in plans]
        hits = self._load_footprint(config, footprint, controller, engine)
        return {plan.index: hit for (plan, _), hit in zip(footprint, hits)
                if hit is not None}

    def _load_footprint(self, config, footprint, controller,
                        engine) -> list[StoredCell | None]:
        """:meth:`load_cells` over ``(plan, cell key)`` pairs whose keys
        are already computed: one preload, then one :meth:`load_cell`
        per pair (through the instance, so a wrapped ``load_cell`` sees
        every cell), aligned with ``footprint``."""
        self.preload(key for _, key in footprint)
        return [self.load_cell(config, plan, controller, engine=engine,
                               key=key)
                for plan, key in footprint]

    def resolve(self, spec) -> tuple[int, int, list[tuple]]:
        """``(present, total, [(plan, StoredCell | None)])`` of a spec:
        its coverage and every grid cell the store serves, in one pass.

        The warm report path (``GET /reports``): the footprint is built
        once and read as :meth:`load_cells` reads it, each cell through
        the spec's controller — a ``None`` is a cell that does not
        replay from the store.  ``present``/``total`` count replicas as
        :meth:`coverage` does: each cell contributes its verified
        entry's length, capped at the grid's replica budget, and only a
        cell the hot-cell cache does not hold in full probes the index
        rows and loose headers (after one segment re-scan for the whole
        pass).  A cell that probe finds absent is not looked up at all,
        so a cold query costs one re-scan, not one per missing cell.
        The one difference from :meth:`coverage`: an entry still held
        by the cache after ``gc`` evicted its file counts its cached
        length, because that is what this store will serve.
        """
        budget = spec.grid.replicas
        footprint = _footprint(spec)
        rescanned = False

        def on_disk(key: dict) -> int:
            nonlocal rescanned
            if not rescanned:
                self._refresh_segments()
                rescanned = True
            return min(self._stored_replicas(key_hash(key)), budget)

        probed: dict[int, int] = {}
        absent = set()
        for plan, key in footprint:
            held = self._held(key)
            if held is None or len(held.results) < budget:
                probed[plan.index] = on_disk(key)
                if held is None and not probed[plan.index]:
                    absent.add(plan.index)
        live = [(plan, key) for plan, key in footprint
                if plan.index not in absent]
        hits = dict(zip(
            (plan.index for plan, _ in live),
            self._load_footprint(spec.config(), live, spec.controller(),
                                 spec.policy.backend)))
        present = 0
        cells = []
        for plan, key in footprint:
            hit = hits.get(plan.index)
            stored = 0 if hit is None else min(len(hit.entry.results),
                                                budget)
            if stored < budget:
                disk = probed.get(plan.index)
                stored = max(stored, on_disk(key) if disk is None else disk)
            present += stored
            cells.append((plan, hit))
        return present, budget * len(footprint), cells

    def publish_cell(
        self, config: CampaignConfig, plan, records, *, engine: str = "des"
    ) -> int:
        """Publish one finished cell's record lines as one entry; 1 if it
        was stored, 0 if a copy at least as long already was."""
        return int(self.publish(cell_key(config, plan, engine=engine),
                                records))

    # -- index / query layer -------------------------------------------
    def _object_files(self) -> Iterator[tuple[str, pathlib.Path]]:
        """Every loose entry file in the 2-hex fan-out, in hash order."""
        objects = self._objects()
        try:
            names = sorted(os.listdir(objects))
        except FileNotFoundError:
            return
        for name in names:
            shard_dir = objects / name
            try:
                entries = sorted(os.listdir(shard_dir))
            except (FileNotFoundError, NotADirectoryError):
                continue
            for entry in entries:
                if _HASH_RE.match(entry):
                    yield entry[:-5], shard_dir / entry

    def _listing(self) -> Iterator[tuple]:
        """Every entry once, as the copy a lookup serves: ``(entry,
        label, read)``, ``read()`` returning the stored bytes.

        Loose files come first, and only their header line is read: a
        loose copy no longer than its segment copy is skipped as a
        duplicate, a longer one hides the segment row.  Index rows
        follow, straight from memory.  An unreadable loose file yields
        its :class:`~repro.errors.ParameterError` in place of the entry
        (and ``read=None``).
        """
        self._refresh_segments()
        shadowed: set[str] = set()
        for hash_, path in self._object_files():
            try:
                stat = path.stat()
                with path.open("rb") as fh:
                    header = json.loads(fh.readline())
                live = header.get("version") == ENTRY_VERSION
                replicas = int(header["replicas"]) if live else 1
                fields = _key_fields(header["key"])
            except (OSError, ValueError, TypeError, KeyError,
                    AttributeError) as exc:
                error = ParameterError(
                    f"{path}: unreadable store entry ({exc})")
                yield error, str(path), None
                continue
            found = self._segment_row(hash_)
            if live and found is not None:
                if replicas <= found[1].replicas:
                    continue  # a duplicate: listed as its segment copy
                shadowed.add(hash_)
            yield StoreEntry(
                hash=hash_, size=stat.st_size, mtime=stat.st_mtime,
                replicas=replicas, origin="loose" if live else "retired",
                **fields,
            ), str(path), path.read_bytes
        for sid in sorted(self._segments):
            segment = self._segments[sid]
            for hash_ in sorted(segment.entries):
                if not segment.retired and (
                        self._segment_map[hash_] != sid
                        or hash_ in shadowed):
                    continue  # another copy is the one served
                row = segment.entries[hash_]
                yield StoreEntry(
                    hash=hash_, protocol=row.protocol, M=row.M,
                    phi=row.phi, n=row.n, seed=row.seed,
                    trace_seed=row.trace_seed,
                    work_target=row.work_target, size=row.length,
                    mtime=row.mtime, replicas=row.replicas,
                    origin="retired" if segment.retired else "segment",
                ), f"{segment.data_path}@{row.offset}", \
                    functools.partial(segment.read, row)

    def entries(self) -> Iterator[StoreEntry]:
        """Every stored entry, as queryable metadata, streamed.

        Segment-resident entries come straight from the in-memory index
        rows — **no data file is read at all** — which is what keeps
        ``ls``/``stat``/``query`` latency flat as the store grows.
        Loose entries are self-describing (the key travels in the
        file's header line, the only line read), so the loose index can
        never drift from the contents and needs no cross-process
        coordination.  An entry with copies in both layouts is reported
        once, as the copy a lookup serves (the longer one).  Retired
        per-replica entries are listed with ``origin="retired"``.
        """
        for entry, _, _ in self._listing():
            if isinstance(entry, ParameterError):
                raise entry
            yield entry

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
        return self._fold(self.entries())

    def _fold(self, entries: Iterable[StoreEntry]) -> StoreStat:
        count = total = 0
        origins = {"loose": 0, "segment": 0, "retired": 0}
        protocols: dict[str, int] = {}
        oldest: float | None = None
        newest: float | None = None
        for entry in entries:
            count += 1
            total += entry.size
            origins[entry.origin] += 1
            protocols[entry.protocol] = protocols.get(entry.protocol, 0) + 1
            oldest = entry.mtime if oldest is None else min(oldest, entry.mtime)
            newest = entry.mtime if newest is None else max(newest, entry.mtime)
        return StoreStat(
            entries=count, total_bytes=total, protocols=protocols,
            oldest_mtime=oldest, newest_mtime=newest,
            loose_entries=origins["loose"],
            segment_entries=origins["segment"],
            segments=len(self._segments or {}),
            retired_entries=origins["retired"],
        )

    def verify(self) -> VerifyReport:
        """Re-verify every entry against its stored bytes, streamed.

        Checks each entry as the copy a lookup serves: its address (file
        name, or index row hash) matches the SHA-256 of the stored key
        (content addressing), every check a lookup makes passes
        (:func:`_verify_entry`), and an index row's queryable fields and
        replica count agree with the stored entry.  Retired per-replica
        entries and the flat layout are reported by path: they are never
        served.  Collects problems instead of stopping at the first, so
        one corrupt entry does not hide the rest; nothing is
        materialised beyond the running aggregates.
        """
        errors: list[str] = []
        stat = self._fold(self._verified(errors))
        # A root-level <hash>.json is the retired flat layout: lookups
        # never serve it, so a clean report must not hide it.
        objects = self._objects()
        try:
            names = sorted(os.listdir(objects))
        except FileNotFoundError:
            names = []
        for name in names:
            if _HASH_RE.match(name):
                errors.append(
                    f"{objects / name}: entry in the retired flat layout "
                    f"is never served; move it into {objects / name[:2]}/ "
                    "or delete it"
                )
        return VerifyReport(checked=stat.entries + len(errors),
                            errors=tuple(errors), stat=stat)

    def _verified(self, errors: list[str]) -> Iterator[StoreEntry]:
        """The entries that verify clean; the others' problems go to
        ``errors``."""
        for entry, label, read in self._listing():
            try:
                if isinstance(entry, ParameterError):
                    raise entry
                if entry.origin == "retired":
                    raise ParameterError(f"{label}: {_RETIRED}")
                raw = read()
                if entry.origin == "segment" and len(raw) != entry.size:
                    raise ParameterError(
                        f"{label}: segment data is shorter than the index "
                        "row"
                    )
                header, _, _ = _verify_entry(label, raw, None)
                if key_hash(header["key"]) != entry.hash:
                    raise ParameterError(
                        f"{label}: address does not match the stored "
                        "key's hash"
                    )
                fields = _key_fields(header["key"])
                if header["replicas"] != entry.replicas or fields != {
                        name: getattr(entry, name) for name in fields}:
                    raise ParameterError(
                        f"{label}: index row disagrees with the stored key"
                    )
            except OSError as exc:
                errors.append(f"{label}: {exc}")
            except ParameterError as exc:
                errors.append(str(exc))
            else:
                yield entry

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
          worst re-creates a loose copy, which lookups weigh against
          the segment copy by length and a later pass packs or removes;
        * **gc** — eviction unlinks loose files or rewrites other
          segments; a loose file that vanishes mid-pack is simply
          dropped from the batch.  (A file gc unlinks *after* this pass
          read it is resurrected inside the segment — rerun ``gc`` after
          ``compact`` to re-apply a byte budget exactly.)

        Copies in both layouts keep the longest: a loose entry no longer
        than its segment copy is removed as a duplicate, a longer one is
        packed and the shorter row rewritten out of its old segment.
        Each packed file is validated (parse, format, version, address,
        replica count, payload digest) first; corrupt and retired files
        are left loose and reported, never baked into a segment.
        """
        self._refresh_segments()
        listing = list(self._object_files())
        corrupt: list[str] = []
        duplicates: list[pathlib.Path] = []
        packed: list[pathlib.Path] = []
        superseded: dict[str, set[str]] = {}
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
                    header, _ = _check_entry(path, raw)
                    if key_hash(header.get("key")) != hash_:
                        raise ParameterError(
                            f"{path}: file name does not match the "
                            "stored key's hash"
                        )
                except ParameterError as exc:
                    corrupt.append(str(exc))
                    continue
                found = self._segment_row(hash_)
                if found is not None:
                    if header["replicas"] <= found[1].replicas:
                        duplicates.append(path)
                        continue
                    superseded.setdefault(found[0].id, set()).add(hash_)
                packed.append(path)
                packed_bytes += len(raw)
                yield SegmentEntry(
                    hash=hash_, offset=0, length=len(raw),
                    mtime=stat.st_mtime, replicas=header["replicas"],
                    **_key_fields(header["key"]),
                ), raw

        if dry_run:
            for _ in _records():
                pass
            segment = None
        else:
            segment = write_segment(self._segments_dir(), _records())
            # The segment is committed: now (and only now) retire the
            # packed loose files, the duplicates and the shorter rows
            # the packed entries supersede.
            for path in packed + duplicates:
                try:
                    path.unlink()
                except OSError:
                    pass
            for sid, drops in superseded.items():
                self._rewrite_segment(sid, drops)
            self._refresh_segments()
        return CompactReport(
            loose_before=len(listing),
            packed_entries=len(packed),
            packed_bytes=packed_bytes,
            deduplicated=len(duplicates),
            corrupt=tuple(corrupt),
            segment_id=None if segment is None else segment.id,
            segments_total=len(self._segments or {}),
            segment_entries_total=len(self._segment_map),
            loose_remaining=len(corrupt) if not dry_run
            else len(listing) - len(duplicates),
            dry_run=dry_run,
        )

    # -- coverage / eviction -------------------------------------------
    def coverage(self, spec) -> tuple[int, int]:
        """``(present, total)`` replicas of a spec's footprint.

        Each cell counts its longest stored prefix, capped at the grid's
        replica budget, read from index rows and loose header lines
        alone — no payload is touched.
        """
        self._refresh_segments()
        budget = spec.grid.replicas
        cells = _footprint(spec)
        present = sum(min(self._stored_replicas(key_hash(key)), budget)
                      for _, key in cells)
        return present, budget * len(cells)

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
        removes it outright when empty).  Rows of a retired version-1
        segment are evicted whatever the budget, so such a segment is
        never rewritten, only removed.

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

        from ..sim.distributed import read_queue_manifest
        from ..sim.spec import CampaignSpec

        pins = list(pin_specs) + [
            CampaignSpec.from_dict(read_queue_manifest(queue)["campaign"])
            for queue in pin_queues
        ]
        pinned = {key_hash(key) for spec in pins
                  for _, key in _footprint(spec)}

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
                    (row.mtime, row.length,
                     "retired" if segment.retired else "segment", sid)
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
            # Never served: evicted whatever the budget (see docstring).
            if any(kind == "retired" for _, _, kind, _ in copy_list):
                _evict(size, hash_, copy_list)
                continue
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

        Hands the stored record lines of every grid cell, in grid order,
        to :func:`repro.sim.sinks.write_framed` — the framed format's
        one writer, which ``campaign merge`` uses too — so the output
        (plus its ``.manifest`` sidecar holding the spec fingerprint)
        is the file a single-machine ``sink="framed"`` run of the spec
        would have produced: byte-identical, with **zero** simulations.
        Cells resolve through the same segment-first lookup path as a
        warm run, so an export is byte-identical before and after
        compaction.  Every cell must be resolvable from the store;
        missing cells are reported by grid coordinates, never silently
        skipped.
        """
        resolved = _load_cells(self, spec)
        frames = write_framed(
            out_path, spec.fingerprint(),
            ((plan.index, hit.records) for plan, hit in resolved),
        )
        return ExportReport(
            cells=len(resolved), frames=frames,
            bytes_written=pathlib.Path(out_path).stat().st_size,
        )


def cells_from_store(store: CampaignStore, spec, resolved=None) -> list:
    """A spec's aggregated campaign cells, resolved with zero simulation.

    The query layer behind ``report --from-spec --store``: every grid
    cell is loaded through the spec's replica controller and aggregated
    exactly as a live run would have (:class:`~repro.sim.campaign.
    CampaignCell` with a full Monte-Carlo summary).  Raises when any
    cell is absent — a report must never silently cover a partial grid.

    ``resolved`` is a :meth:`CampaignStore.resolve` result the caller
    already holds (the service's report query), so the footprint is not
    walked again.  Each cell comes from its hit's memo
    (:meth:`StoredCell.cell`): a warm entry is summarised once, and
    every later report reuses that summary after the hit's
    verification.
    """
    return [hit.cell(plan) for plan, hit in _load_cells(store, spec,
                                                         resolved)]


def _load_cells(store: CampaignStore, spec, resolved=None) -> list[tuple]:
    """Every grid cell of ``spec`` as ``(plan, StoredCell)``, in plan
    order — all-or-nothing: missing cells raise with grid
    coordinates rather than returning a partial sweep.  Without a
    ``resolved`` pass the cells come from :meth:`CampaignStore.
    load_cells`, which reads the same cells but skips the coverage
    probes nobody here would read."""
    if resolved is None:
        from ..sim.executor import plan_cells

        config = spec.config()
        plans = plan_cells(config)
        hits = store.load_cells(config, plans, spec.controller(),
                                engine=spec.policy.backend)
        cells = [(plan, hits.get(plan.index)) for plan in plans]
    else:
        cells = resolved[2]
    missing = [plan for plan, hit in cells if hit is None]
    if missing:
        head = ", ".join(
            f"({p.protocol}, M={p.M:g}, phi={p.phi:g})"
            for p in missing[:3]
        )
        raise ParameterError(
            f"{store.root}: store is missing {len(missing)} of "
            f"{len(cells)} cells for this spec (first missing: {head}"
            f"{', ...' if len(missing) > 3 else ''}); run the campaign "
            "with --store to populate them"
        )
    return cells
