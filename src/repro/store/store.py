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
replica.  Every entry lives in ``segments/<id>.seg`` + ``.idx``
(:mod:`repro.store.segments`); nothing else in the directory is ever
served, and :meth:`CampaignStore.verify` names each such file by path.

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
import resource
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
from .segments import (
    LockedSegment,
    Segment,
    SegmentEntry,
    SegmentWriter,
    load_segments,
    lock_segment,
    write_segment,
)

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
#: Entry version: one entry per grid cell.  Entries of any other
#: version are refused by name.
ENTRY_VERSION = 2

#: Index commits and rewrites write temp files then rename them, and a
#: writer creates its ``.seg`` just before its first commit; gc only
#: sweeps temp files and never-committed ``.seg`` files older than this
#: (seconds), so it cannot race a live writer.
_TMP_SWEEP_GRACE = 3600.0
#: Reads a lookup makes of an entry whose segment concurrent rewrites
#: keep unlinking under it (one segment re-scan before each retry)
#: before it settles for a miss.  Each retry only happens after a
#: rewrite committed the entry's new home, so a store compacted and
#: gc'd back to back every few milliseconds still serves every lookup.
_READ_ATTEMPTS = 16
#: Source segments one rewrite holds locked (one descriptor each) at
#: once, capped at a quarter of the process's descriptor limit; a
#: compaction with more sources merges in rounds.
_REWRITE_FANIN = 256
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


#: How a refusal of an entry's payload ends.
_CORRUPT = ("the entry is corrupt — drop it with `store compact` and re-run "
            "to repopulate")


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
            f"{label}: corrupt store entry (invalid JSON: {exc}); drop "
            "it with `repro-checkpoint store compact` and re-run to "
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
        raise ParameterError(
            f"{label}: unsupported store-entry version {version!r} (this "
            f"library speaks version {ENTRY_VERSION})")
    if _digest(body) != header.get("payload_sha256") \
            or body.count("\n") != header.get("replicas"):
        raise ParameterError(f"{label}: entry payload does not match its "
                             f"recorded digest; {_CORRUPT}")
    return header, body


def _verify_entry(label, data: bytes, expected_key: dict | None):
    """Every check a lookup makes, once per entry: :func:`_check_entry`, the
    full stored key against ``expected_key`` (a collision or renamed file is a
    hard error, not a wrong answer), and each replica line decoding into an
    engine-shape DES run that re-serialises to exactly that line.  Returns
    ``(header, block, body)``: a store hit is columnar, an entry the engines
    wrote checked by one batched decode and one cell-template re-encode
    (:func:`repro.io.load_cell`).  The per-line loop serves any other valid
    entry and words each refusal."""
    from .. import io as repro_io

    header, body = _check_entry(label, data)
    if expected_key is not None and header.get("key") != expected_key:
        raise ParameterError(
            f"{label}: stored key does not match the requested one "
            "(hash collision or tampered entry); refusing to serve "
            "a different simulation's result"
        )
    lines = body.split("\n")[:-1]
    block = repro_io.load_cell(lines)
    if block is not None:
        return header, block, body
    results = []
    for line in lines:
        try:
            result = repro_io.load_result(line)
        except ParameterError as exc:
            raise ParameterError(f"{label}: {exc}") from exc
        if not isinstance(result, DesResult):
            raise ParameterError(f"{label}: store entries hold raw DES "
                                 f"runs, found a {type(result).__name__}")
        for name, value in vars(result).items():
            if type(value) is bool or name in repro_io.COUNT_FIELDS \
                    and type(value) is not int:
                raise ParameterError(
                    f"{label}: replica field {name!r} holds a "
                    f"{type(value).__name__}, which the engines never "
                    f"write there; {_CORRUPT}")
        if repro_io.dump_result(result) != line:
            raise ParameterError(f"{label}: entry payload does not survive "
                                 f"a serialisation round-trip; {_CORRUPT}")
        results.append(result)
    return header, CellBlock.from_rows(results, lines), body


def _check_row(label, data: bytes, row: SegmentEntry, *,
               full: bool = False) -> None:
    """Check the bytes stored for index ``row`` against it: the whole
    row length, a sound entry (:func:`_check_entry`; with ``full`` every
    check a lookup makes) whose key hashes to the row's hash, and the
    row's replica count and queryable fields.  Raises naming ``label``."""
    if len(data) != row.length:
        raise ParameterError(
            f"{label}: segment data is shorter than the index row")
    header = (_verify_entry(label, data, None) if full
              else _check_entry(label, data))[0]
    key = header.get("key")
    if not isinstance(key, dict) or key_hash(key) != row.hash \
            or header["replicas"] != row.replicas \
            or not _key_fields(key).items() <= row._asdict().items():
        raise ParameterError(
            f"{label}: index row disagrees with the stored key")


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

    A store hit is columnar: :attr:`block` is a prefix of the entry's
    :class:`~repro.sim.results.CellBlock`, columns and stored lines
    (:attr:`records`, the exact text a warm campaign writes) sliced
    together, so a warm campaign re-encodes nothing and builds no
    :class:`~repro.sim.results.DesResult` (:attr:`results` builds them
    on demand).  :meth:`cell` is the prefix's aggregated cell, kept on
    the entry's memo (:attr:`CachedEntry.cells`).

    A ``StoredCell`` is only ever built from an entry that passed its
    check in the same lookup — full verification on a disk read,
    :meth:`CachedEntry.verify` at the store's ``cached_verification``
    level on a cache hit — so the memo it reads is always that of an
    intact entry.
    """

    block: CellBlock
    entry: CachedEntry = field(repr=False)

    @property
    def results(self) -> tuple[DesResult, ...]:
        return self.block.rows

    @property
    def records(self) -> tuple[str, ...]:
        return self.block.records

    def cell(self, plan):
        """``make_cell(plan, self.block)``, built once per entry and
        prefix length.

        Concurrent callers may both build it; ``setdefault`` keeps the
        first, so every caller gets the same cell object.
        """
        memo = self.entry.cells
        count = len(self.block)
        cell = memo.get(count)
        if cell is None:
            from ..sim.events import make_cell

            cell = memo.setdefault(count, make_cell(plan, self.block))
        return cell


def _replay(entry: CachedEntry | None, controller) -> StoredCell | None:
    """The prefix of a verified entry at which ``controller``'s cursor
    stops, or ``None`` when it never stops inside it."""
    if entry is None:
        return None
    stored = entry.block
    cursor = controller.cursor()
    for count, waste in enumerate(stored.waste[:controller.max_replicas], 1):
        if cursor.push(waste):
            return StoredCell(stored.prefix(count), entry)
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
    #: Publish stamp from the entry's index row (what ``gc`` ages).
    mtime: float
    #: Replicas the entry holds.
    replicas: int


@dataclass(frozen=True)
class StoreStat:
    """Aggregate accounting of a store directory."""

    entries: int
    total_bytes: int
    protocols: dict[str, int]
    oldest_mtime: float | None
    newest_mtime: float | None
    #: Committed segments the entries live in.
    segments: int = 0

    def describe(self) -> str:
        per_protocol = ", ".join(
            f"{k}={v}" for k, v in sorted(self.protocols.items())
        ) or "empty"
        return (f"{self.entries} entries, {self.total_bytes} bytes "
                f"({per_protocol}; in {self.segments} segment(s))")


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
        return (f"{self.checked} entries and files checked, "
                f"{len(self.errors)} corrupt or unknown: {self.errors[0]}")


@dataclass(frozen=True)
class CompactReport:
    """What one :meth:`CampaignStore.compact` pass did (or would do)."""

    #: Segments merged: every segment the pass could lock, uncommitted
    #: ones (a writer killed before its first commit) included.
    merged_segments: int
    #: Entries packed into the new segment.
    packed_entries: int
    packed_bytes: int
    #: Data bytes of the merged segments not carried over: shorter or
    #: duplicate copies, corrupt rows and uncommitted tails.
    reclaimed_bytes: int
    #: Rows dropped because they failed validation, by label.
    corrupt: tuple[str, ...]
    #: Segments left alone because another process held their lock.
    locked_segments: int
    #: Id of the last segment written, or ``None`` when nothing was
    #: packed.
    segment_id: str | None
    #: Store-wide totals after the pass.
    segments_total: int
    entries_total: int
    dry_run: bool

    def describe(self) -> str:
        verb = "would pack" if self.dry_run else "packed"
        head = (f"{verb} {self.packed_entries} entries "
                f"({self.packed_bytes} bytes) from "
                f"{self.merged_segments} segment(s)")
        if self.segment_id is not None:
            head += f" into segment {self.segment_id[:12]}"
        head += f", {self.reclaimed_bytes} bytes reclaimed"
        tail = (f"; store now: {self.entries_total} entries in "
                f"{self.segments_total} segment(s)")
        if self.locked_segments:
            tail += f", {self.locked_segments} locked segment(s) skipped"
        if self.corrupt:
            tail += (f", {len(self.corrupt)} corrupt row(s) dropped: "
                     f"{self.corrupt[0]}")
        return head + tail


@dataclass
class _Rewrite:
    """What one :meth:`CampaignStore._rewrite` carried over."""

    #: The rows carried over, in hash order.
    kept: list[SegmentEntry] = field(default_factory=list)
    #: Data-file bytes of the sources (committed rows and tails alike).
    source_bytes: int = 0
    corrupt: list[str] = field(default_factory=list)
    segment: Segment | None = None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class CampaignStore:
    """A content-addressed, concurrency-safe warehouse of cell results
    (the design is in :mod:`repro.store`).

    An instance that publishes owns one writer segment
    (:mod:`repro.store.segments`); copies of one entry in several
    segments resolve to the longest (the lowest segment id among
    equals), and lookups re-scan the segments before declaring a miss,
    so an entry is found wherever a racing publish, compaction or
    ``gc`` left it.  Hot entries are served from an in-process
    read-through LRU (:mod:`repro.store.cache`): full verification on
    the first read, then re-verification at the ``cached_verification``
    level (``"digest"`` by default; ``"full"`` adds the in-memory
    round-trip).  Pass ``cache=None`` to always read from disk.
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
        #: registry for ``GET /metrics``.  They share ``_read_lock``: a
        #: lookup books them in one section on entry (the high-water
        #: mark sees a consistent active count) and one on exit.
        registry = default_registry()
        self._read_lock = lock = threading.Lock()
        self._m_lookups = registry.register(Counter(
            "repro_store_lookups_total",
            help="Store lookups (hit or miss).", lock=lock))
        self._m_active = registry.register(Gauge(
            "repro_store_readers_active",
            help="Lookups in flight right now.", lock=lock))
        self._m_peak = registry.register(Gauge(
            "repro_store_readers_peak_concurrent", aggregate="max",
            help="High-water mark of simultaneous readers.", lock=lock))
        self._m_results = {
            outcome: registry.register(Counter(
                "repro_store_lookup_results_total",
                help="Lookup outcomes.", labels={"result": outcome},
                lock=lock))
            for outcome in ("hit", "miss")
        }
        self._m_lookup_seconds = {
            outcome: registry.register(Histogram(
                "repro_store_lookup_seconds", DEFAULT_TIME_BUCKETS,
                help="Full lookup latency by outcome.", unit="seconds",
                labels={"result": outcome}, lock=lock))
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
        #: merged hash → segment-id probe map (see _refresh_segments),
        #: re-scanned by one thread at a time under ``_scan_lock``.
        self._segments: dict[str, Segment] | None = None
        self._segment_map: dict[str, str] = {}
        self._scan_lock = threading.Lock()
        #: Scans so far: a pass (or a lookup) whose miss finds this
        #: moved since it began knows its view is already fresh.
        self._scans = 0
        #: Per thread, ``since``: the scan count when its running load
        #: pass began (see _load_footprint).
        self._pass = threading.local()
        #: This instance's writer segment, created by its first publish
        #: and shared by its threads under ``_write_lock``.
        self._writer: SegmentWriter | None = None
        self._write_lock = threading.Lock()
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
            self._segments_dir().mkdir(parents=True, exist_ok=True)
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

    def _segments_dir(self) -> pathlib.Path:
        return self.root / "segments"

    # -- segment state -------------------------------------------------
    def _refresh_segments(self) -> None:
        """(Re-)scan the segments directory for committed segments.

        The probe map sends each hash to its longest copy (the lowest id
        among equals, so every process resolves duplicates to the same
        copy).  Segments only gain rows until a rewrite removes them, so
        unless one was removed only new and re-read segments' rows are
        merged: a re-scan of an unchanged store does no row work.
        """
        with self._scan_lock:
            previous = self._segments or {}
            segments = {s.id: s for s in load_segments(self._segments_dir(),
                                                        previous)}
            if all(sid in segments for sid in previous):
                merged = self._segment_map
                changed = [sid for sid, segment in segments.items()
                           if previous.get(sid) is not segment]
            else:
                merged, changed = {}, list(segments)
            for sid in changed:
                for hash_, row in segments[sid].entries.items():
                    best = merged.get(hash_)
                    held = segments[best].entries.get(hash_) \
                        if best in segments else None
                    if held is None or row.replicas > held.replicas or (
                            row.replicas == held.replicas and sid < best):
                        merged[hash_] = sid
            self._segment_map = merged
            self._segments = segments
            self._scans += 1

    def _segment_row(self, hash_: str) -> tuple[Segment, SegmentEntry] | None:
        if self._segments is None:
            self._refresh_segments()
        segment = self._segments.get(self._segment_map.get(hash_))
        row = None if segment is None else segment.entries.get(hash_)
        return None if row is None else (segment, row)

    def _read_longest(self, hash_: str) -> tuple[bytes, str] | None:
        """``(bytes, label)`` of the longest stored copy of an entry, or
        ``None``.

        Uses the cached index view; a segment rewritten underneath us
        reads as a miss here and the caller's re-scan finds the
        successor.
        """
        found = self._segment_row(hash_)
        if found is None:
            return None
        segment, row = found
        try:
            data = segment.read(row)
        except OSError:
            return None  # concurrently rewritten
        if len(data) != row.length:
            return None
        return data, f"{segment.data_path}@{row.offset}"

    def _stored_replicas(self, hash_: str) -> int:
        """Length of the longest stored copy of an entry (0 when absent),
        from its index row — no data is read."""
        found = self._segment_row(hash_)
        return 0 if found is None else found[1].replicas

    # -- publish / lookup ----------------------------------------------
    def publish(self, key: dict, records) -> bool:
        """Store one cell's replica prefix, given as its record lines
        (one :func:`repro.io.dump_result` per replica, in seed order);
        False when a copy at least as long is already present.

        Appends the entry to this instance's writer segment and commits
        it by rewriting that segment's index (write-then-rename, no
        fsync); :mod:`repro.store.segments` has the commit and roll
        rules.
        """
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("store.publish", "store"):
                return self._publish(key, records)
        return self._publish(key, records)

    def _publish(self, key: dict, records) -> bool:
        hash_ = key_hash(key)
        # Checked under the writer lock: two threads publishing one
        # cell must not leave the shorter copy as the writer's row.
        with self._write_lock:
            if self._stored_replicas(hash_) >= len(records):
                self._m_publish["duplicate"].inc()
                return False
            segment = self._append(
                SegmentEntry(hash=hash_, offset=0, length=0, mtime=0.0,
                             replicas=len(records), **_key_fields(key)),
                _entry_text(key, records).encode("utf-8"))
            self._segments[segment.id] = segment
            self._segment_map[hash_] = segment.id
        self._m_publish["stored"].inc()
        return True

    def _append(self, meta: SegmentEntry, data: bytes) -> Segment:
        """Append one entry through this instance's writer (the caller
        holds ``_write_lock``); returns the writer's segment."""
        for _ in range(3):
            writer = self._writer
            if writer is None or writer.full \
                    or writer.pid != os.getpid():
                self._drop_writer()
                writer = self._writer = SegmentWriter(self._segments_dir())
            try:
                row = writer.append(meta, data)
            except OSError:
                self._drop_writer()
                raise
            if row is not None:
                return writer.segment
            self._drop_writer()  # taken by a compaction or gc
        raise OSError(f"{self._segments_dir()}: every fresh writer segment "
                      "was taken by a concurrent compaction")

    def _drop_writer(self) -> None:
        """Close the writer segment; the next publish opens a fresh one."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def lookup(self, key: dict) -> tuple | None:
        """The stored replica prefix of ``key``, or ``None`` on a miss.

        A hit is integrity-checked before it is served (see
        :func:`_verify_entry`); corruption raises a
        :class:`~repro.errors.ParameterError` naming the entry — a store
        must never silently substitute wrong results for a simulation.

        Read path: the hot-cell cache (digest-level re-check), then the
        longest segment copy, then — unless a scan already ran since the
        lookup began — one segment re-scan, which finds an entry another
        process just committed or rewrote.  Safe to call from many
        threads at once (the campaign service does).
        """
        entry = self._read(key)
        return None if entry is None else entry.block.rows

    def _read(self, key: dict) -> CachedEntry | None:
        """:meth:`lookup`, returning the whole verified entry (its
        replicas and their stored lines).  A miss re-scans only if no
        scan ran since this thread's load pass (or this lookup) began."""
        since = getattr(self._pass, "since", None)
        if since is None:
            since = self._scans
        with self._read_lock:
            self._m_lookups.inc_held()
            self._m_peak.raise_held(self._m_active.add_held(1))
        started = time.perf_counter()
        tracer = current_tracer()
        outcome = None
        try:
            if tracer is None:
                entry = self._lookup(key, since)
            else:
                with tracer.span("store.lookup", "store") as span:
                    entry = self._lookup(key, since)
                    span.args["result"] = \
                        "hit" if entry is not None else "miss"
            outcome = "hit" if entry is not None else "miss"
            return entry
        finally:
            elapsed = time.perf_counter() - started
            with self._read_lock:
                self._m_active.add_held(-1)
                if outcome is not None:
                    self._m_results[outcome].inc_held()
                    self._m_lookup_seconds[outcome].observe_held(elapsed)

    def _lookup(self, key: dict, since: int) -> CachedEntry | None:
        token = None
        if self._cache is not None:
            # Probed by cheap surrogate, resolved by full-key equality:
            # the content address (canonical JSON + SHA-256, ~8us) is
            # only computed when the disk must be touched anyway.
            token = cache_key(key)
            hit = self._cache.get(self._cache_root, token)
            if hit is not None and hit.key == key:
                if hit.verify(self._cached_verification):
                    return hit
                # In-memory corruption: drop it and re-read from disk.
                self._cache.invalidate(self._cache_root, token)

        hash_ = key_hash(key)
        for attempt in range(_READ_ATTEMPTS):
            found = self._read_longest(hash_)
            if found is not None:
                return self._admit(key, token, *found)
            # A row that failed to read was rewritten away: re-scan while
            # it keeps moving.  No row is a miss, unless another process
            # committed the entry since our last scan — not the case when
            # one ran since ``since``.
            if self._segment_row(hash_) is None \
                    and (attempt or self._scans != since):
                return None
            self._refresh_segments()
        return None

    def _admit(self, key, token, data, label) -> CachedEntry:
        """Fully verify an entry read from disk, stage it in the hot-cell
        cache, and return it."""
        started = time.perf_counter()
        header, block, body = _verify_entry(label, data, key)
        self._m_verify_seconds.observe(time.perf_counter() - started)
        entry = CachedEntry(
            key=key, block=block, payload_text=body,
            payload_sha256=header["payload_sha256"],
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
        ``pread`` per cell entry, the footprint's entries are grouped
        per segment, coalesced into contiguous spans, and streamed with
        a few sequential reads
        (:meth:`~repro.store.segments.Segment.read_many`) — a spec
        whose footprint resolves to few segments reads each of them
        once, front to back.  Every admitted entry passes the same full
        verification a cold :meth:`lookup` performs; the per-cell
        lookup that follows is then a memory hit.

        Purely an I/O-pattern optimisation, never a semantic one: absent
        keys and torn bulk reads (a concurrent rewrite) are simply left
        for the per-cell lookup path, and with the cache disabled there
        is nowhere to stage decoded entries, so this is a no-op.
        Returns the number of cell entries admitted.
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
        wanted: dict[str, tuple[Segment, list]] = {}
        for key in keys:
            token = cache_key(key)
            if self._cache.peek(self._cache_root, token) is not None:
                continue
            hash_ = key_hash(key)
            found = self._segment_row(hash_)
            if found is not None:
                segment, row = found
                wanted.setdefault(segment.id, (segment, []))[1].append(
                    (key, token, row))
        loaded = 0
        for segment, items in wanted.values():
            data = segment.read_many(row for _, _, row in items)
            for key, token, row in items:
                raw = data.get(row.hash)
                if raw is None:
                    continue  # torn read: lookup's re-scan recovers
                label = f"{segment.data_path}@{row.offset}"
                self._admit(key, token, raw, label)
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
                and len(entry.block) < controller.max_replicas:
            # The short prefix came from the cache: a longer one may
            # have landed since (another process, or a fill in this
            # one), so re-read it through a fresh segment scan.
            self._cache.invalidate(self._cache_root, cache_key(key))
            self._refresh_segments()
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
        Misses are simply absent from the result.  The pass re-scans
        the segments at most once, at its first miss, and not at all
        when a scan already ran since it began (a fresh instance's first
        read) or when every cell hits.
        """
        footprint = [(plan, cell_key(config, plan, engine=engine))
                     for plan in plans]
        hits = self._load_footprint(config, footprint, controller, engine)
        return {plan.index: hit for (plan, _), hit in zip(footprint, hits)
                if hit is not None}

    def _load_footprint(self, config, footprint, controller, engine,
                        since: int | None = None
                        ) -> list[StoredCell | None]:
        """:meth:`load_cells` over ``(plan, cell key)`` pairs whose keys
        are already computed: one preload, then one :meth:`load_cell`
        per pair (through the instance, so a wrapped ``load_cell`` sees
        every cell), aligned with ``footprint``.  One pass: its misses
        re-scan only if no scan ran since ``since`` (default: now)."""
        self._pass.since = self._scans if since is None else since
        try:
            self.preload(key for _, key in footprint)
            return [self.load_cell(config, plan, controller,
                                   engine=engine, key=key)
                    for plan, key in footprint]
        finally:
            self._pass.since = None

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
        rows (after one segment re-scan for the whole pass).  A cell that probe finds absent is not looked up at all,
        so a cold query costs one re-scan, not one per missing cell.
        The one difference from :meth:`coverage`: an entry still held
        by the cache after ``gc`` evicted its row counts its cached
        length, because that is what this store will serve.
        """
        budget = spec.grid.replicas
        footprint = _footprint(spec)
        since = self._scans

        def on_disk(key: dict) -> int:
            if self._scans == since:
                self._refresh_segments()
            return min(self._stored_replicas(key_hash(key)), budget)

        probed: dict[int, int] = {}
        absent = set()
        for plan, key in footprint:
            held = self._held(key)
            if held is None or len(held.block) < budget:
                probed[plan.index] = on_disk(key)
                if held is None and not probed[plan.index]:
                    absent.add(plan.index)
        live = [(plan, key) for plan, key in footprint
                if plan.index not in absent]
        hits = dict(zip(
            (plan.index for plan, _ in live),
            self._load_footprint(spec.config(), live, spec.controller(),
                                 spec.policy.backend, since)))
        present = 0
        cells = []
        for plan, key in footprint:
            hit = hits.get(plan.index)
            stored = 0 if hit is None else min(len(hit.entry.block),
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
    def _listing(self) -> Iterator[tuple[StoreEntry, Segment]]:
        """Every entry once, as the copy a lookup serves, with its
        segment, after a fresh segment scan — straight from the index
        rows in memory."""
        self._refresh_segments()
        segments, merged = self._segments, self._segment_map
        for sid in sorted(segments):
            segment = segments[sid]
            for hash_ in sorted(segment.entries):
                if merged.get(hash_) != sid:
                    continue  # another copy is the one served
                row = segment.entries[hash_]
                yield StoreEntry(
                    hash=hash_, protocol=row.protocol, M=row.M,
                    phi=row.phi, n=row.n, seed=row.seed,
                    trace_seed=row.trace_seed,
                    work_target=row.work_target, size=row.length,
                    mtime=row.mtime, replicas=row.replicas,
                ), segment

    def entries(self) -> Iterator[StoreEntry]:
        """Every stored entry, as queryable metadata, streamed.

        Entries come straight from the in-memory index rows — **no data
        file is read at all** — which is what keeps
        ``ls``/``stat``/``query`` latency flat as the store grows.  An
        entry with copies in several segments is reported once, as the
        copy a lookup serves (the longest).
        """
        for entry, _ in self._listing():
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
        stream by, counted from their index rows without touching the
        data files.
        """
        return self._fold(self.entries())

    def _fold(self, entries: Iterable[StoreEntry]) -> StoreStat:
        count = total = 0
        protocols: dict[str, int] = {}
        oldest: float | None = None
        newest: float | None = None
        for entry in entries:
            count += 1
            total += entry.size
            protocols[entry.protocol] = protocols.get(entry.protocol, 0) + 1
            oldest = entry.mtime if oldest is None else min(oldest, entry.mtime)
            newest = entry.mtime if newest is None else max(newest, entry.mtime)
        return StoreStat(
            entries=count, total_bytes=total, protocols=protocols,
            oldest_mtime=oldest, newest_mtime=newest,
            segments=len(self._segments or {}),
        )

    def verify(self) -> VerifyReport:
        """Re-verify every entry against its stored bytes, streamed.

        Checks each entry as the copy a lookup serves: its row's hash
        is the SHA-256 of the stored key, every check a lookup makes
        passes (:func:`_verify_entry`), and the row's fields and replica
        count agree with the stored entry.  Then names, by path, every
        file a lookup never reads: anything under ``objects/`` (older
        stores' loose layout), and any index in ``segments/`` that does
        not load as version 2, with its data file.  Uncommitted bytes
        and temp files are not errors: no reader sees them.  Collects
        problems instead of stopping at the first.
        """
        errors: list[str] = []
        stat = self._fold(self._verified(errors))
        errors.extend(f"{path}: unknown file in a results store, never "
                      "served; delete it" for path in self._unknown_files())
        return VerifyReport(checked=stat.entries + len(errors),
                            errors=tuple(errors), stat=stat)

    def _verified(self, errors: list[str]) -> Iterator[StoreEntry]:
        """The entries that verify clean; the others' problems go to
        ``errors``."""
        for entry, segment in self._listing():
            row = segment.entries[entry.hash]
            label = f"{segment.data_path}@{row.offset}"
            try:
                _check_row(label, segment.read(row), row, full=True)
            except OSError as exc:
                errors.append(f"{label}: {exc}")
            except ParameterError as exc:
                errors.append(str(exc))
            else:
                yield entry

    def _unknown_files(self) -> Iterator[pathlib.Path]:
        """Files in the store directory no lookup ever reads (see
        :meth:`verify`), in path order."""
        for top, _, files in sorted(os.walk(self.root / "objects")):
            for name in sorted(files):
                yield pathlib.Path(top) / name
        segments_dir = self._segments_dir()
        try:
            names = sorted(os.listdir(segments_dir))
        except FileNotFoundError:
            return
        present = set(names)
        # Scanned after the listing: a segment committed since is known.
        committed = {segment.id for segment in load_segments(segments_dir)}
        for name in names:
            stem, _, suffix = name.rpartition(".")
            if ".tmp" in name or stem in committed \
                    or (suffix == "seg" and f"{stem}.idx" not in present):
                continue
            if (segments_dir / name).exists():  # not rewritten away since
                yield segments_dir / name

    # -- compaction ----------------------------------------------------
    def compact(self, *, dry_run: bool = False) -> CompactReport:
        """Merge every segment into one hash-sorted segment (``store
        compact``).

        Each segment the pass can lock (see :mod:`repro.store.segments`)
        is merged, its index re-read under the lock; one another process
        holds is skipped and counted.  Per hash the longest copy that
        validates is kept (the lowest segment id among equals); corrupt
        rows are named in the report, and they and bytes past a
        segment's last committed row are not carried over.

        A rewrite locks at most :data:`_REWRITE_FANIN` sources at once
        (one descriptor each), so more segments merge in rounds: batches
        into one segment each, then those into one.  ``dry_run`` reports
        without writing or unlinking anything.
        """
        segments_dir = self._segments_dir()
        try:
            names = set(os.listdir(segments_dir))
        except FileNotFoundError:
            names = set()
        self._refresh_segments()
        # Every committed segment, and every .seg never committed.
        level = sorted(set(self._segments) | {
            name[:-4] for name in names if name.endswith(".seg")
            and f"{name[:-4]}.idx" not in names})
        kept: dict[str, SegmentEntry] = {}  # what the merge keeps
        corrupt: list[str] = []
        written: list[str] = []
        merged = skipped = source_bytes = 0
        for held, missed in self._locked_batches(level):
            rewrite = self._rewrite(held, dry_run=dry_run)
            merged, skipped = merged + len(held), skipped + missed
            source_bytes += rewrite.source_bytes
            corrupt += rewrite.corrupt
            if rewrite.segment is not None:
                written.append(rewrite.segment.id)
            for row in rewrite.kept:  # batches come in id order
                prior = kept.get(row.hash)
                if prior is None or row.replicas > prior.replicas:
                    kept[row.hash] = row
        while len(written) > 1:
            # Later rounds go in batch order, so equal-length copies
            # still resolve to the one from the lowest source id.
            rewrites = [self._rewrite(held)
                        for held, _ in self._locked_batches(written)]
            if not any(r.segment for r in rewrites):
                break  # another process holds them all
            written = [r.segment.id for r in rewrites if r.segment]
        packed = sum(row.length for row in kept.values())
        self._refresh_segments()
        return CompactReport(
            merged_segments=merged,
            packed_entries=len(kept),
            packed_bytes=packed,
            reclaimed_bytes=source_bytes - packed,
            corrupt=tuple(corrupt),
            locked_segments=skipped,
            segment_id=written[-1] if written else None,
            segments_total=len(self._segments),
            entries_total=len(self._segment_map),
            dry_run=dry_run,
        )

    def _locked_batches(
        self, ids: list[str]
    ) -> Iterator[tuple[list[LockedSegment], int]]:
        """Lock segments ``ids`` in the given order, at most
        :data:`_REWRITE_FANIN` at a time: yields ``(held, skipped)`` per
        batch, ``skipped`` counting the segments another process held.
        The consumer owns each batch; a failure releases the batch."""
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        fanin = _REWRITE_FANIN if soft == resource.RLIM_INFINITY \
            else max(2, min(_REWRITE_FANIN, soft // 4))
        segments_dir, i = self._segments_dir(), 0
        while i < len(ids):
            held, skipped = [], 0
            try:
                while i < len(ids) and len(held) < fanin:
                    source = lock_segment(segments_dir, ids[i])
                    i += 1
                    if source is None:
                        skipped += 1
                    else:
                        held.append(source)
            except BaseException:
                for source in held:
                    source.release()
                raise
            yield held, skipped

    def _rewrite(self, sources: list[LockedSegment], drops=frozenset(), *,
                 dry_run: bool = False) -> "_Rewrite":
        """The one rewrite of compaction and ``gc``: merge the locked
        ``sources`` into one new segment without the ``drops`` hashes,
        commit it, then unlink the sources (index first) and release
        their locks.

        Per hash the longest copy that validates is carried over
        verbatim (the first source in the given order among equals),
        read through the locked descriptor; rows failing validation are
        reported in ``corrupt``.  With ``dry_run`` nothing is written or
        unlinked.
        """
        copies: dict[str, list[tuple]] = {}
        for source in sources:
            for hash_, row in source.segment.entries.items():
                if hash_ not in drops:
                    copies.setdefault(hash_, []).append((source, row))
        result = _Rewrite()

        def records() -> Iterator[tuple[SegmentEntry, bytes]]:
            for hash_ in sorted(copies):
                for source, row in sorted(copies[hash_],
                                          key=lambda c: -c[1].replicas):
                    label = f"{source.segment.data_path}@{row.offset}"
                    try:
                        data = os.pread(source.fd, row.length, row.offset)
                        _check_row(label, data, row)
                    except (OSError, ParameterError) as exc:
                        result.corrupt.append(str(exc))
                        continue
                    result.kept.append(row)
                    yield row, data
                    break

        try:
            result.source_bytes = sum(os.fstat(s.fd).st_size
                                      for s in sources)
            if dry_run:
                for _ in records():
                    pass
            else:
                if copies:
                    result.segment = write_segment(self._segments_dir(),
                                                   records())
                for source in sources:
                    source.unlink()
        finally:
            for source in sources:
                source.release()
        return result

    # -- coverage / eviction -------------------------------------------
    def coverage(self, spec) -> tuple[int, int]:
        """``(present, total)`` replicas of a spec's footprint.

        Each cell counts its longest stored prefix, capped at the grid's
        replica budget, read from the index rows alone — no data is
        touched.
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
        """Trim the store to a retention budget, oldest-published first.

        ``max_age`` evicts entries published more than that many seconds
        ago; ``max_bytes`` then evicts the oldest entries until the store
        fits the budget.  An entry's age is the publish stamp in its
        index row (carried through compaction; a lookup does not refresh
        it), measured by :func:`repro.fsclock.clamped_age` against the
        *store filesystem's* clock, so cross-machine skew can never age
        a fresh entry past the budget.  Eviction goes through the same
        rewrite as :meth:`compact`: each segment holding an evicted row
        is rewritten without it (or removed outright when empty); a
        segment another process holds is left for the next pass.

        Entries in the footprint of a ``pin_specs`` spec or of the
        campaign recorded in a ``pin_queues`` queue-directory manifest
        are never evicted — a fleet mid-campaign must not lose the cells
        its queue still references.  Temp files and never-committed
        ``.seg`` files of crashed writers are swept once older than an
        hour; bytes past a committed segment's last row go when that
        segment is next rewritten (evicted from here, or compacted).
        ``dry_run`` reports without deleting.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ParameterError(f"max_bytes must be >= 0, got {max_bytes!r}")
        if max_age is not None and max_age <= 0:
            raise ParameterError(f"max_age must be > 0, got {max_age!r}")
        if now is None:
            # Publish stamps were taken by the store directory's
            # filesystem (possibly a fileserver on another clock):
            # measure *now* with that same clock, and clamp every age at
            # zero below, so a clock step can never age a just-published
            # entry past --max-age.
            now = filesystem_now(self._segments_dir())
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

        if not dry_run:
            self._sweep_leftovers(now)

        self._refresh_segments()
        # hash → [newest stamp, total bytes, segment ids]: an entry
        # with copies in several segments is one logical entry, all of
        # whose copies an eviction removes.
        copies: dict[str, list] = {}
        for sid, segment in self._segments.items():
            for hash_, row in segment.entries.items():
                item = copies.setdefault(hash_, [row.mtime, 0, []])
                item[0] = max(item[0], row.mtime)
                item[1] += row.length
                item[2].append(sid)
        listing = sorted((mtime, size, hash_, sids)
                         for hash_, (mtime, size, sids) in copies.items())
        pinned_present = sum(1 for _, _, h, _ in listing if h in pinned)

        evicted: list[tuple[int, str, list]] = []
        survivors = []
        for mtime, size, hash_, sids in listing:
            if hash_ not in pinned and max_age is not None \
                    and clamped_age(now, mtime) > max_age:
                evicted.append((size, hash_, sids))
            else:
                survivors.append((size, hash_, sids))
        if max_bytes is not None:
            total = sum(size for size, _, _ in survivors)
            # Oldest first; pinned entries are immune however tight the
            # budget gets.
            for size, hash_, sids in survivors:
                if total <= max_bytes:
                    break
                if hash_ not in pinned:
                    evicted.append((size, hash_, sids))
                    total -= size

        if evicted and not dry_run:
            drops: dict[str, set[str]] = {}
            for _, hash_, sids in evicted:
                for sid in sids:
                    drops.setdefault(sid, set()).add(hash_)
            kept: set[str] = set()  # in a segment another process held
            for sid, hashes in drops.items():
                source = lock_segment(self._segments_dir(), sid)
                if source is None:
                    kept |= hashes
                else:
                    self._rewrite([source], hashes)
            evicted = [item for item in evicted if item[1] not in kept]
            self._refresh_segments()

        return GcReport(
            entries_before=len(listing),
            bytes_before=sum(size for _, size, _, _ in listing),
            evicted_entries=len(evicted),
            evicted_bytes=sum(size for size, _, _ in evicted),
            pinned_entries=pinned_present,
            dry_run=dry_run,
        )

    def _sweep_leftovers(self, now: float) -> None:
        """Unlink the stale temp files and never-committed ``.seg``
        files of crashed writers (a ``.seg`` only through its lock, so a
        writer committing it meanwhile keeps it)."""
        segments_dir = self._segments_dir()
        try:
            names = set(os.listdir(segments_dir))
        except FileNotFoundError:
            return
        for name in sorted(names):
            orphan = name.endswith(".seg") and f"{name[:-4]}.idx" not in names
            if ".tmp-" not in name and not orphan:
                continue
            path = segments_dir / name
            try:
                if clamped_age(now, path.stat().st_mtime) <= _TMP_SWEEP_GRACE:
                    continue
                if not orphan:
                    path.unlink()
                    continue
                source = lock_segment(segments_dir, name[:-4])
                if source is not None:
                    if not source.segment.entries:
                        source.unlink()
                    source.release()
            except OSError:
                pass  # a racing writer renamed it, or gc removed it

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
