"""Segment files: the store's compaction format.

A fresh store keeps one *loose* file per grid-cell entry — publish
stays a single atomic rename, which is what makes any number of
concurrent writers race-free.  But a fleet-scale store accumulates
hundreds of thousands of entries, and every maintenance walk
(``entries``/``stat``/``gc``/``verify``) then pays a ``stat`` per file
while the objects tree grinds against directory-scaling walls.

``store compact`` packs loose entries into **segments**: an append-only
data file holding the entries' exact bytes back to back, plus a sorted
hash index carrying everything the query layer needs (offset, length,
access mtime, the key's queryable fields and the entry's replica
count).  After compaction:

* a lookup is one in-memory index probe + one ``pread`` — no directory
  walk, no per-entry ``stat``;
* ``stat``/``ls``/``query`` read **no data at all**: the index rows
  already carry the queryable key fields;
* ``gc`` ages segment entries by their *recorded* mtimes through the
  same :func:`repro.fsclock.clamped_age` arithmetic as loose files, and
  evicts by atomically *rewriting* a segment without the evicted rows
  (pinned footprints survive however tight the budget).

Concurrency contract (the part that must never regress):

* A segment becomes visible only when its **index** file is renamed
  into place; the data file is written and renamed first, so readers
  never observe a segment whose bytes are incomplete.  A ``.seg``
  without its ``.idx`` is an orphan from a crashed compaction — ignored
  by readers, swept by ``gc`` after the same grace period as loose temp
  files.
* Compaction never mutates an existing file: it writes a brand-new
  segment, commits the index, and only then unlinks the loose files it
  packed.  A concurrent reader therefore always finds an entry in at
  least one place (loose before the unlink, the segment after the index
  commit — :meth:`CampaignStore.lookup` re-scans for new segments
  before declaring a miss), and a concurrent publisher at worst
  re-creates a loose duplicate with identical bytes, which the next
  compaction folds in.
* Segment rewrites (gc) follow the same scheme: new data + new index
  committed under a fresh segment id, then the old pair is unlinked.
  Readers holding the old index keep reading the unlinked inode through
  their open handle; fresh readers re-scan.

Everything in the data file is byte-identical to the loose entry it
replaced, so exports and warm re-runs are byte-identical before and
after compaction by construction.

Version 1 segments (one row per replica) still load, so an old store
opens, but :attr:`Segment.retired` keeps them out of every lookup; they
are never rewritten — ``gc`` evicts every retired row, so a version-1
segment only ever goes away whole.
"""

from __future__ import annotations

import json
import os
import pathlib
import uuid
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from ..errors import ParameterError

__all__ = [
    "SEGMENT_INDEX_FORMAT",
    "SEGMENT_VERSION",
    "COALESCE_GAP",
    "SegmentEntry",
    "Segment",
    "write_segment",
    "load_segments",
    "segment_data_path",
    "segment_index_path",
]

SEGMENT_INDEX_FORMAT = "repro-store-segment-index"
#: Written version; readers refuse unknown numbers by name, like every
#: envelope in :mod:`repro.io`.
SEGMENT_VERSION = 2
_ROW_FIELDS = {1: 11, 2: 12}

#: Bulk reads merge two needed rows into one sequential read when the
#: unneeded hole between them is at most this many bytes (64 KiB ≈ a
#: couple of typical entries: cheaper to read through than to pay
#: another syscall + seek, on local disks and emphatically on NFS).
COALESCE_GAP = 64 * 1024


@dataclass(frozen=True)
class SegmentEntry:
    """One index row: where an entry's bytes live, plus the queryable
    fields of its key (so ``ls``/``stat``/``query`` never read data)."""

    hash: str
    offset: int
    length: int
    #: Last-access stamp carried over from the loose file (or the prior
    #: segment) at pack time — the LRU clock ``gc`` ages against.
    mtime: float
    protocol: str | None
    M: float
    phi: float
    n: int
    seed: int | None
    trace_seed: int | None
    work_target: float
    #: Replicas the entry holds (its stored prefix length); a version-1
    #: row is one replica.
    replicas: int = 1

    def to_row(self) -> list:
        return [self.hash, self.offset, self.length, self.mtime,
                self.protocol, self.M, self.phi, self.n, self.seed,
                self.trace_seed, self.work_target, self.replicas]

    @classmethod
    def from_row(cls, row: list,
                 version: int = SEGMENT_VERSION) -> "SegmentEntry":
        if not isinstance(row, list) or len(row) != _ROW_FIELDS[version]:
            raise ParameterError(
                f"malformed segment index row: {row!r}"
            )
        return cls(
            hash=row[0], offset=int(row[1]), length=int(row[2]),
            mtime=float(row[3]), protocol=row[4], M=float(row[5]),
            phi=float(row[6]), n=int(row[7]), seed=row[8],
            trace_seed=row[9], work_target=float(row[10]),
            replicas=int(row[11]) if version > 1 else 1,
        )


@dataclass(frozen=True)
class Segment:
    """A committed segment: its data path plus the decoded index."""

    id: str
    data_path: pathlib.Path
    #: Index rows by hash — the in-memory probe a warm lookup does.
    entries: dict[str, SegmentEntry]
    version: int = SEGMENT_VERSION

    @property
    def retired(self) -> bool:
        """Holds the per-replica format: never served, only aged out."""
        return self.version < SEGMENT_VERSION

    @property
    def data_bytes(self) -> int:
        return sum(e.length for e in self.entries.values())

    def read(self, entry: SegmentEntry) -> bytes:
        """The exact stored bytes of one entry (one ``pread``)."""
        fd = os.open(self.data_path, os.O_RDONLY)
        try:
            return os.pread(fd, entry.length, entry.offset)
        finally:
            os.close(fd)

    def read_many(
        self, rows: Iterable[SegmentEntry], *, gap: int = COALESCE_GAP
    ) -> dict[str, bytes]:
        """Many entries' bytes with few sequential reads: bulk export.

        Rows are sorted by offset and coalesced into contiguous spans —
        two rows land in one span when the hole between them is at most
        ``gap`` bytes (reading a small hole is cheaper than a second
        syscall + seek) — then each span is one ``pread``.  A footprint
        that covers most of a segment therefore streams it in a single
        read, while a sparse footprint degrades gracefully toward the
        per-entry path, never below it.

        Returns ``{hash: bytes}``; rows that read torn (a concurrent gc
        rewrite unlinked the data file mid-stream) are *omitted*, and
        the caller falls back to :meth:`read`'s re-scanning path —
        same contract as :meth:`CampaignStore._segment_probe`.
        """
        ordered = sorted(rows, key=lambda e: e.offset)
        if not ordered:
            return {}
        spans: list[list[SegmentEntry]] = [[ordered[0]]]
        for row in ordered[1:]:
            last = spans[-1][-1]
            if row.offset - (last.offset + last.length) <= gap:
                spans[-1].append(row)
            else:
                spans.append([row])
        out: dict[str, bytes] = {}
        try:
            fd = os.open(self.data_path, os.O_RDONLY)
        except OSError:
            return {}
        try:
            for span in spans:
                start = span[0].offset
                end = span[-1].offset + span[-1].length
                data = os.pread(fd, end - start, start)
                for row in span:
                    chunk = data[row.offset - start:
                                 row.offset - start + row.length]
                    if len(chunk) == row.length:
                        out[row.hash] = chunk
        except OSError:
            return out  # partial is fine: missing rows fall back
        finally:
            os.close(fd)
        return out


def segment_data_path(segments_dir: pathlib.Path, id_: str) -> pathlib.Path:
    return segments_dir / f"{id_}.seg"


def segment_index_path(segments_dir: pathlib.Path, id_: str) -> pathlib.Path:
    return segments_dir / f"{id_}.idx"


def write_segment(
    segments_dir: pathlib.Path,
    records: Iterable[tuple[SegmentEntry, bytes]],
) -> Segment | None:
    """Pack ``records`` into a new committed segment; None when empty.

    ``records`` pairs a metadata row (offset/length ignored — recomputed
    here) with the entry's exact bytes.  Rows are laid out sorted by
    hash, so identical entry sets always produce identical segments.
    The data file is renamed into place first, the index second: the
    index rename is the commit point.
    """
    from ..sim.distributed import _atomic_write

    ordered = sorted(records, key=lambda pair: pair[0].hash)
    if not ordered:
        return None
    segments_dir.mkdir(parents=True, exist_ok=True)
    id_ = uuid.uuid4().hex
    data_path = segment_data_path(segments_dir, id_)
    tmp = data_path.with_name(
        data_path.name + f".tmp-{os.getpid()}"
    )
    entries: dict[str, SegmentEntry] = {}
    offset = 0
    with tmp.open("wb") as fh:
        for meta, data in ordered:
            fh.write(data)
            entries[meta.hash] = replace(
                meta, offset=offset, length=len(data))
            offset += len(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, data_path)
    index = {
        "format": SEGMENT_INDEX_FORMAT,
        "version": SEGMENT_VERSION,
        "segment": data_path.name,
        "entries": [entries[h].to_row() for h in sorted(entries)],
    }
    _atomic_write(
        segment_index_path(segments_dir, id_),
        json.dumps(index, sort_keys=True) + "\n",
    )
    return Segment(id=id_, data_path=data_path, entries=entries)


def _load_index(segments_dir: pathlib.Path, id_: str) -> Segment:
    path = segment_index_path(segments_dir, id_)
    try:
        index = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(
            f"{path}: unreadable segment index ({exc}); the store "
            "directory is damaged — restore it or delete the "
            ".idx/.seg pair and recompact"
        ) from exc
    if not isinstance(index, dict) \
            or index.get("format") != SEGMENT_INDEX_FORMAT:
        raise ParameterError(
            f"{path}: not a {SEGMENT_INDEX_FORMAT} record; the store "
            "directory holds foreign files"
        )
    version = index.get("version")
    if version not in _ROW_FIELDS:
        raise ParameterError(
            f"{path}: unsupported segment version {version!r} (this "
            f"library reads versions {sorted(_ROW_FIELDS)})"
        )
    entries = {}
    for row in index.get("entries", ()):
        entry = SegmentEntry.from_row(row, version)
        entries[entry.hash] = entry
    return Segment(
        id=id_,
        data_path=segment_data_path(segments_dir, id_),
        entries=entries,
        version=version,
    )


def load_segments(segments_dir: pathlib.Path) -> Iterator[Segment]:
    """Every committed segment under ``segments_dir``, id-sorted.

    Only ``.idx`` files count (the commit markers); orphan ``.seg``
    files and in-flight temp files are invisible here.  A segment that
    vanishes between listing and load (a concurrent gc rewrite) is
    skipped — its replacement shows up on the caller's next scan.
    """
    try:
        names = sorted(os.listdir(segments_dir))
    except FileNotFoundError:
        return
    for name in names:
        if not name.endswith(".idx") or ".tmp-" in name:
            continue
        try:
            yield _load_index(segments_dir, name[:-4])
        except ParameterError as exc:
            if "unreadable segment index" in str(exc) \
                    and not segment_index_path(
                        segments_dir, name[:-4]).exists():
                continue  # concurrently rewritten; skip
            raise
