"""Segment files: the store's one entry layout.

A segment is an append-only data file holding entries' exact bytes back
to back, plus a hash index carrying each entry's offset, length,
publish stamp, queryable key fields and replica count: a lookup is one
in-memory index probe + one ``pread``, and ``stat``/``ls``/``query``
read no data at all.

Every publishing store instance owns one **writer** segment
(:class:`SegmentWriter`): a publish appends the entry's bytes to the
``.seg`` and rewrites the ``.idx`` by write-then-rename.  The index
rename is the commit point, for a publish exactly as for a rewrite:
bytes past the last committed row (a writer killed mid-append, a failed
write; a ``.seg`` with no ``.idx`` at all) are never served.  A writer
starts a fresh segment after :data:`WRITER_ROWS` rows, so the index a
publish rewrites stays bounded.

``store compact`` merges segments into one hash-sorted segment and
``gc`` drops rows from one, both by one rewrite order: commit the new
segment under a fresh id, then unlink the old pair, index first.  A
read holding the old data file open finishes on the unlinked inode; a
reader whose view still names the old pair re-scans and finds the
replacement.

Lock rule (the part that must never regress): a rewrite holds
``flock(LOCK_EX | LOCK_NB)`` on each source ``.seg`` for its whole
read–merge–unlink and skips any segment it cannot lock
(:func:`lock_segment`); it re-reads the index under the lock, so it
merges every row committed so far.  A writer takes the same lock only
around one append and its commit, and starts a fresh segment when its
``.seg`` is locked or already unlinked.  A lockable ``.seg`` without an
index is a dead writer's and is reclaimed, so a rewrite holds the lock
on the segment it writes until that segment's index commits.  No
committed row is ever lost, and no index ever points at missing data.

A rewrite copies rows byte for byte, so exports and warm re-runs are
byte-identical across compaction by construction.  Only version-2
indexes load; ``store verify`` names anything else.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import pathlib
import uuid
import weakref
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from ..errors import ParameterError

__all__ = [
    "SEGMENT_INDEX_FORMAT",
    "SEGMENT_VERSION",
    "COALESCE_GAP",
    "WRITER_ROWS",
    "SegmentEntry",
    "Segment",
    "SegmentWriter",
    "LockedSegment",
    "write_segment",
    "load_segments",
    "lock_segment",
    "segment_data_path",
    "segment_index_path",
]

SEGMENT_INDEX_FORMAT = "repro-store-segment-index"
#: Written and read version; readers skip unknown numbers (``store
#: verify`` names them), like every envelope in :mod:`repro.io`.
SEGMENT_VERSION = 2
_ROW_FIELDS = 12

#: Bulk reads merge two needed rows into one sequential read when the
#: unneeded hole between them is at most this many bytes (64 KiB ≈ a
#: couple of typical entries: cheaper to read through than to pay
#: another syscall + seek, on local disks and emphatically on NFS).
COALESCE_GAP = 64 * 1024

#: Scans :func:`load_segments` restarts when rewrites keep unlinking
#: indexes under it, before it settles for the last one.
SCAN_ATTEMPTS = 8

#: Rows a writer segment takes before its writer starts a fresh one:
#: every publish rewrites its segment's whole index, so this bounds
#: that rewrite (and the segments a store accumulates between
#: compactions is its publishes over this).
WRITER_ROWS = 64


class SegmentEntry(NamedTuple):
    """One index row: where an entry's bytes live, plus the queryable
    fields of its key (so ``ls``/``stat``/``query`` never read data).
    A tuple, because a store instance holds one per entry and builds
    every one of them when it first reads the indexes."""

    hash: str
    offset: int
    length: int
    #: Publish stamp (the data file's mtime right after the append, so
    #: the store filesystem's clock), carried through every rewrite —
    #: the clock ``gc`` ages against.
    mtime: float
    protocol: str | None
    M: float
    phi: float
    n: int
    seed: int | None
    trace_seed: int | None
    work_target: float
    #: Replicas the entry holds (its stored prefix length).
    replicas: int

    def to_row(self) -> list:
        return list(self)

    @classmethod
    def from_row(cls, row: list) -> "SegmentEntry":
        if not isinstance(row, list) or len(row) != _ROW_FIELDS:
            raise ParameterError(
                f"malformed segment index row: {row!r}"
            )
        hash_, offset, length, mtime, protocol, M, phi, n, seed, \
            trace_seed, work_target, replicas = row
        return cls(hash_, int(offset), int(length), float(mtime), protocol,
                   float(M), float(phi), int(n), seed, trace_seed,
                   float(work_target), int(replicas))


@dataclass(frozen=True)
class Segment:
    """A committed segment: its data path plus the decoded index."""

    id: str
    data_path: pathlib.Path
    #: Index rows by hash — the in-memory probe a warm lookup does.
    entries: dict[str, SegmentEntry]
    #: ``(inode, mtime_ns, size)`` of the index file these rows were
    #: read from (empty for a writer's in-memory view): a re-scan
    #: reuses the rows while the file is unchanged.
    signature: tuple = ()

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

        Returns ``{hash: bytes}``; rows that read torn (a concurrent
        rewrite unlinked the data file mid-stream) are *omitted*, and
        the caller falls back to the per-cell lookup, which re-scans.
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


def _write_index(segments_dir: pathlib.Path, id_: str,
                 rows: Iterable[SegmentEntry]) -> None:
    """Commit a segment's index: write-then-rename, rows hash-sorted."""
    from ..sim.distributed import _atomic_write

    index = {
        "format": SEGMENT_INDEX_FORMAT,
        "version": SEGMENT_VERSION,
        "segment": segment_data_path(segments_dir, id_).name,
        "entries": [row.to_row()
                    for row in sorted(rows, key=lambda r: r.hash)],
    }
    _atomic_write(segment_index_path(segments_dir, id_),
                  json.dumps(index, sort_keys=True) + "\n")


def write_segment(
    segments_dir: pathlib.Path,
    records: Iterable[tuple[SegmentEntry, bytes]],
) -> Segment | None:
    """Pack ``records`` into a new committed segment; None when empty.

    ``records`` pairs a metadata row (offset/length ignored — recomputed
    here) with the entry's exact bytes, in the order they are laid out
    (a rewrite streams them hash-sorted, so identical entry sets always
    produce identical segments).  The data file is written, fsynced and
    renamed into place first, the index second: the index rename is the
    commit point.
    """
    id_ = uuid.uuid4().hex
    data_path = segment_data_path(segments_dir, id_)
    tmp = data_path.with_name(data_path.name + f".tmp-{os.getpid()}")
    entries: dict[str, SegmentEntry] = {}
    offset = 0
    with tmp.open("wb") as fh:
        # Locked until the index commits, so a compaction never takes
        # the renamed data file for a dead writer's (see lock_segment).
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        for meta, data in records:
            fh.write(data)
            entries[meta.hash] = meta._replace(offset=offset,
                                               length=len(data))
            offset += len(data)
        fh.flush()
        os.fsync(fh.fileno())
        if not entries:
            tmp.unlink()
            return None
        os.replace(tmp, data_path)
        _write_index(segments_dir, id_, entries.values())
    return Segment(id=id_, data_path=data_path, entries=entries)


class SegmentWriter:
    """One process's writer segment: appends entries, commits each by
    rewriting the index (see the module docstring's lock rule).

    Not thread-safe on its own: the store serialises its writer under
    one lock.  ``pid`` records the creating process, so a forked child
    can tell the segment is its parent's.
    """

    def __init__(self, segments_dir: pathlib.Path):
        segments_dir.mkdir(parents=True, exist_ok=True)
        self.segments_dir = segments_dir
        self.pid = os.getpid()
        id_ = uuid.uuid4().hex
        self.segment = Segment(id=id_, entries={},
                               data_path=segment_data_path(segments_dir,
                                                           id_))
        self._fd = os.open(
            self.segment.data_path,
            os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        #: Closes the descriptor once: on :meth:`close`, or when a
        #: store that never closed its writer is collected.
        self.close = weakref.finalize(self, os.close, self._fd)

    @property
    def full(self) -> bool:
        return len(self.segment.entries) >= WRITER_ROWS

    def append(self, meta: SegmentEntry, data: bytes) -> SegmentEntry | None:
        """Append ``data`` and commit its row (``meta`` with its offset,
        length and publish stamp filled in); returns the committed row.

        ``None`` when a rewrite holds or has unlinked this segment: the
        caller starts a fresh writer.  A write error raises
        :class:`OSError` before the commit, leaving only an invisible
        tail.
        """
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return None
        try:
            before = os.fstat(self._fd)
            if before.st_nlink == 0:
                return None
            if os.write(self._fd, data) != len(data):
                raise OSError(errno.ENOSPC, "short write",
                              str(self.segment.data_path))
            row = meta._replace(offset=before.st_size, length=len(data),
                                mtime=os.fstat(self._fd).st_mtime)
            rows = dict(self.segment.entries)
            rows[row.hash] = row
            _write_index(self.segments_dir, self.segment.id, rows.values())
            self.segment.entries[row.hash] = row
            return row
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)


def _signature(st: os.stat_result) -> tuple:
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _load_index(segments_dir: pathlib.Path, id_: str) -> Segment:
    path = segment_index_path(segments_dir, id_)
    try:
        with path.open("rb") as fh:
            signature = _signature(os.fstat(fh.fileno()))
            index = json.loads(fh.read())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ParameterError(
            f"{path}: unreadable segment index ({exc})") from exc
    if not isinstance(index, dict) \
            or index.get("format") != SEGMENT_INDEX_FORMAT:
        raise ParameterError(
            f"{path}: not a {SEGMENT_INDEX_FORMAT} record")
    version = index.get("version")
    if version != SEGMENT_VERSION:
        raise ParameterError(
            f"{path}: unsupported segment version {version!r} (this "
            f"library reads version {SEGMENT_VERSION})"
        )
    entries = {}
    for row in index.get("entries", ()):
        entry = SegmentEntry.from_row(row)
        entries[entry.hash] = entry
    return Segment(
        id=id_,
        data_path=segment_data_path(segments_dir, id_),
        entries=entries,
        signature=signature,
    )


def load_segments(segments_dir: pathlib.Path,
                  known: dict[str, Segment] | None = None) -> list[Segment]:
    """Every committed version-2 segment under ``segments_dir``,
    id-sorted.

    Only ``.idx`` files count (the commit markers); uncommitted ``.seg``
    files, in-flight temp files and indexes that do not load (another
    version, a foreign file) are invisible here.  A segment in
    ``known`` (a previous scan) whose index file is unchanged — same
    inode, mtime and size; every commit renames a fresh inode into
    place — is reused rather than re-read, so a re-scan costs one
    ``stat`` per unchanged segment.  An index a concurrent rewrite unlinks between listing
    and load restarts the scan: the rewrite committed its replacement
    first, so the next listing holds every row the vanished one did.
    """
    known = known or {}
    base = os.fspath(segments_dir)
    for _ in range(SCAN_ATTEMPTS):
        try:
            names = sorted(os.listdir(segments_dir))
        except FileNotFoundError:
            return []
        segments, vanished = [], False
        for name in names:
            if not name.endswith(".idx") or ".tmp-" in name:
                continue
            id_ = name[:-4]
            try:
                previous = known.get(id_)
                if previous is not None and previous.signature == \
                        _signature(os.stat(f"{base}/{name}")):
                    segments.append(previous)
                else:
                    segments.append(_load_index(segments_dir, id_))
            except FileNotFoundError:
                vanished = True  # rewritten under us: scan again
            except (OSError, ParameterError):
                continue
        if not vanished:
            return segments
    return segments


@dataclass(frozen=True)
class LockedSegment:
    """A segment whose data file this process holds under an exclusive
    ``flock``: its index as re-read under the lock (no rows when it was
    never committed) and the locked descriptor, which reads the very
    inode the index describes."""

    segment: Segment
    fd: int

    def unlink(self) -> None:
        """Remove the pair, index first (the lock is still held)."""
        for path in (segment_index_path(self.segment.data_path.parent,
                                        self.segment.id),
                     self.segment.data_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def release(self) -> None:
        os.close(self.fd)


def lock_segment(segments_dir: pathlib.Path,
                 id_: str) -> LockedSegment | None:
    """Take segment ``id_``'s lock without blocking, or ``None`` when
    another process holds it, the pair is gone, or its index does not
    load as version 2 (never ours to rewrite)."""
    try:
        fd = os.open(segment_data_path(segments_dir, id_), os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if os.fstat(fd).st_nlink == 0:
            raise FileNotFoundError(id_)
        try:
            segment = _load_index(segments_dir, id_)
        except FileNotFoundError:
            # Never committed: a dead writer's data, or a live writer
            # that has not locked it yet (it will find it unlinked and
            # roll).  A rewrite holds its new data file's lock until its
            # index commits, so it is never mistaken for one.
            segment = Segment(id=id_, entries={},
                              data_path=segment_data_path(segments_dir,
                                                          id_))
    except (OSError, ParameterError):
        os.close(fd)
        return None
    return LockedSegment(segment, fd)
