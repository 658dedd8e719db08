"""Fleet-scale store layer: writer segments, compaction, hot-cell cache.

The contracts under test, in order of importance:

* **Transparency** — compaction changes *where* bytes live, never which
  bytes a lookup serves: warm runs and exports are byte-identical
  before and after ``store compact``, and adversarial interleavings
  (writers, a compactor and ``gc`` in separate OS processes, writers
  killed mid-publish) never lose a committed entry.
* **One append path** — every publish appends to its writer's own
  segment and commits by an index rename; the writer rolls to a fresh
  segment after a fixed row count, a write error, a fork, or when a
  rewrite holds or removed its segment, and bytes past the last
  committed row are never served.
* **Retention** — ``gc`` ages and pins entries by the publish stamp in
  their index row, including the clock-skew clamp, and evicts by
  atomic rewrite; lookups never refresh a stamp.
* **Cache honesty** — the in-process hot-cell cache serves re-reads
  without disk I/O but still refuses corruption: a poisoned cached
  entry falls back to the (verified) disk copy, and disk corruption is
  caught on first read because publishes never pre-warm the cache.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import ParameterError
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec, plan_cells
from repro.sim.spec import CampaignSpec, ExecutionPolicy
from repro.store import (
    CampaignStore,
    HotCellCache,
    cell_key,
    configure_cache,
    default_cache,
    key_hash,
)
from repro.store.cache import DEFAULT_CACHE_BYTES, CachedEntry, cache_key
from repro.store.segments import load_segments, write_segment
from tests.conftest import (
    read_entry,
    rewrite_entry,
    stamp_entries,
    store_rows,
)


def make_spec(*, m_values=(300.0, 600.0), replicas=2, seed=2027,
              policy=None) -> CampaignSpec:
    grid = CampaignConfig(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=m_values,
        phi_values=(1.0,),
        work_target=900.0,
        replicas=replicas,
        seed=seed,
    )
    return CampaignSpec(grid=grid, policy=policy or ExecutionPolicy())


def all_keys(spec: CampaignSpec) -> list[dict]:
    return [cell_key(spec.grid, plan) for plan in plan_cells(spec.grid)]


def populate(tmp_path, *, seed=2027) -> tuple[CampaignSpec, pathlib.Path]:
    """Run a small campaign into a fresh store; 4 cell entries of 2
    replicas each."""
    spec = make_spec(seed=seed)
    store_dir = tmp_path / "store"
    execute_spec(spec, results_path=tmp_path / f"cold-{seed}.jsonl",
                 store=store_dir)
    return spec, store_dir


def dump(results) -> list[str]:
    from repro import io as repro_io

    return [repro_io.dump_result(r) for r in results]


def segment_files(store_dir: pathlib.Path) -> list[str]:
    return sorted(os.listdir(store_dir / "segments"))


#: The synthetic entries the writer tests publish: the shape of a real
#: cell key, varying only the seed, each holding the same two replicas.
_SYNTHETIC = textwrap.dedent("""\
    from repro.io import dump_result
    from repro.sim.results import DesResult

    RECORDS = (dump_result(DesResult(
        status="success", makespan=1000.0, work_target=900.0,
        work_done=900.0, failures=1, rollbacks=1, work_lost=10.0,
        commits=9, risk_time=100.0,
    )),) * 2


    def synthetic_key(seed):
        return {
            "format": "repro-store-entry", "version": 2,
            "protocol": "double-nbl", "phi": 1.0, "work_target": 900.0,
            "max_time": None, "params": {"M": 600.0, "n": 12},
            "distribution": None, "seed": seed, "trace_seed": None,
        }
""")
_synthetic: dict = {}
exec(_SYNTHETIC, _synthetic)
RECORDS, synthetic_key = _synthetic["RECORDS"], _synthetic["synthetic_key"]


def sizes(store_dir: pathlib.Path) -> dict[str, int]:
    """Data-file size of every segment, committed or not, by id."""
    return {path.stem: path.stat().st_size
            for path in (store_dir / "segments").glob("*.seg")}


def committed_bytes(store_dir: pathlib.Path) -> int:
    return sum(data_bytes(segment)
               for segment in load_segments(store_dir / "segments"))


def data_bytes(segment) -> int:
    """Committed data bytes of one segment (its rows' lengths)."""
    return sum(row.length for row in segment.entries.values())


class TestCompaction:
    def test_compact_packs_everything_and_lookups_survive(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        before = {key_hash(k): dump(store.lookup(k)) for k in all_keys(spec)}

        report = store.compact()
        assert report.packed_entries == 4
        assert report.merged_segments == 1
        assert report.segment_id is not None
        assert (report.segments_total, report.entries_total) == (1, 4)
        assert report.reclaimed_bytes == 0
        assert not report.corrupt and not report.locked_segments
        assert "packed 4 entries" in report.describe()
        assert segment_files(store_dir) == [f"{report.segment_id}.idx",
                                            f"{report.segment_id}.seg"]

        # Every lookup now resolves through the new segment,
        # byte-for-byte ...
        for key in all_keys(spec):
            assert dump(store.lookup(key)) == before[key_hash(key)]
        # ... including from a store object that never saw the compaction.
        fresh = CampaignStore(store_dir, cache=None)
        for key in all_keys(spec):
            assert dump(fresh.lookup(key)) == before[key_hash(key)]

    def test_stat_and_entries_keep_their_metadata(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        assert (store.stat().entries, store.stat().segments) == (4, 1)
        meta = {
            (e.hash, e.protocol, e.M, e.phi, e.n, e.seed, e.work_target,
             e.size, e.mtime, e.replicas)
            for e in store.entries()
        }

        store.compact()
        stat = store.stat()
        assert (stat.entries, stat.segments) == (4, 1)
        assert stat.describe().startswith("4 entries")
        assert "in 1 segment(s)" in stat.describe()
        # The queryable metadata is identical, served from the index
        # alone — publish stamps included.
        assert {
            (e.hash, e.protocol, e.M, e.phi, e.n, e.seed, e.work_target,
             e.size, e.mtime, e.replicas)
            for e in store.entries()
        } == meta
        assert len(list(store.query(protocol="double-nbl"))) == 2

    def test_dry_run_changes_nothing(self, tmp_path):
        _, store_dir = populate(tmp_path)
        files = segment_files(store_dir)
        store = CampaignStore(store_dir, cache=None)
        report = store.compact(dry_run=True)
        assert report.dry_run and report.packed_entries == 4
        assert report.segment_id is None
        assert "would pack" in report.describe()
        assert segment_files(store_dir) == files

    def test_compaction_merges_every_segment(self, tmp_path):
        spec_a, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        # A second campaign publishes 4 new entries into its own writer
        # segment; compaction merges both into one.
        spec_b, _ = populate(tmp_path, seed=999)
        assert store.stat().segments == 2
        report = store.compact()
        assert (report.merged_segments, report.packed_entries) == (2, 8)
        assert report.segments_total == 1
        stat = store.stat()
        assert stat.entries == 8 and stat.segments == 1
        for key in all_keys(spec_a) + all_keys(spec_b):
            assert store.lookup(key) is not None
        # Identical entry sets make identical segments: a second pass
        # writes the same bytes under a fresh id.
        (first,) = load_segments(store_dir / "segments")
        first_bytes = first.data_path.read_bytes()
        report = store.compact()
        assert (report.merged_segments, report.packed_entries) == (1, 8)
        (second,) = load_segments(store_dir / "segments")
        assert second.id != first.id
        assert second.data_path.read_bytes() == first_bytes
        assert second.entries == first.entries

    def test_corrupt_row_is_dropped_and_reported(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        victim = all_keys(spec)[0]
        rewrite_entry(store_dir, key_hash(victim), b"garbage\n")
        store = CampaignStore(store_dir, cache=None)
        report = store.compact()
        assert report.packed_entries == 3
        assert len(report.corrupt) == 1 and ".seg@" in report.corrupt[0]
        assert "corrupt row(s) dropped" in report.describe()
        # Never baked into the merged segment: the cell now misses (and
        # recomputes), and what is left verifies clean.
        assert store.lookup(victim) is None
        assert store.verify().ok and store.stat().entries == 3

    def test_duplicate_copy_is_dropped(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        (segment,) = load_segments(store_dir / "segments")
        copy = [(row, segment.read(row))
                for _, row in sorted(segment.entries.items())]
        write_segment(store_dir / "segments", copy)
        # Listed once, as the copy in the lower segment id.
        assert store.stat().entries == 4
        report = store.compact()
        assert (report.merged_segments, report.packed_entries) == (2, 4)
        assert report.reclaimed_bytes == data_bytes(segment)
        assert store.stat().segments == 1


def many_segments(store_dir: pathlib.Path, count: int,
                  monkeypatch) -> None:
    """``count`` one-entry writer segments (a writer that rolls after
    every row), seeds ``0 .. count - 1``."""
    from repro.store import segments

    with monkeypatch.context() as patch:
        patch.setattr(segments, "WRITER_ROWS", 1)
        store = CampaignStore(store_dir, cache=None)
        for seed in range(count):
            store.publish(synthetic_key(seed), RECORDS)
        store._drop_writer()


#: Compacts the store at argv[1] with the soft descriptor limit lowered
#: to argv[2].
_COMPACTOR_AT_FD_LIMIT = textwrap.dedent("""\
    import json, resource, sys
    from repro.store import CampaignStore

    store = CampaignStore(sys.argv[1], cache=None)
    resource.setrlimit(resource.RLIMIT_NOFILE,
                       (int(sys.argv[2]),
                        resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
    report = store.compact()
    print(json.dumps([report.merged_segments, report.packed_entries,
                      report.segments_total, report.locked_segments]))
""")


class TestCompactionRounds:
    """More segments than one rewrite may hold open: merged in rounds."""

    def test_rounds_merge_to_one_segment(self, tmp_path, monkeypatch):
        from repro.store import store as store_module

        store_dir = tmp_path / "store"
        many_segments(store_dir, 10, monkeypatch)
        # A longer copy of seed 0 in a later segment, and an equal copy
        # of seed 1: the longest wins, and equals are packed once.
        store = CampaignStore(store_dir, cache=None)
        store.publish(synthetic_key(0), RECORDS * 2)
        path, row = store_rows(store_dir)[key_hash(synthetic_key(1))]
        (segment,) = [s for s in load_segments(store_dir / "segments")
                      if s.data_path == path]
        write_segment(store_dir / "segments", [(row, segment.read(row))])
        store._drop_writer()
        before = {seed: dump(store.lookup(synthetic_key(seed)))
                  for seed in range(10)}
        total = sum(sizes(store_dir).values())

        monkeypatch.setattr(store_module, "_REWRITE_FANIN", 3)
        report = store.compact()
        assert report.merged_segments == 12
        assert (report.packed_entries, report.segments_total) == (10, 1)
        assert report.reclaimed_bytes == total - report.packed_bytes
        (merged,) = load_segments(store_dir / "segments")
        assert merged.id == report.segment_id
        assert merged.entries[key_hash(synthetic_key(0))].replicas == 4
        assert sum(sizes(store_dir).values()) == report.packed_bytes
        fresh = CampaignStore(store_dir, cache=None)
        for seed in range(10):
            assert dump(fresh.lookup(synthetic_key(seed))) == before[seed]
        assert fresh.verify().ok

    def test_dry_run_in_rounds_reports_the_merge(self, tmp_path,
                                                  monkeypatch):
        from repro.store import store as store_module

        store_dir = tmp_path / "store"
        many_segments(store_dir, 7, monkeypatch)
        files = segment_files(store_dir)
        monkeypatch.setattr(store_module, "_REWRITE_FANIN", 2)
        report = CampaignStore(store_dir, cache=None).compact(dry_run=True)
        assert (report.merged_segments, report.packed_entries) == (7, 7)
        assert report.reclaimed_bytes == 0 and report.segment_id is None
        assert segment_files(store_dir) == files

    def test_failed_locking_releases_every_lock(self, tmp_path,
                                                monkeypatch):
        import errno
        import fcntl

        from repro.store import store as store_module

        store_dir = tmp_path / "store"
        many_segments(store_dir, 5, monkeypatch)
        real_lock, calls = store_module.lock_segment, []

        def exhausted_on_third(segments_dir, id_):
            calls.append(id_)
            if len(calls) == 3:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_lock(segments_dir, id_)

        monkeypatch.setattr(store_module, "lock_segment", exhausted_on_third)
        with pytest.raises(OSError):
            CampaignStore(store_dir, cache=None).compact()
        for path in (store_dir / "segments").glob("*.seg"):
            fd = os.open(path, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        assert len(segment_files(store_dir)) == 10  # nothing rewritten

    def test_compacts_more_segments_than_the_descriptor_limit(
            self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        many_segments(store_dir, 100, monkeypatch)
        proc = _spawn(_COMPACTOR_AT_FD_LIMIT, store_dir, 64)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out) == [100, 100, 1, 0]
        store = CampaignStore(store_dir, cache=None)
        assert store.verify().ok and store.stat().entries == 100
        assert len(segment_files(store_dir)) == 2


class TestWriterSegments:
    """The one publish path: appends to the instance's own segment."""

    def test_fresh_store_has_no_objects_tree(self, tmp_path):
        CampaignStore(tmp_path / "store")
        assert sorted(os.listdir(tmp_path / "store")) \
            == ["segments", "store.json"]
        _, store_dir = populate(tmp_path)
        assert not (store_dir / "objects").exists()

    def test_each_publishing_instance_owns_one_segment(self, tmp_path):
        a = CampaignStore(tmp_path / "store", cache=None)
        b = CampaignStore(tmp_path / "store", cache=None)
        for seed in range(3):
            assert a.publish(synthetic_key(seed), RECORDS)
            assert b.publish(synthetic_key(100 + seed), RECORDS)
        segments = load_segments(tmp_path / "store" / "segments")
        assert sorted(len(s.entries) for s in segments) == [3, 3]
        # Each sees the other's entries after a re-scan, and a copy at
        # least as long is never published twice.
        assert a.lookup(synthetic_key(100)) is not None
        assert not a.publish(synthetic_key(100), RECORDS)
        assert a.verify().ok

    def test_index_bytes_are_canonical_json(self, tmp_path):
        """A writer's commit and a rewrite write the same index bytes:
        the index document as ``json.dumps(..., sort_keys=True)``."""
        store = CampaignStore(tmp_path / "store", cache=None)
        for seed in (3, 1, 2):
            store.publish(synthetic_key(seed), RECORDS)

        def canonical():
            (idx,) = (tmp_path / "store" / "segments").glob("*.idx")
            text = idx.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
            return json.loads(text)["entries"]

        written = canonical()
        store.compact()
        assert [row[0] for row in canonical()] \
            == [row[0] for row in written] == sorted(
                key_hash(synthetic_key(seed)) for seed in (1, 2, 3))

    def test_rescan_rereads_only_changed_indexes(self, tmp_path,
                                                 monkeypatch):
        from repro.store import segments

        a = CampaignStore(tmp_path / "store", cache=None)
        b = CampaignStore(tmp_path / "store", cache=None)
        a.publish(synthetic_key(0), RECORDS)
        b.publish(synthetic_key(1), RECORDS)
        reads = []
        load = segments._load_index
        monkeypatch.setattr(segments, "_load_index",
                            lambda d, id_: reads.append(id_) or load(d, id_))
        a._refresh_segments()
        b.publish(synthetic_key(2), RECORDS)
        reads.clear()
        a._refresh_segments()
        assert reads == [b._writer.segment.id]  # the one that changed
        reads.clear()
        a._refresh_segments()
        assert reads == []
        assert a.lookup(synthetic_key(2)) is not None

    def test_probe_map_follows_longest_then_lowest_id(self, tmp_path):
        """The incremental map update resolves copies exactly as a full
        rebuild: longest first, the lowest segment id among equals."""
        store_dir = tmp_path / "store"
        a = CampaignStore(store_dir, cache=None)
        a.publish(synthetic_key(0), RECORDS)
        a.lookup(synthetic_key(0))  # a's view is now loaded
        (segment,) = load_segments(store_dir / "segments")
        row = segment.entries[key_hash(synthetic_key(0))]
        for _ in range(4):  # equal copies under random ids
            write_segment(store_dir / "segments", [(row, segment.read(row))])
        b = CampaignStore(store_dir, cache=None)
        b.publish(synthetic_key(0), RECORDS * 2)
        c = CampaignStore(store_dir, cache=None)
        c.publish(synthetic_key(1), RECORDS)
        a._refresh_segments()
        rebuilt = CampaignStore(store_dir, cache=None)
        rebuilt._refresh_segments()
        assert a._segment_map == rebuilt._segment_map
        assert a._segment_map[key_hash(synthetic_key(0))] \
            == b._writer.segment.id
        # A removal (the longest copy's segment, gc'd) rebuilds the map.
        b.gc(max_bytes=0, pin_specs=())
        assert a.lookup(synthetic_key(0)) is None
        assert a._segment_map == {}

    def test_writer_rolls_after_writer_rows(self, tmp_path, monkeypatch):
        from repro.store import segments

        monkeypatch.setattr(segments, "WRITER_ROWS", 3)
        store = CampaignStore(tmp_path / "store", cache=None)
        for seed in range(7):
            store.publish(synthetic_key(seed), RECORDS)
        assert sorted(len(s.entries) for s in load_segments(
            tmp_path / "store" / "segments")) == [1, 3, 3]
        assert store.stat().entries == 7

    def test_writer_rolls_when_its_segment_is_locked(self, tmp_path):
        import fcntl

        store = CampaignStore(tmp_path / "store", cache=None)
        store.publish(synthetic_key(0), RECORDS)
        (held,) = (tmp_path / "store" / "segments").glob("*.seg")
        fd = os.open(held, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            store.publish(synthetic_key(1), RECORDS)
        finally:
            os.close(fd)
        store.publish(synthetic_key(2), RECORDS)
        segments = load_segments(tmp_path / "store" / "segments")
        assert sorted(len(s.entries) for s in segments) == [1, 2]
        assert {len(s.entries) for s in segments
                if s.data_path == held} == {1}
        assert store.verify().ok

    def test_writer_rolls_after_compaction_took_its_segment(self, tmp_path):
        store = CampaignStore(tmp_path / "store", cache=None)
        for seed in range(2):
            store.publish(synthetic_key(seed), RECORDS)
        report = store.compact()  # merges (and unlinks) our own segment
        store.publish(synthetic_key(2), RECORDS)
        segments = load_segments(tmp_path / "store" / "segments")
        assert sorted(len(s.entries) for s in segments) == [1, 2]
        assert report.segment_id in {s.id for s in segments}
        for seed in range(3):
            assert store.lookup(synthetic_key(seed)) is not None
        assert store.compact().segments_total == 1
        assert store.verify().ok

    def test_write_error_rolls_and_leaves_an_invisible_tail(
            self, tmp_path, monkeypatch):
        from repro.store import segments

        store = CampaignStore(tmp_path / "store", cache=None)
        store.publish(synthetic_key(0), RECORDS)
        real_write = os.write

        def half_then_full(fd, data):
            real_write(fd, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(segments.os, "write", half_then_full)
        with pytest.raises(OSError):
            store.publish(synthetic_key(1), RECORDS)
        monkeypatch.setattr(segments.os, "write", real_write)
        store.publish(synthetic_key(2), RECORDS)

        store_dir = tmp_path / "store"
        assert sorted(len(s.entries) for s in load_segments(
            store_dir / "segments")) == [1, 1]
        assert store.lookup(synthetic_key(1)) is None
        assert store.verify().ok
        torn = sum(sizes(store_dir).values()) - committed_bytes(store_dir)
        assert torn > 0
        report = store.compact()
        assert report.reclaimed_bytes == torn
        assert sum(sizes(store_dir).values()) == committed_bytes(store_dir)

    def test_writer_rolls_when_the_pid_changes(self, tmp_path,
                                              monkeypatch):
        """A forked child inherits the instance and its writer segment:
        it must not append to its parent's, so a pid change rolls."""
        store = CampaignStore(tmp_path / "store", cache=None)
        store.publish(synthetic_key(0), RECORDS)
        parent = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent + 1)
        store.publish(synthetic_key(1), RECORDS)
        store.publish(synthetic_key(2), RECORDS)
        segments = load_segments(tmp_path / "store" / "segments")
        assert sorted(len(s.entries) for s in segments) == [1, 2]
        for seed in range(3):
            assert store.lookup(synthetic_key(seed)) is not None
        assert store.verify().ok


class TestByteIdentity:
    def test_export_identical_before_and_after_compaction(self, tmp_path):
        """The acceptance criterion: compaction must be invisible in
        every emitted byte."""
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.export(spec, tmp_path / "pre.jsonl")
        store.compact()
        store.export(spec, tmp_path / "post.jsonl")
        assert (tmp_path / "pre.jsonl").read_bytes() \
            == (tmp_path / "post.jsonl").read_bytes()
        assert (tmp_path / "pre.jsonl.manifest").read_bytes() \
            == (tmp_path / "post.jsonl.manifest").read_bytes()

    def test_warm_rerun_from_compacted_store_is_byte_identical(
            self, tmp_path):
        spec, store_dir = populate(tmp_path)
        CampaignStore(store_dir, cache=None).compact()
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            store=store_dir)
        assert warm.report.cells_run == 0
        assert warm.report.cells_cached == 4
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "cold-2027.jsonl").read_bytes()


class TestBulkReads:
    """Segment-aware footprint staging: few sequential reads, same bytes."""

    def test_read_many_coalesces_into_sequential_spans(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        (segment,) = load_segments(store_dir / "segments")
        rows = list(segment.entries.values())
        reads = []
        real_pread = os.pread

        def counting_pread(fd, length, offset):
            reads.append((offset, length))
            return real_pread(fd, length, offset)

        # Adjacent rows coalesce: the whole segment streams in one read.
        os.pread = counting_pread
        try:
            data = segment.read_many(rows)
        finally:
            os.pread = real_pread
        assert len(reads) == 1
        assert reads[0] == (0, data_bytes(segment))
        # Per-row bytes are exactly what the per-entry path serves.
        assert set(data) == set(segment.entries)
        for row in rows:
            assert data[row.hash] == segment.read(row)
        # gap=-1 forbids coalescing: one read per row, same bytes.
        os.pread = counting_pread
        reads.clear()
        try:
            sparse = segment.read_many(rows, gap=-1)
        finally:
            os.pread = real_pread
        assert len(reads) == len(rows)
        assert sparse == data

    def test_read_many_omits_torn_rows(self, tmp_path):
        from repro.store.segments import SegmentEntry

        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        (segment,) = load_segments(store_dir / "segments")
        good = next(iter(segment.entries.values()))
        torn = SegmentEntry(
            hash="deadbeef", offset=data_bytes(segment), length=64,
            mtime=good.mtime, protocol=good.protocol, M=good.M,
            phi=good.phi, n=good.n, seed=good.seed,
            trace_seed=good.trace_seed, work_target=good.work_target,
            replicas=good.replicas,
        )
        data = segment.read_many([good, torn])
        assert good.hash in data and "deadbeef" not in data
        # A vanished data file (a concurrent rewrite) is an empty
        # result, not an exception — the caller's re-scan recovers.
        segment.data_path.unlink()
        assert segment.read_many([good]) == {}

    def test_preload_stages_footprint_into_cache(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        CampaignStore(store_dir, cache=None).compact()
        store = CampaignStore(store_dir, cache=HotCellCache())
        keys = all_keys(spec)
        assert store.preload(keys) == len(keys)
        # Staged entries are verified and complete: lookups succeed
        # purely from memory, even with the segment files gone.
        for path in (store_dir / "segments").iterdir():
            path.unlink()
        for key in keys:
            assert store.lookup(key) is not None
        # Re-priming a warm cache stages nothing (peek, not get: the
        # sweep must not inflate the hit counters).
        hits_before = store.cache_stats().hits
        assert store.preload(keys) == 0
        assert store.cache_stats().hits == hits_before

    def test_export_from_segments_is_cache_served_and_identical(
            self, tmp_path):
        spec, store_dir = populate(tmp_path)
        CampaignStore(store_dir, cache=None).export(
            spec, tmp_path / "written.jsonl"
        )
        CampaignStore(store_dir, cache=None).compact()
        store = CampaignStore(store_dir, cache=HotCellCache())
        report = store.export(spec, tmp_path / "bulk.jsonl")
        assert report.frames == len(all_keys(spec)) * spec.grid.replicas
        assert (tmp_path / "bulk.jsonl").read_bytes() \
            == (tmp_path / "written.jsonl").read_bytes()
        stats = store.cache_stats()
        assert stats.entries == len(all_keys(spec))
        assert stats.misses == 0  # every read was staged first


class TestVerifySegments:
    def test_verify_covers_segment_entries(self, tmp_path):
        _, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        report = store.verify()
        assert report.ok and report.checked == 4
        assert "no corruption" in report.describe()
        assert (report.stat.entries, report.stat.segments) == (4, 1)

    def test_uncommitted_bytes_are_not_errors(self, tmp_path):
        """Bytes past the last committed row and a .seg never committed
        are invisible to readers, so not corruption; verify does name a
        file that is not a store segment."""
        _, store_dir = populate(tmp_path)
        (seg,) = (store_dir / "segments").glob("*.seg")
        with seg.open("ab") as fh:
            fh.write(b"torn tail")
        (store_dir / "segments" / "f00d.seg").write_bytes(b"uncommitted")
        assert CampaignStore(store_dir, cache=None).verify().ok
        stray = store_dir / "segments" / "notes.txt"
        stray.write_text("hello")
        report = CampaignStore(store_dir, cache=None).verify()
        assert report.errors == (f"{stray}: unknown file in a results "
                                 "store, never served; delete it",)

    def test_flipped_segment_bytes_are_refused(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        seg = next((store_dir / "segments").glob("*.seg"))
        data = bytearray(seg.read_bytes())
        data[len(data) // 2] ^= 0xFF
        seg.write_bytes(bytes(data))
        report = CampaignStore(store_dir, cache=None).verify()
        assert not report.ok
        assert any(".seg@" in err for err in report.errors)
        # And the poisoned entry is refused at lookup, not served.
        victims = 0
        for key in all_keys(spec):
            try:
                CampaignStore(store_dir, cache=None).lookup(key)
            except ParameterError:
                victims += 1
        assert victims >= 1

    def test_tampered_index_row_is_refused(self, tmp_path):
        _, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        idx = next((store_dir / "segments").glob("*.idx"))
        index = json.loads(idx.read_text())
        index["entries"][0][4] = "not-a-protocol"
        idx.write_text(json.dumps(index) + "\n")
        report = CampaignStore(store_dir, cache=None).verify()
        assert not report.ok
        assert "index row disagrees" in report.errors[0]


class TestLeftoverLooseFile:
    def test_loose_entry_is_a_miss_and_verify_names_it(self, tmp_path):
        """An entry in the loose ``objects/`` layout of an older store is
        never served: its cell recomputes (byte-identically) into a
        segment, and verify names the file until it is deleted."""
        spec, store_dir = populate(tmp_path)
        key = all_keys(spec)[0]
        hash_ = key_hash(key)
        loose = store_dir / "objects" / hash_[:2] / f"{hash_}.json"
        loose.parent.mkdir(parents=True)
        loose.write_bytes(read_entry(store_dir, hash_))
        (idx,) = (store_dir / "segments").glob("*.idx")
        index = json.loads(idx.read_text())
        index["entries"] = [r for r in index["entries"] if r[0] != hash_]
        idx.write_text(json.dumps(index) + "\n")
        store = CampaignStore(store_dir, cache=None)
        assert store.lookup(key) is None
        report = store.verify()
        assert report.checked == 4 and len(report.errors) == 1
        assert report.errors[0].startswith(f"{loose}: ")
        assert "never served" in report.errors[0]
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            store=store_dir)
        assert (warm.report.cells_cached, warm.report.cells_run) == (3, 1)
        assert (tmp_path / "warm.jsonl").read_bytes() == \
            (tmp_path / "cold-2027.jsonl").read_bytes()
        assert loose.exists() and store.lookup(key) is not None
        loose.unlink()
        assert store.verify().ok


class TestGcSegments:
    def test_max_age_evicts_segment_entries_by_recorded_mtime(
            self, tmp_path):
        spec, store_dir = populate(tmp_path)
        # Age the first campaign's entries *before* compaction: the
        # merged segment carries their stamps over.
        stamp_entries(store_dir, 1_000_000.0)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        spec_b, _ = populate(tmp_path, seed=999)

        now = max(e.mtime for e in store.entries())
        report = store.gc(max_age=3600.0, now=now)
        assert report.evicted_entries == 4
        assert store.stat().entries == 4
        for key in all_keys(spec):
            assert store.lookup(key) is None
        for key in all_keys(spec_b):
            assert store.lookup(key) is not None
        # The aged-out segment was removed outright, the fresh one kept.
        assert len(load_segments(store_dir / "segments")) == 1
        assert store.verify().ok

    def test_lookups_do_not_refresh_the_stamp(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        stamp_entries(store_dir, 1_000_000.0)
        store = CampaignStore(store_dir, cache=None)
        for key in all_keys(spec):
            assert store.lookup(key) is not None
        assert {e.mtime for e in store.entries()} == {1_000_000.0}
        assert store.gc(max_age=3600.0).evicted_entries == 4

    def test_clock_skew_cannot_age_segment_entries(self, tmp_path):
        """The PR 6 clamped-age guarantee, extended to segments: a
        `now` far in the entries' past (skewed clock) clamps every age
        to zero instead of evicting the whole store."""
        _, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        report = store.gc(max_age=5.0, now=0.0)
        assert report.evicted_entries == 0
        assert store.stat().entries == 4

    def test_pinned_footprint_survives_segment_rewrite(self, tmp_path):
        """gc to a zero budget right after compaction: the pinned
        spec's cells survive inside a rewritten segment, everything
        else goes."""
        spec_a, store_dir = populate(tmp_path)
        spec_b, _ = populate(tmp_path, seed=999)
        store = CampaignStore(store_dir, cache=None)
        store.compact()  # both campaigns land in one segment
        report = store.gc(max_bytes=0, pin_specs=[spec_a])
        assert report.pinned_entries == 4
        assert report.evicted_entries == 4
        for key in all_keys(spec_a):
            assert store.lookup(key) is not None
        for key in all_keys(spec_b):
            assert store.lookup(key) is None
        # Still one segment: the rewrite, holding exactly the pins.
        segments = load_segments(store_dir / "segments")
        assert len(segments) == 1
        assert set(segments[0].entries) \
            == {key_hash(k) for k in all_keys(spec_a)}
        assert store.verify().ok

    def test_gc_sweeps_stale_uncommitted_segments(self, tmp_path):
        import fcntl

        spec, store_dir = populate(tmp_path)
        segments_dir = store_dir / "segments"
        stale, fresh, held = (segments_dir / f"{name}.seg"
                              for name in ("a" * 32, "b" * 32, "c" * 32))
        for path in (stale, fresh, held):
            path.write_bytes(b"torn append of a killed writer")
        os.utime(stale, (1_000_000.0, 1_000_000.0))
        os.utime(held, (1_000_000.0, 1_000_000.0))
        fd = os.open(held, os.O_RDONLY)  # a live writer mid-append
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            store = CampaignStore(store_dir, cache=None)
            report = store.gc(max_age=3600.0 * 24 * 365 * 100)
        finally:
            os.close(fd)
        assert report.evicted_entries == 0
        assert not stale.exists()
        assert fresh.exists() and held.exists()
        for key in all_keys(spec):
            assert store.lookup(key) is not None
        assert store.verify().ok

    def test_gc_applies_one_order_across_segments(self, tmp_path):
        """Old entries compacted, fresh ones in a writer segment: a byte
        budget evicts oldest-first across both."""
        spec_a, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        stamp_entries(store_dir, 1_000_000.0)
        store.compact()  # old entries, one compacted segment
        spec_b, _ = populate(tmp_path, seed=999)  # fresh, writer segment
        rows = store_rows(store_dir)
        fresh = sum(rows[key_hash(k)][1].length for k in all_keys(spec_b))
        report = store.gc(max_bytes=store.stat().total_bytes - fresh // 2)
        assert report.evicted_entries > 0
        # Only the *old* side lost entries.
        for key in all_keys(spec_b):
            assert store.lookup(key) is not None


class TestHotCellCache:
    def test_cache_bounds_and_lru(self):
        cache = HotCellCache(max_bytes=100)

        def entry(i, size):
            text = "x" * size
            import hashlib

            return CachedEntry(
                key={"i": i}, block=None, payload_text=text,
                payload_sha256=hashlib.sha256(
                    text.encode("utf-8")).hexdigest(),
            )

        cache.put("r", "a", entry(1, 40))
        cache.put("r", "b", entry(2, 40))
        assert cache.get("r", "a") is not None  # a is now most-recent
        cache.put("r", "c", entry(3, 40))  # evicts b, the LRU
        assert cache.get("r", "b") is None
        assert cache.get("r", "a") is not None
        stats = cache.stats()
        assert stats.bytes <= 100 and stats.evictions == 1
        cache.put("r", "d", entry(4, 1000))  # over budget: dropped
        assert cache.get("r", "d") is None

    def test_lookup_populates_cache_and_serves_without_disk(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        cache = HotCellCache()
        store = CampaignStore(store_dir, cache=cache)
        key = all_keys(spec)[0]
        first = dump(store.lookup(key))
        # Remove the bytes from disk entirely: a cached re-read must
        # still serve the verified copy (entries are immutable).
        for path in (store_dir / "segments").iterdir():
            path.unlink()
        assert dump(store.lookup(key)) == first
        assert cache.stats().hits == 1

    def test_publish_never_prewarms_the_cache(self, tmp_path):
        """Disk corruption must be caught on *first* read: if publish
        populated the cache, a corrupted file would be silently papered
        over by the in-memory copy."""
        spec, store_dir = populate(tmp_path)  # publishes via executor
        for hash_ in store_rows(store_dir):
            rewrite_entry(store_dir, hash_, b"garbage\n")
        store = CampaignStore(store_dir)  # default shared cache
        with pytest.raises(ParameterError):
            store.lookup(all_keys(spec)[0])

    def test_poisoned_cache_entry_falls_back_to_disk(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        cache = HotCellCache()
        store = CampaignStore(store_dir, cache=cache)
        key = all_keys(spec)[0]
        truth = dump(store.lookup(key))
        cache.put(str(store_dir.resolve()), cache_key(key), CachedEntry(
            key=key, block=None, payload_text="tampered",
            payload_sha256="0" * 64,
        ))
        # Digest re-check fails → invalidate → disk re-read, full check.
        assert dump(store.lookup(key)) == truth
        # The cache healed: next read hits the good entry.
        assert dump(store.lookup(key)) == truth

    def test_surrogate_collision_is_a_miss_not_a_mixup(self, tmp_path):
        """Two keys sharing a cache surrogate must never serve each
        other's results: the full-key comparison turns the collision
        into a plain miss, resolved on the content-addressed path."""
        spec, store_dir = populate(tmp_path)
        cache = HotCellCache()
        store = CampaignStore(store_dir, cache=cache)
        key = all_keys(spec)[0]
        truth = dump(store.lookup(key))
        # Force a colliding occupant: same surrogate, different key.
        other = dict(key, distribution={"kind": "weibull", "shape": 0.7})
        assert cache_key(other) == cache_key(key)
        occupant = cache.get(str(store_dir.resolve()), cache_key(key))
        cache.put(str(store_dir.resolve()), cache_key(other),
                  CachedEntry(key=other, block=occupant.block,
                              payload_text=occupant.payload_text,
                              payload_sha256=occupant.payload_sha256))
        # The poisoned surrogate does not satisfy `key` ...
        assert dump(store.lookup(key)) == truth
        # ... and `other` itself is an honest disk miss, not a cache hit.
        assert store.lookup(other) is None

    def test_full_cached_verification_level(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=HotCellCache(),
                              cached_verification="full")
        key = all_keys(spec)[0]
        first = dump(store.lookup(key))
        assert dump(store.lookup(key)) == first

    def test_unknown_verification_level_refused(self, tmp_path):
        _, store_dir = populate(tmp_path)
        with pytest.raises(ParameterError, match="cached_verification"):
            CampaignStore(store_dir, cached_verification="paranoid")

    def test_configure_cache_resizes_shared_instance(self):
        original = default_cache()
        try:
            disabled = configure_cache(0)
            assert default_cache() is disabled
            assert disabled.max_bytes == 0
            with pytest.raises(ParameterError):
                configure_cache(-1)
        finally:
            restored = configure_cache(DEFAULT_CACHE_BYTES)
            assert default_cache() is restored


_PUBLISHER = _SYNTHETIC + textwrap.dedent("""\
    import sys
    from repro.store import CampaignStore

    store = CampaignStore(sys.argv[1], cache=None)
    first = int(sys.argv[2])
    for seed in range(first, first + 1_000_000):
        store.publish(synthetic_key(seed), RECORDS)
        print(seed, flush=True)  # committed: the publish returned
""")


def _spawn(code, *argv) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(pathlib.Path(__file__).resolve().parents[1]),
         env.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _kill_during_publish(store_dir: pathlib.Path) -> set[int]:
    """Ten publishers, each killed with SIGKILL at a seeded point inside
    its publish loop; after each kill every committed row verifies.
    Returns the seeds the publishers reported committed."""
    rng = random.Random(20431)
    committed: set[int] = set()
    for point in range(10):
        proc = _spawn(_PUBLISHER, store_dir, point * 100_000)
        # Raw reads, as communicate() makes: a buffered readline could
        # swallow output that communicate() then never sees.
        head = b""
        while b"\n" not in head:  # publishing has started
            head += os.read(proc.stdout.fileno(), 4096)
        time.sleep(rng.uniform(0.0, 0.05))
        proc.send_signal(signal.SIGKILL)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        lines = (head.decode() + out).splitlines(keepends=True)
        committed |= {int(line) for line in lines if line.endswith("\n")}
        report = CampaignStore(store_dir, cache=None).verify()
        assert report.ok, report.errors[:3]
    return committed


def _torn_entry(store_dir: pathlib.Path) -> set[int]:
    """Five committed entries, then bytes past the last committed row:
    garbage, and a well-formed entry whose index row was never written
    (as a writer killed between append and commit leaves it); plus a
    data file whose writer never committed at all."""
    store = CampaignStore(store_dir, cache=None)
    for seed in range(5):
        store.publish(synthetic_key(seed), RECORDS)
    donor = CampaignStore(store_dir.parent / "donor", cache=None)
    donor.publish(synthetic_key(99), RECORDS)
    entry = read_entry(donor.root, key_hash(synthetic_key(99)))
    (seg,) = (store_dir / "segments").glob("*.seg")
    with seg.open("ab") as fh:
        fh.write(b"\x00garbage")
        fh.write(entry)
    (store_dir / "segments" / "deadbeef.seg").write_bytes(entry)
    return set(range(5))


@pytest.mark.parametrize("failure_case", [
    pytest.param("KILL_DURING_PUBLISH", marks=pytest.mark.campaign),
    "TORN_ENTRY",
])
def test_store_fault(failure_case, tmp_path):
    """Store cases of the fault matrix: after the fault every committed
    row still serves, nothing uncommitted is ever served, ``verify`` is
    clean, and ``compact`` reclaims exactly the uncommitted bytes."""
    store_dir = tmp_path / "store"
    CampaignStore(store_dir)
    inject = {"KILL_DURING_PUBLISH": _kill_during_publish,
              "TORN_ENTRY": _torn_entry}[failure_case]
    committed = inject(store_dir)
    assert committed

    store = CampaignStore(store_dir, cache=None)
    served = {e.hash for e in store.entries()}
    assert {key_hash(synthetic_key(s)) for s in committed} <= served
    assert store.lookup(synthetic_key(99)) is None
    assert store.verify().ok
    torn = sum(sizes(store_dir).values()) - committed_bytes(store_dir)
    assert torn > 0 or failure_case == "KILL_DURING_PUBLISH"
    report = store.compact()
    assert report.reclaimed_bytes == torn and not report.corrupt
    assert report.packed_entries == len(served)
    assert sum(sizes(store_dir).values()) == committed_bytes(store_dir)
    # One segment is left, beside at most the temp file of an index
    # commit a kill interrupted (gc sweeps those once stale).
    assert [name for name in segment_files(store_dir)
            if ".tmp-" not in name] == [f"{report.segment_id}.idx",
                                         f"{report.segment_id}.seg"]
    assert {e.hash for e in store.entries()} == served
    assert store.verify().ok


_READER_WRITER = _SYNTHETIC + textwrap.dedent("""\
    import json, pathlib, sys
    from repro.store import CampaignStore

    root, keys_path = sys.argv[1], sys.argv[2]
    rounds, first = int(sys.argv[3]), int(sys.argv[4])
    keys = json.loads(pathlib.Path(keys_path).read_text())
    store = CampaignStore(root, cache=None)
    for i in range(rounds):
        for key in keys:
            if store.lookup(key) is None:
                raise SystemExit(f"lost entry during compaction: {key}")
        store.publish(synthetic_key(first + i), RECORDS)
    print("reader-writer-ok")
""")

_COMPACTOR = textwrap.dedent("""\
    import sys, time
    from repro.store import CampaignStore

    root, rounds = sys.argv[1], int(sys.argv[2])
    packed = 0
    for _ in range(rounds):
        packed += CampaignStore(root, cache=None).compact().packed_entries
        time.sleep(0.01)
    print(f"compactor-ok {packed}")
""")

#: Evicts, pass after pass, the sacrificial entries stamped at or before
#: one more of the given publish stamps — a real segment rewrite per
#: pass, racing the writers and the compactor.
_GC = textwrap.dedent("""\
    import json, pathlib, sys, time
    from repro.store import CampaignStore

    root, stamps = sys.argv[1], json.loads(pathlib.Path(sys.argv[2]).read_text())
    evicted = 0
    for stamp in stamps:
        evicted += CampaignStore(root, cache=None).gc(
            max_age=1.0, now=stamp + 1.0 + 1e-6).evicted_entries
        time.sleep(0.01)
    print(f"gc-ok {evicted}")
""")


@pytest.mark.campaign
class TestConcurrentCompaction:
    """Independently started OS processes against one store: two
    reader/writers hammering lookups and publishes while a compactor
    repeatedly merges every segment out from under them and a gc racer
    rewrites segments to evict old entries."""

    def test_reader_writer_races_compactor_losslessly(self, tmp_path):
        store_dir = tmp_path / "store"
        rounds = 30
        # Sacrificial entries, published first (so the oldest), a
        # clock tick or more apart: each gc pass evicts one more.
        sacrificial = CampaignStore(store_dir, cache=None)
        for i in range(rounds):
            sacrificial.publish(synthetic_key(50_000 + i), RECORDS)
            time.sleep(0.02)
        stamps = sorted(e.mtime for e in sacrificial.entries())
        time.sleep(0.05)
        spec, _ = populate(tmp_path)
        assert min(e.mtime for e in sacrificial.entries()
                   if e.seed < 50_000) > stamps[-1]
        keys_path = tmp_path / "keys.json"
        keys_path.write_text(json.dumps(all_keys(spec)))
        stamps_path = tmp_path / "stamps.json"
        stamps_path.write_text(json.dumps(stamps))

        procs = {
            "reader-writer-ok": [
                _spawn(_READER_WRITER, store_dir, keys_path, rounds, first)
                for first in (10_000, 20_000)],
            "compactor-ok": [_spawn(_COMPACTOR, store_dir, rounds)],
            "gc-ok": [_spawn(_GC, store_dir, stamps_path)],
        }
        for marker, group in procs.items():
            for proc in group:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                assert marker in out

        # Whatever the interleaving: nothing lost, nothing corrupt.
        store = CampaignStore(store_dir, cache=None)
        for key in all_keys(spec) + [synthetic_key(first + i)
                                     for first in (10_000, 20_000)
                                     for i in range(rounds)]:
            assert store.lookup(key) is not None
        # The gc racer may have found the last sacrificial rows locked.
        store.gc(max_age=1.0, now=stamps[-1] + 1.0 + 1e-6)
        assert store.stat().entries == 4 + 2 * rounds  # originals + publishes
        assert store.verify().ok
        # A final pass leaves one consistent segment: no index without
        # its data file, no data file without its index.
        store.compact()
        names = segment_files(store_dir)
        assert {n[:-4] for n in names if n.endswith(".idx")} \
            == {n[:-4] for n in names if n.endswith(".seg")}
        assert len(names) == 2
        assert store.verify().ok
