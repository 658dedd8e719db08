"""Fleet-scale store layer: segments, the loose layout, hot-cell cache.

The contracts under test, in order of importance:

* **Transparency** — compaction changes *where* bytes live, never which
  bytes a lookup serves: warm runs and exports are byte-identical
  before and after ``store compact``, and adversarial interleavings
  (reader/writer racing a compactor in separate OS processes) never
  lose an entry.
* **Retention parity** — ``gc`` ages and pins segment-resident entries
  by exactly the rules loose files follow, including the clock-skew
  clamp, and evicts from a segment by atomic rewrite.
* **Cache honesty** — the in-process hot-cell cache serves re-reads
  without disk I/O but still refuses corruption: a poisoned cached
  entry falls back to the (verified) disk copy, and disk corruption is
  caught on first read because publishes never pre-warm the cache.
* **One loose layout** — a root-level entry left by the retired flat
  layout is never served: lookups miss and recompute, and ``verify``
  names the file.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

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
from repro.store.segments import load_segments


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


def loose_files(store_dir: pathlib.Path) -> list[pathlib.Path]:
    objects = store_dir / "objects"
    return sorted(objects.glob("*/*.json"))


def dump(results) -> list[str]:
    from repro import io as repro_io

    return [repro_io.dump_result(r) for r in results]


class TestCompaction:
    def test_compact_packs_everything_and_lookups_survive(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        before = {key_hash(k): dump(store.lookup(k)) for k in all_keys(spec)}

        report = store.compact()
        assert report.packed_entries == 4
        assert report.loose_before == 4
        assert report.segment_id is not None
        assert report.segments_total == 1
        assert report.segment_entries_total == 4
        assert report.loose_remaining == 0
        assert not report.corrupt and not report.deduplicated
        assert loose_files(store_dir) == []
        assert "packed 4 of 4 loose entries" in report.describe()

        # Every lookup now resolves through the segment, byte-for-byte.
        for key in all_keys(spec):
            assert dump(store.lookup(key)) == before[key_hash(key)]
        # ... including from a store object that never saw the compaction.
        fresh = CampaignStore(store_dir, cache=None)
        for key in all_keys(spec):
            assert dump(fresh.lookup(key)) == before[key_hash(key)]

    def test_stat_and_entries_report_layout_breakdown(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        loose_stat = store.stat()
        assert (loose_stat.loose_entries, loose_stat.segment_entries,
                loose_stat.segments) == (4, 0, 0)
        loose_meta = {
            (e.hash, e.protocol, e.M, e.phi, e.n, e.seed, e.work_target,
             e.size, e.replicas)
            for e in store.entries()
        }

        store.compact()
        stat = store.stat()
        assert stat.entries == 4
        assert (stat.loose_entries, stat.segment_entries, stat.segments) \
            == (0, 4, 1)
        assert stat.describe().startswith("4 entries")
        assert "4 in 1 segment(s)" in stat.describe()
        # The queryable metadata is identical, served from the index
        # alone; only the origin changed.
        entries = list(store.entries())
        assert all(e.origin == "segment" for e in entries)
        assert {
            (e.hash, e.protocol, e.M, e.phi, e.n, e.seed, e.work_target,
             e.size, e.replicas)
            for e in entries
        } == loose_meta
        assert len(list(store.query(protocol="double-nbl"))) == 2

    def test_dry_run_changes_nothing(self, tmp_path):
        _, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        report = store.compact(dry_run=True)
        assert report.dry_run and report.packed_entries == 4
        assert report.segment_id is None
        assert "would pack" in report.describe()
        assert len(loose_files(store_dir)) == 4
        assert list(load_segments(store_dir / "segments")) == []

    def test_incremental_compaction_adds_segments(self, tmp_path):
        spec_a, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        # A second campaign publishes 4 new loose entries.
        spec_b, _ = populate(tmp_path, seed=999)
        report = store.compact()
        assert report.packed_entries == 4
        assert report.segments_total == 2
        stat = store.stat()
        assert stat.entries == 8 and stat.segments == 2
        for key in all_keys(spec_a) + all_keys(spec_b):
            assert store.lookup(key) is not None
        # Nothing loose left: a third pass is a no-op.
        report = store.compact()
        assert report.packed_entries == 0 and report.segment_id is None
        assert report.segments_total == 2

    def test_corrupt_loose_entry_is_left_loose_and_reported(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        victim = loose_files(store_dir)[0]
        victim.write_text("garbage\n")
        store = CampaignStore(store_dir, cache=None)
        report = store.compact()
        assert report.packed_entries == 3
        assert len(report.corrupt) == 1 and str(victim) in report.corrupt[0]
        assert "corrupt left loose" in report.describe()
        assert victim.exists()  # quarantined in place, never packed
        verify = store.verify()
        assert not verify.ok and len(verify.errors) == 1

    def test_duplicate_loose_copy_is_removed(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        victim = loose_files(store_dir)[0]
        aside = tmp_path / "aside.json"
        aside.write_bytes(victim.read_bytes())
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        # A compaction/publish race can leave a loose duplicate of a
        # segment-resident entry; the next pass retires it.
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_bytes(aside.read_bytes())
        report = store.compact()
        assert report.deduplicated == 1 and report.packed_entries == 0
        assert not victim.exists()
        assert store.stat().entries == 4


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
        assert reads[0] == (0, segment.data_bytes)
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
            hash="deadbeef", offset=segment.data_bytes, length=64,
            mtime=good.mtime, protocol=good.protocol, M=good.M,
            phi=good.phi, n=good.n, seed=good.seed,
            trace_seed=good.trace_seed, work_target=good.work_target,
        )
        data = segment.read_many([good, torn])
        assert good.hash in data and "deadbeef" not in data
        # A vanished data file (concurrent gc rewrite) is an empty
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
            spec, tmp_path / "loose.jsonl"
        )
        CampaignStore(store_dir, cache=None).compact()
        store = CampaignStore(store_dir, cache=HotCellCache())
        report = store.export(spec, tmp_path / "bulk.jsonl")
        assert report.frames == len(all_keys(spec)) * spec.grid.replicas
        assert (tmp_path / "bulk.jsonl").read_bytes() \
            == (tmp_path / "loose.jsonl").read_bytes()
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
        assert report.stat.segment_entries == 4

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


class TestRetiredFlatLayout:
    def test_flat_entry_is_a_miss_and_verify_names_it(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        objects = store_dir / "objects"
        key = all_keys(spec)[0]
        hash_ = key_hash(key)
        sharded = objects / hash_[:2] / f"{hash_}.json"
        flat = objects / f"{hash_}.json"
        os.replace(sharded, flat)
        store = CampaignStore(store_dir, cache=None)
        assert store.lookup(key) is None
        report = store.verify()
        assert report.checked == 4 and len(report.errors) == 1
        assert report.errors[0].startswith(f"{flat}: ")
        assert "never served" in report.errors[0]
        # A warm re-run recomputes the one cell whose entry moved,
        # byte-identically, and republishes it in the sharded layout.
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            store=store_dir)
        assert (warm.report.cells_cached, warm.report.cells_run) == (3, 1)
        assert (tmp_path / "warm.jsonl").read_bytes() == \
            (tmp_path / "cold-2027.jsonl").read_bytes()
        assert sharded.exists()


class TestGcSegments:
    def test_max_age_evicts_segment_entries_by_recorded_mtime(
            self, tmp_path):
        spec, store_dir = populate(tmp_path)
        # Age the first campaign's entries *before* compaction: the
        # segment index inherits these mtimes as its LRU clock.
        old = 1_000_000.0
        for path in loose_files(store_dir):
            os.utime(path, (old, old))
        store = CampaignStore(store_dir, cache=None)
        store.compact()
        spec_b, _ = populate(tmp_path, seed=999)
        store.compact()

        now = os.stat(next(iter(loose_files(tmp_path / "store")), None)
                      or (store_dir / "store.json")).st_mtime
        report = store.gc(max_age=3600.0, now=now)
        assert report.evicted_entries == 4
        assert store.stat().entries == 4
        for key in all_keys(spec):
            assert store.lookup(key) is None
        for key in all_keys(spec_b):
            assert store.lookup(key) is not None
        # The aged-out segment was removed outright, the fresh one kept.
        assert len(list(load_segments(store_dir / "segments"))) == 1
        assert store.verify().ok

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
        segments = list(load_segments(store_dir / "segments"))
        assert len(segments) == 1
        assert set(segments[0].entries) \
            == {key_hash(k) for k in all_keys(spec_a)}
        assert store.verify().ok

    def test_gc_mixed_layout_applies_one_lru_order(self, tmp_path):
        """Half the entries compacted, half loose: a byte budget evicts
        oldest-first across both layouts."""
        spec_a, store_dir = populate(tmp_path)
        store = CampaignStore(store_dir, cache=None)
        old = 1_000_000.0
        for path in loose_files(store_dir):
            os.utime(path, (old, old))
        store.compact()  # old entries, segment-resident
        spec_b, _ = populate(tmp_path, seed=999)  # fresh, loose
        total = store.stat().total_bytes
        keep = total - sum(p.stat().st_size for p in loose_files(store_dir)) // 2
        report = store.gc(max_bytes=keep)
        assert report.evicted_entries > 0
        # Only the *old* (segment) side lost entries.
        for key in all_keys(spec_b):
            assert store.lookup(key) is not None


class TestHotCellCache:
    def test_cache_bounds_and_lru(self):
        cache = HotCellCache(max_bytes=100)

        def entry(i, size):
            text = "x" * size
            import hashlib

            return CachedEntry(
                key={"i": i}, results=(), payload_text=text,
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
        (store_dir / "objects" / key_hash(key)[:2]
         / f"{key_hash(key)}.json").unlink()
        assert dump(store.lookup(key)) == first
        assert cache.stats().hits == 1

    def test_publish_never_prewarms_the_cache(self, tmp_path):
        """Disk corruption must be caught on *first* read: if publish
        populated the cache, a corrupted file would be silently papered
        over by the in-memory copy."""
        spec, store_dir = populate(tmp_path)  # publishes via executor
        for path in loose_files(store_dir):
            path.write_text("garbage\n")
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
            key=key, results=(), payload_text="tampered",
            payload_sha256="0" * 64, hash=key_hash(key),
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
                  CachedEntry(key=other, results=occupant.results,
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


_READER_WRITER = textwrap.dedent("""\
    import json, pathlib, sys
    from repro.errors import ParameterError
    from repro.io import dump_result
    from repro.sim.results import DesResult
    from repro.store import CampaignStore

    root, keys_path, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
    keys = json.loads(pathlib.Path(keys_path).read_text())
    store = CampaignStore(root, cache=None)
    synthetic = DesResult(
        status="success", makespan=1000.0, work_target=900.0,
        work_done=900.0, failures=1, rollbacks=1, work_lost=10.0,
        commits=9, risk_time=100.0,
    )
    for i in range(rounds):
        for key in keys:
            if store.lookup(key) is None:
                raise SystemExit(f"lost entry during compaction: {key}")
        store.publish({
            "format": "repro-store-entry", "version": 2,
            "protocol": "double-nbl", "phi": 1.0, "work_target": 900.0,
            "max_time": None, "params": {"M": 600.0, "n": 12},
            "distribution": None, "seed": 10_000 + i, "trace_seed": None,
        }, (dump_result(synthetic),) * 2)
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


@pytest.mark.campaign
class TestConcurrentCompaction:
    """Two independently started OS processes against one store: a
    reader/writer hammering lookups and publishes while a compactor
    repeatedly packs loose entries out from under it."""

    def _spawn(self, code, *argv):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-c", code, *map(str, argv)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_reader_writer_races_compactor_losslessly(self, tmp_path):
        spec, store_dir = populate(tmp_path)
        keys_path = tmp_path / "keys.json"
        keys_path.write_text(json.dumps(all_keys(spec)))
        rounds = 30

        reader = self._spawn(_READER_WRITER, store_dir, keys_path, rounds)
        compactor = self._spawn(_COMPACTOR, store_dir, rounds)
        r_out, r_err = reader.communicate(timeout=120)
        c_out, c_err = compactor.communicate(timeout=120)
        assert reader.returncode == 0, r_err
        assert compactor.returncode == 0, c_err
        assert "reader-writer-ok" in r_out
        assert "compactor-ok" in c_out

        # Whatever the interleaving: nothing lost, nothing corrupt.
        store = CampaignStore(store_dir, cache=None)
        for key in all_keys(spec):
            assert store.lookup(key) is not None
        stat = store.stat()
        assert stat.entries == 4 + rounds  # originals + publishes
        assert store.verify().ok
        # A final pass leaves the store fully compacted and consistent.
        store.compact()
        assert store.stat().loose_entries == 0
        assert store.verify().ok
