"""Skew-tolerant timestamp arithmetic and its two consumers.

The bug class under test: lease expiry (work-stealing queue) and store
``gc --max-age`` used to compute ages as ``time.time() − st_mtime``.
On a shared filesystem the mtime is stamped by the *server* clock while
``time.time()`` is the *client's* — a client running ahead inflates
every age, steals live leases, and evicts just-published store entries.
The fix (:mod:`repro.fsclock`) samples *now* from the judged
directory's own filesystem clock and clamps negative ages at zero.

The regression tests below simulate the dangerous direction — client
wall clock a million seconds ahead of the filesystem — by patching
``time.time`` while the files keep their honest mtimes, and prove both
consumers now ignore the wall clock entirely.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.fsclock import clamped_age, filesystem_now
from repro.sim.campaign import CampaignConfig
from repro.sim.distributed import DistributedBackend, ensure_queue
from repro.sim.executor import execute_spec
from repro.sim.spec import CampaignSpec, ExecutionPolicy
from repro.store import CampaignStore

SKEW = 1_000_000.0  # client clock a million seconds ahead of the files


@pytest.fixture
def skewed_wall_clock(monkeypatch):
    """Make every ``time.time()`` read run far ahead of file mtimes."""
    real = time.time
    monkeypatch.setattr(time, "time", lambda: real() + SKEW)


def make_spec(**overrides) -> CampaignSpec:
    fields = dict(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0,),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=2,
        seed=2027,
    )
    fields.update(overrides)
    return CampaignSpec(grid=CampaignConfig(**fields),
                        policy=ExecutionPolicy())


class TestFsClock:
    def test_probe_shares_the_directory_clock(self, tmp_path):
        """filesystem_now agrees with the mtime a plain write gets —
        they are the same clock, which is the whole point."""
        (tmp_path / "witness").write_text("x")
        now = filesystem_now(tmp_path)
        assert abs(now - (tmp_path / "witness").stat().st_mtime) < 5.0

    def test_probe_file_is_cleaned_up(self, tmp_path):
        filesystem_now(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_falls_back_to_wall_clock(self, tmp_path):
        before = time.time()
        now = filesystem_now(tmp_path / "does-not-exist")
        assert before <= now <= time.time()

    def test_fallback_follows_a_skewed_wall_clock(
        self, tmp_path, skewed_wall_clock
    ):
        """Only the *fallback* sees wall-clock skew (nothing better is
        available there); a writable directory never does."""
        skewed_now = time.time()  # patched, so ~real + SKEW
        assert abs(filesystem_now(tmp_path / "nope") - skewed_now) < 5.0
        assert filesystem_now(tmp_path) < skewed_now - SKEW / 2

    def test_clamped_age(self):
        assert clamped_age(100.0, 40.0) == 60.0
        assert clamped_age(40.0, 100.0) == 0.0  # future mtime: brand new
        assert clamped_age(40.0, 40.0) == 0.0


class TestLeaseSkewRegression:
    """A worker whose wall clock runs ahead must not steal live leases."""

    def make_queue(self, tmp_path):
        spec = CampaignSpec(grid=make_spec().grid,
                            policy=ExecutionPolicy(sink="framed"))
        queue = tmp_path / "queue"
        ensure_queue(
            queue, spec.fingerprint(), n_chunks=2, chunk_size=1, n_cells=2,
        )
        return queue

    def test_fresh_lease_survives_a_skewed_thief(
        self, tmp_path, skewed_wall_clock
    ):
        queue = self.make_queue(tmp_path)
        owner = DistributedBackend(queue, "owner", lease_timeout=60.0)
        assert owner._try_claim_pending() is not None
        assert owner._try_claim_pending() is not None
        # Pre-fix, the thief computed age = time.time() − mtime ≈ SKEW
        # and stole both live leases here.
        thief = DistributedBackend(queue, "thief", lease_timeout=60.0)
        assert thief._try_steal_expired() is None

    def test_genuinely_expired_lease_is_still_stolen(
        self, tmp_path, skewed_wall_clock
    ):
        """Skew tolerance must not break real crash recovery: a lease
        whose *filesystem* age exceeds the timeout is reclaimed even
        while the wall clock is useless."""
        queue = self.make_queue(tmp_path)
        owner = DistributedBackend(queue, "owner", lease_timeout=5.0)
        chunk, claim = owner._try_claim_pending()
        past = claim.stat().st_mtime - 100.0
        os.utime(claim, (past, past))  # owner died 100 fs-seconds ago
        thief = DistributedBackend(queue, "thief", lease_timeout=5.0)
        stolen = thief._try_steal_expired()
        assert stolen is not None
        assert stolen[0] == chunk
        assert "thief" in stolen[1].name

    def test_future_stamped_lease_reads_as_fresh(self, tmp_path):
        """A claim stamped *ahead* of the filesystem clock (writer on a
        fast machine) clamps to age zero instead of wrapping."""
        queue = self.make_queue(tmp_path)
        owner = DistributedBackend(queue, "owner", lease_timeout=5.0)
        _, claim = owner._try_claim_pending()
        future = claim.stat().st_mtime + SKEW
        os.utime(claim, (future, future))
        thief = DistributedBackend(queue, "thief", lease_timeout=5.0)
        assert thief._try_steal_expired() is None


class TestStoreGcSkewRegression:
    """``gc --max-age`` must judge entry idleness by the store's own
    filesystem clock, not the evicting client's wall clock."""

    def make_store(self, tmp_path) -> CampaignStore:
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "out.jsonl",
                     store=store_dir)
        return CampaignStore(store_dir)

    def test_fresh_entries_survive_a_skewed_client(
        self, tmp_path, skewed_wall_clock
    ):
        store = self.make_store(tmp_path)
        entries = store.stat().entries
        assert entries > 0
        # Pre-fix: now = time.time() ran SKEW ahead, every just-written
        # entry looked a million seconds idle, and this evicted it all.
        report = store.gc(max_age=3600.0)
        assert report.evicted_entries == 0
        assert store.stat().entries == entries

    def test_genuinely_idle_entries_are_still_evicted(
        self, tmp_path, skewed_wall_clock
    ):
        store = self.make_store(tmp_path)
        entries = store.stat().entries
        for path in (tmp_path / "store" / "objects").glob("*/*.json"):
            os.utime(path, (1.0, 1.0))  # idle since the epoch, fs-time
        report = store.gc(max_age=3600.0)
        assert report.evicted_entries == entries
        assert store.stat().entries == 0

    def test_explicit_now_hook_bypasses_the_probe(self, tmp_path):
        """Callers that pass ``now=`` (tests, offline audits) keep full
        control of the clock."""
        store = self.make_store(tmp_path)
        entries = store.stat().entries
        mtimes = [p.stat().st_mtime for p in
                  (tmp_path / "store" / "objects").glob("*/*.json")]
        report = store.gc(max_age=3600.0, now=max(mtimes) + 7200.0)
        assert report.evicted_entries == entries
