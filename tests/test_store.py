"""Content-addressed results store: caching, reuse, retention, queries.

The contract under test, in order of importance:

* **Warm identity** — a re-run of an identical completed spec with a
  store performs *zero* simulations (asserted via a counting backend)
  and writes a results file byte-identical to the cold run's.
* **Partial overlap** — a different grid sharing some cells simulates
  only the missing ones.
* **Controller equivalence** — cache hits flow through the replica
  controllers exactly like live results, so fixed-count and adaptive
  campaigns interoperate through one store.
* **Cell entries** — one entry per grid cell holds its replica prefix;
  a longer prefix supersedes a shorter one (across segments and
  compaction), never the reverse, and a directory holding older
  layouts opens, serves none of them, recomputes and has every leftover
  file named by ``verify``.
* **Safety** — corruption is refused loudly, eviction never touches a
  pinned footprint, and concurrent publishers converge race-free.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim.adaptive import AdaptiveCI
from repro.sim.backends import CampaignBackend, SerialBackend
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec, plan_cells
from repro.sim.results import DesResult
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy
from repro.store import (
    CampaignStore,
    HotCellCache,
    cell_key,
    cells_from_store,
    key_hash,
)
from repro.store.cache import cache_key
from tests.conftest import (
    read_entry,
    rewrite_entry,
    stamp_entries,
    store_rows,
)


def make_spec(*, m_values=(300.0, 600.0), share_traces=False, replicas=2,
              seed=2027, work_target=900.0, policy=None) -> CampaignSpec:
    grid = CampaignConfig(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=m_values,
        phi_values=(1.0,),
        work_target=work_target,
        replicas=replicas,
        seed=seed,
        share_traces=share_traces,
    )
    return CampaignSpec(grid=grid, policy=policy or ExecutionPolicy())


class CountingBackend(CampaignBackend):
    """Serial execution that counts every cell dispatched to it."""

    def __init__(self):
        self.cells_dispatched = 0
        self.inner = SerialBackend()

    def execute(self, config, chunks, controller):
        self.cells_dispatched += sum(len(chunk) for chunk in chunks)
        yield from self.inner.execute(config, chunks, controller)


class TestKeys:
    def test_key_is_grid_position_independent(self):
        """The same physical cell in two different grids (no shared
        traces) keys identically — the cross-campaign reuse premise."""
        a, b = make_spec(m_values=(300.0, 600.0)), make_spec(m_values=(600.0, 1200.0))
        plan_a = next(p for p in plan_cells(a.grid) if p.M == 600.0)
        plan_b = next(p for p in plan_cells(b.grid) if p.M == 600.0)
        assert plan_a.m_index != plan_b.m_index  # different grid rows...
        assert key_hash(cell_key(a.grid, plan_a)) \
            == key_hash(cell_key(b.grid, plan_b))

    def test_shared_traces_key_by_derived_trace_seed(self):
        """With shared traces the trace seed depends on the grid row, so
        the same (protocol, M) cell at a different row is a *different*
        simulation — the key must refuse to conflate them."""
        a = make_spec(m_values=(300.0, 600.0), share_traces=True)
        b = make_spec(m_values=(600.0, 1200.0), share_traces=True)
        plan_a = next(p for p in plan_cells(a.grid) if p.M == 600.0)
        plan_b = next(p for p in plan_cells(b.grid) if p.M == 600.0)
        assert key_hash(cell_key(a.grid, plan_a)) \
            != key_hash(cell_key(b.grid, plan_b))
        # Same row in an identical grid: same simulation, same key.
        assert key_hash(cell_key(a.grid, plan_a)) \
            == key_hash(cell_key(a.grid, plan_a))

    def test_key_varies_with_what_changes_output(self):
        spec = make_spec()
        plan = plan_cells(spec.grid)[0]
        base = key_hash(cell_key(spec.grid, plan))
        assert key_hash(cell_key(make_spec(seed=999).grid, plan)) != base
        assert key_hash(cell_key(
            make_spec(work_target=1800.0).grid, plan)) != base
        assert key_hash(cell_key(
            make_spec(share_traces=True).grid, plan)) != base
        # The replica budget is not an input of any replica's bytes.
        assert key_hash(cell_key(make_spec(replicas=8).grid, plan)) == base

    def test_key_names_replica_zero_seeds(self):
        """The key carries replica 0's derived seeds; every other
        replica follows by the fixed strides, so prefixes nest."""
        from repro.sim.backends import replica_seed, trace_seed

        spec = make_spec(share_traces=True)
        plan = plan_cells(spec.grid)[-1]
        key = cell_key(spec.grid, plan)
        assert key["seed"] == replica_seed(spec.grid, 0)
        assert key["trace_seed"] == trace_seed(spec.grid, plan.m_index, 0)
        assert cell_key(make_spec().grid, plan)["trace_seed"] is None

    def test_seed_stride_multiple_shares_no_entry(self, tmp_path):
        """The accepted loss of one entry per cell: campaigns whose seeds
        differ by the replica stride run overlapping replicas (replica 1
        of one is replica 0 of the other) yet share no entry."""
        from repro.sim.backends import _REPLICA_SEED_STRIDE, replica_seed

        a = make_spec(seed=2027)
        b = make_spec(seed=2027 + _REPLICA_SEED_STRIDE)
        assert replica_seed(a.grid, 1) == replica_seed(b.grid, 0)
        store = tmp_path / "store"
        execute_spec(a, results_path=tmp_path / "a.jsonl", store=store)
        backend = CountingBackend()
        run = execute_spec(b, results_path=tmp_path / "b.jsonl",
                           backend=backend, store=store)
        assert backend.cells_dispatched == 4
        assert run.report.cells_cached == 0


class TestWarmRerun:
    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_warm_rerun_zero_simulations_byte_identical(self, tmp_path, sink):
        """The acceptance invariant: warm re-run of an identical
        completed spec simulates nothing yet lands byte-identical."""
        spec = make_spec(policy=ExecutionPolicy(sink=sink))
        store = tmp_path / "store"
        cold_backend = CountingBackend()
        cold = execute_spec(spec, results_path=tmp_path / "cold.jsonl",
                            backend=cold_backend, store=store)
        assert cold_backend.cells_dispatched == 4
        assert cold.report.cells_cached == 0

        warm_backend = CountingBackend()
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            backend=warm_backend, store=store)
        assert warm_backend.cells_dispatched == 0
        assert warm.report.cells_run == 0
        assert warm.report.replicas_run == 0
        assert warm.report.cells_cached == 4
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "cold.jsonl").read_bytes()
        # The cells object surface is identical too.
        assert [c.summary for c in warm.cells] == \
            [c.summary for c in cold.cells]

    def test_half_overlapping_grid_simulates_only_missing_cells(self, tmp_path):
        store = tmp_path / "store"
        execute_spec(make_spec(m_values=(300.0, 600.0)),
                     results_path=tmp_path / "a.jsonl", store=store)

        backend = CountingBackend()
        overlap = execute_spec(
            make_spec(m_values=(600.0, 1200.0)),
            results_path=tmp_path / "b.jsonl", backend=backend, store=store,
        )
        # 2 protocols × (600 cached, 1200 fresh)
        assert backend.cells_dispatched == 2
        assert overlap.report.cells_cached == 2
        assert overlap.report.cells_run == 2
        # The overlap file equals a storeless run of the same grid.
        execute_spec(make_spec(m_values=(600.0, 1200.0)),
                     results_path=tmp_path / "ref.jsonl")
        assert (tmp_path / "b.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()

    def test_shared_trace_campaign_warm_rerun(self, tmp_path):
        """Shared-trace cells cache too (the trace seed is in the key)."""
        spec = make_spec(share_traces=True)
        store = tmp_path / "store"
        execute_spec(spec, results_path=tmp_path / "a.jsonl", store=store)
        backend = CountingBackend()
        warm = execute_spec(spec, results_path=tmp_path / "b.jsonl",
                            backend=backend, store=store)
        assert backend.cells_dispatched == 0
        assert warm.report.cells_cached == 4
        assert (tmp_path / "a.jsonl").read_bytes() \
            == (tmp_path / "b.jsonl").read_bytes()

    def test_store_plus_resume_compose(self, tmp_path):
        """A truncated results file resumes, and the cells it lost are
        served from the store instead of re-simulated."""
        spec = make_spec()
        store = tmp_path / "store"
        path = tmp_path / "c.jsonl"
        execute_spec(spec, results_path=path, store=store)
        full = path.read_bytes()
        lines = full.split(b"\n")
        path.write_bytes(b"\n".join(lines[:2]) + b"\n")  # keep cell 0

        backend = CountingBackend()
        resumed = execute_spec(spec, results_path=path, resume=True,
                               backend=backend, store=store)
        assert backend.cells_dispatched == 0
        assert resumed.report.cells_skipped == 1
        assert resumed.report.cells_cached == 3
        assert path.read_bytes() == full

    def test_facade_and_policy_paths(self, tmp_path):
        """The store reaches the executor through either the policy or
        the run() argument; both are volatile (resume accepts drift)."""
        store = tmp_path / "store"
        spec = make_spec(policy=ExecutionPolicy(
            store=str(store), store_mode="read-write"))
        Campaign(spec).run(tmp_path / "a.jsonl")
        warm = Campaign(make_spec()).run(tmp_path / "b.jsonl", store=store)
        assert warm.report.cells_cached == 4
        # Volatile: resuming the file written with a store, without one.
        resumed = Campaign(make_spec()).resume(tmp_path / "a.jsonl")
        assert resumed.report.cells_skipped == 4


class TestModes:
    def test_read_mode_never_publishes(self, tmp_path):
        store_dir = tmp_path / "store"
        CampaignStore(store_dir)  # an existing (empty) store
        spec = make_spec(policy=ExecutionPolicy(
            store=str(store_dir), store_mode="read"))
        execute_spec(spec, results_path=tmp_path / "a.jsonl")
        assert CampaignStore(store_dir).stat().entries == 0

    def test_read_mode_refuses_a_missing_store(self, tmp_path):
        """Read-only mode can never populate a store, so a missing
        directory is a mistyped path, not a fresh cache."""
        spec = make_spec(policy=ExecutionPolicy(
            store=str(tmp_path / "typo"), store_mode="read"))
        with pytest.raises(ParameterError, match="no results store"):
            execute_spec(spec, results_path=tmp_path / "a.jsonl")

    def test_off_mode_ignores_the_store(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        spec = make_spec(policy=ExecutionPolicy(
            store=str(store_dir), store_mode="off"))
        backend = CountingBackend()
        run = execute_spec(spec, results_path=tmp_path / "b.jsonl",
                           backend=backend)
        assert backend.cells_dispatched == 4
        assert run.report.cells_cached == 0

    def test_unknown_store_mode_refused_at_construction(self):
        with pytest.raises(ParameterError, match="store mode"):
            ExecutionPolicy(store="/tmp/s", store_mode="write")

    def test_store_fields_are_volatile_spec_state(self, tmp_path):
        a = make_spec()
        b = make_spec(policy=ExecutionPolicy(
            store=str(tmp_path / "s"), store_mode="read"))
        assert a != b
        assert a.identity() == b.identity()
        assert a.fingerprint() == b.fingerprint()

    def test_policy_round_trips_with_store_fields(self, tmp_path):
        spec = make_spec(policy=ExecutionPolicy(
            store=str(tmp_path / "s"), store_mode="read"))
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.policy.store == str(tmp_path / "s")
        assert again.policy.store_mode == "read"


class TestControllerInterop:
    def _adaptive(self, replicas=8):
        # Loose tolerance: low-variance cells stop at min_replicas, so
        # the adaptive/fixed asymmetry actually shows in these grids.
        return AdaptiveCI(max_replicas=replicas, tolerance=0.5,
                          min_replicas=3, batch=1)

    def test_fixed_store_serves_adaptive_prefix(self, tmp_path):
        """A fixed-count campaign's entries serve an adaptive campaign:
        the cursor replay stops inside the cached replicas and the file
        equals the adaptive cold run byte-for-byte."""
        store = tmp_path / "store"
        execute_spec(make_spec(replicas=8),
                     results_path=tmp_path / "fixed.jsonl", store=store)

        adaptive = make_spec(replicas=8, policy=ExecutionPolicy(
            sink="framed", controller=self._adaptive()))
        execute_spec(adaptive, results_path=tmp_path / "ref.jsonl")
        backend = CountingBackend()
        warm = execute_spec(adaptive, results_path=tmp_path / "warm.jsonl",
                            backend=backend, store=store)
        assert backend.cells_dispatched == 0
        assert warm.report.cells_cached == 4
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()

    def test_adaptive_store_misses_for_fixed_budget(self, tmp_path):
        """The reverse is a miss when the adaptive run stored fewer
        replicas than the fixed budget needs — the cell re-runs in full
        rather than serving a short prefix as complete."""
        store = tmp_path / "store"
        adaptive = make_spec(replicas=8, policy=ExecutionPolicy(
            sink="framed", controller=self._adaptive()))
        run = execute_spec(adaptive, results_path=tmp_path / "a.jsonl",
                           store=store)
        short_cells = sum(
            1 for c in run.cells if c.summary.n_replicas < 8
        )
        assert short_cells > 0  # the premise: someone stopped early

        fixed = make_spec(replicas=8)
        backend = CountingBackend()
        warm = execute_spec(fixed, results_path=tmp_path / "b.jsonl",
                            backend=backend, store=store)
        assert backend.cells_dispatched == short_cells
        assert warm.report.cells_cached == 4 - short_cells
        execute_spec(fixed, results_path=tmp_path / "ref.jsonl")
        assert (tmp_path / "b.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()
        # The fixed run's full prefixes replaced the short ones.
        entries = list(CampaignStore(tmp_path / "store").entries())
        assert [e.replicas for e in entries] == [8] * 4

    def test_adaptive_entries_serve_a_smaller_fixed_budget(self, tmp_path):
        """Every adaptive cell stored at least min_replicas, so a
        fixed-count campaign of that budget is served in full."""
        store = tmp_path / "store"
        adaptive = make_spec(replicas=8, policy=ExecutionPolicy(
            sink="framed", controller=self._adaptive()))
        execute_spec(adaptive, results_path=tmp_path / "a.jsonl",
                     store=store)
        fixed = make_spec(replicas=3)
        backend = CountingBackend()
        warm = execute_spec(fixed, results_path=tmp_path / "b.jsonl",
                            backend=backend, store=store)
        assert backend.cells_dispatched == 0
        assert warm.report.cells_cached == 4
        execute_spec(fixed, results_path=tmp_path / "ref.jsonl")
        assert (tmp_path / "b.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()


class TestIntegrity:
    def _entry_hashes(self, store_dir):
        return sorted(store_rows(store_dir))

    def test_corrupt_entry_is_refused_not_served(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        victim = self._entry_hashes(store_dir)[0]
        rewrite_entry(store_dir, victim, b"{ not json")
        with pytest.raises(ParameterError, match="corrupt store entry"):
            execute_spec(spec, results_path=tmp_path / "b.jsonl",
                         store=store_dir)

    def test_undecodable_entry_is_refused_and_reported(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        victim = self._entry_hashes(store_dir)[0]
        rewrite_entry(store_dir, victim,
                      read_entry(store_dir, victim) + b"\xff\xfe\n")
        report = CampaignStore(store_dir).verify()
        assert len(report.errors) == 1
        assert "corrupt store entry" in report.errors[0]
        with pytest.raises(ParameterError, match="corrupt store entry"):
            execute_spec(spec, results_path=tmp_path / "b.jsonl",
                         store=store_dir)

    def test_tampered_payload_fails_verification(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        victim = self._entry_hashes(store_dir)[0]
        header, first, rest = \
            read_entry(store_dir, victim).decode().split("\n", 2)
        replica = json.loads(first)
        replica["payload"]["makespan"] += 1.0
        rewrite_entry(store_dir, victim, "\n".join(
            [header, json.dumps(replica, sort_keys=True), rest]).encode())
        report = CampaignStore(store_dir).verify()
        assert not report.ok
        assert len(report.errors) == 1 and "digest" in report.errors[0]

    def test_swapped_entries_are_refused(self, tmp_path):
        """Pointing one key's index row at another valid entry must be
        caught by the full-key comparison on lookup."""
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        a, b = self._entry_hashes(store_dir)[:2]
        rewrite_entry(store_dir, b, read_entry(store_dir, a))
        with pytest.raises(ParameterError, match="does not match"):
            execute_spec(spec, results_path=tmp_path / "b.jsonl",
                         store=store_dir)

    def test_foreign_directory_is_not_a_store(self, tmp_path):
        (tmp_path / "store.json").write_text('{"format": "something"}')
        with pytest.raises(ParameterError, match="foreign"):
            CampaignStore(tmp_path)
        with pytest.raises(ParameterError, match="no results store"):
            CampaignStore(tmp_path / "absent", create=False)


class TestGc:
    def test_lru_eviction_to_byte_budget(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        store = CampaignStore(store_dir)
        before = store.stat()

        # Stamp everything ancient, half the entries a little less so.
        spec = make_spec()
        config = spec.config()
        plans = plan_cells(config)
        recent_hashes = {key_hash(cell_key(config, plan))
                         for plan in plans[:2]}
        stamp_entries(store_dir, 1.0)
        stamp_entries(store_dir, 2.0, recent_hashes)

        budget = before.total_bytes // 2
        report = store.gc(max_bytes=budget)
        assert report.bytes_after <= budget
        survivors = {e.hash for e in store.entries()}
        # Oldest first: every survivor is one of the recent entries.
        assert survivors <= recent_hashes

    def test_gc_never_evicts_a_pinned_queue_footprint(self, tmp_path):
        """The satellite invariant: gc --max-bytes must not evict cells
        referenced by an in-progress queue manifest, however small the
        budget."""
        from repro.sim.distributed import ensure_queue, queue_status

        store_dir = tmp_path / "store"
        pinned_spec = make_spec(m_values=(300.0, 600.0))
        other_spec = make_spec(m_values=(1200.0, 2400.0))
        execute_spec(pinned_spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        execute_spec(other_spec, results_path=tmp_path / "b.jsonl",
                     store=store_dir)

        # An in-progress queue for the pinned spec (no worker ran yet).
        queue = tmp_path / "queue"
        queue_spec = make_spec(m_values=(300.0, 600.0), policy=ExecutionPolicy(
            sink="framed", queue=str(queue)))
        ensure_queue(queue, queue_spec.fingerprint(),
                     n_chunks=4, chunk_size=1, n_cells=4)
        assert not queue_status(queue).complete

        store = CampaignStore(store_dir)
        report = store.gc(max_bytes=0, pin_queues=[queue])
        assert report.pinned_entries == 4
        survivors = {e.hash for e in store.entries()}
        config = pinned_spec.config()
        expected = {key_hash(cell_key(config, plan))
                    for plan in plan_cells(config)}
        assert survivors == expected
        # ...and the queue's campaign still resolves entirely from store
        # (coverage counts replicas: 4 cells x 2).
        assert store.coverage(pinned_spec) == (8, 8)

    def test_max_age_and_dry_run(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        store = CampaignStore(store_dir)
        stamp_entries(store_dir, 1.0)
        dry = store.gc(max_age=3600.0, dry_run=True)
        assert dry.evicted_entries == 4
        assert store.stat().entries == 4  # nothing actually deleted
        wet = store.gc(max_age=3600.0)
        assert wet.evicted_entries == 4
        assert store.stat().entries == 0

    def test_gc_requires_a_budget_shape(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        with pytest.raises(ParameterError, match="max_bytes"):
            store.gc(max_bytes=-1)
        with pytest.raises(ParameterError, match="max_age"):
            store.gc(max_age=0.0)


class TestQueryExportReport:
    def test_query_filters(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        store = CampaignStore(store_dir)
        assert len(list(store.query(protocol="triple"))) == 2
        assert len(list(store.query(protocol="triple", M=300.0))) == 1
        assert len(list(store.query(protocol="nope"))) == 0
        stat = store.stat()
        assert stat.entries == 4
        assert stat.protocols == {"double-nbl": 2, "triple": 2}
        assert {e.replicas for e in store.entries()} == {2}

    def test_export_matches_framed_run_and_resumes(self, tmp_path):
        store_dir = tmp_path / "store"
        spec_framed = make_spec(policy=ExecutionPolicy(sink="framed"))
        execute_spec(spec_framed, results_path=tmp_path / "ref.jsonl",
                     store=store_dir)
        store = CampaignStore(store_dir)
        out = tmp_path / "export.jsonl"
        report = store.export(spec_framed, out)
        assert (report.cells, report.frames) == (4, 8)
        assert out.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        # The export carries its manifest and resumes as complete.
        resumed = execute_spec(spec_framed, results_path=out, resume=True)
        assert resumed.report.cells_run == 0
        assert resumed.report.cells_skipped == 4

    def test_export_on_full_disk_leaves_previous_output(self, tmp_path,
                                                         full_disk):
        store_dir = tmp_path / "store"
        spec_framed = make_spec(policy=ExecutionPolicy(sink="framed"))
        execute_spec(spec_framed, results_path=tmp_path / "ref.jsonl",
                     store=store_dir)
        out = tmp_path / "out" / "export.jsonl"
        out.parent.mkdir()
        out.write_text("previous\n")
        manifest = out.with_name(out.name + ".manifest")
        manifest.write_text("{}\n")
        with pytest.raises(OSError):
            CampaignStore(store_dir).export(spec_framed, out)
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "export.jsonl", "export.jsonl.manifest"]
        assert out.read_text() == "previous\n"
        assert manifest.read_text() == "{}\n"

    def test_export_refuses_missing_cells(self, tmp_path):
        store_dir = tmp_path / "store"
        execute_spec(make_spec(m_values=(300.0,)),
                     results_path=tmp_path / "a.jsonl", store=store_dir)
        store = CampaignStore(store_dir)
        with pytest.raises(ParameterError, match="missing 2 of 4"):
            store.export(make_spec(), tmp_path / "out.jsonl")

    def test_cells_from_store_match_execution_cells(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = make_spec()
        run = execute_spec(spec, results_path=tmp_path / "a.jsonl",
                           store=store_dir)
        cells = cells_from_store(CampaignStore(store_dir), spec)
        assert [c.summary for c in cells] == [c.summary for c in run.cells]

    def test_store_report_matches_campaign_report(self, tmp_path):
        from repro.experiments.report import campaign_report, store_report

        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        from_file = campaign_report(tmp_path / "a.jsonl")
        from_store = store_report(store_dir, spec)
        assert from_file.split("===")[2:] == from_store.split("===")[2:]
        assert "no re-simulation" in from_store


class TestCellEntries:
    def test_longer_prefix_replaces_shorter_never_the_reverse(
            self, tmp_path):
        from repro.sim.adaptive import FixedReplicas

        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=2),
                     results_path=tmp_path / "two.jsonl", store=store_dir)
        store = CampaignStore(store_dir, cache=None)
        backend = CountingBackend()
        execute_spec(make_spec(replicas=4),
                     results_path=tmp_path / "four.jsonl",
                     backend=backend, store=store_dir)
        assert backend.cells_dispatched == 4  # a 2-prefix cannot serve 4
        assert [e.replicas for e in store.entries()] == [4] * 4
        # The 2-prefixes are superseded; compaction drops them.
        report = store.compact()
        assert (report.packed_entries, report.merged_segments) == (4, 2)
        assert {row.replicas for _, row in store_rows(store_dir).values()} \
            == {4}

        config = make_spec(replicas=2).grid
        plan = plan_cells(config)[0]
        two = store.load_cell(config, plan, FixedReplicas(2))
        assert len(two.results) == len(two.records) == 2
        assert store.publish_cell(config, plan, two.records) == 0
        assert [e.replicas for e in store.entries()] == [4] * 4
        # The 4-prefixes serve the 2-replica campaign, byte for byte.
        backend = CountingBackend()
        execute_spec(make_spec(replicas=2),
                     results_path=tmp_path / "warm.jsonl",
                     backend=backend, store=store_dir)
        assert backend.cells_dispatched == 0
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "two.jsonl").read_bytes()

    def test_short_cached_prefix_rereads_the_disk_once(self, tmp_path):
        """A cached prefix too short for the controller is re-read from
        disk, where a longer one may have landed since (another
        process); a short prefix just read from disk is a plain miss."""
        from repro import io as repro_io
        from repro.sim.adaptive import FixedReplicas
        from repro.sim.backends import run_cell

        config = make_spec(replicas=4).grid
        plan = plan_cells(config)[0]
        four = run_cell(config, plan, FixedReplicas(4))
        other = CampaignStore(tmp_path / "store", cache=None)
        texts = [repro_io.dump_result(r) for r in four]
        other.publish_cell(config, plan, texts[:2])
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        lookups = []
        read = store._read

        def counting_read(key):
            lookups.append(key)
            return read(key)

        store._read = counting_read

        def load(replicas):
            hit = store.load_cell(config, plan, FixedReplicas(replicas))
            if hit is None:
                return None
            got = [repro_io.dump_result(r) for r in hit.results]
            assert list(hit.records) == got
            return got

        assert load(4) is None
        assert len(lookups) == 1
        assert load(2) == texts[:2]
        assert len(lookups) == 2  # served from the cache
        other.publish_cell(config, plan, texts)
        assert load(4) == texts
        assert len(lookups) == 4

    def test_compact_keeps_the_longest_copy(self, tmp_path):
        from repro.store.segments import load_segments, write_segment

        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=2),
                     results_path=tmp_path / "two.jsonl", store=store_dir)
        store = CampaignStore(store_dir, cache=None)
        store.compact()  # the 2-prefixes, in one compacted segment
        (compacted,) = load_segments(store_dir / "segments")
        short = [(row, compacted.read(row))
                 for _, row in sorted(compacted.entries.items())]
        execute_spec(make_spec(replicas=4),
                     results_path=tmp_path / "four.jsonl", store=store_dir)
        # The 4-prefixes sit in the second run's writer segment beside
        # their shorter copies: they are the ones listed and served.
        assert [e.replicas for e in store.entries()] == [4] * 4
        assert store.coverage(make_spec(replicas=4)) == (16, 16)

        def warm_four(name):
            backend = CountingBackend()
            execute_spec(make_spec(replicas=4),
                         results_path=tmp_path / name, backend=backend,
                         store=store_dir)
            assert backend.cells_dispatched == 0
            assert (tmp_path / name).read_bytes() \
                == (tmp_path / "four.jsonl").read_bytes()

        warm_four("warm-a.jsonl")
        report = store.compact()
        assert (report.packed_entries, report.merged_segments) == (4, 2)
        # The superseded copies were not carried over.
        assert report.reclaimed_bytes == sum(len(data) for _, data in short)
        (segment,) = load_segments(store_dir / "segments")
        assert {row.replicas for row in segment.entries.values()} == {4}
        warm_four("warm-b.jsonl")

        # The reverse: stale 2-prefix copies in a later segment are
        # never served, and compaction drops them.
        write_segment(store_dir / "segments", short)
        warm_four("warm-c.jsonl")
        assert [e.replicas for e in store.entries()] == [4] * 4
        report = store.compact()
        assert (report.packed_entries, report.merged_segments) == (4, 2)
        assert {row.replicas for _, row in store_rows(store_dir).values()} \
            == {4}
        assert store.verify().ok

    def test_old_store_opens_serves_nothing_and_is_reported(self, tmp_path):
        """A directory left by older layouts still opens: its loose
        entries (version 1 and version 2), a flat-layout file and a
        version-1 segment are never served, every cell recomputes
        byte-identically, and verify names every leftover path."""
        import hashlib

        from repro import io as repro_io
        from repro.sim.adaptive import FixedReplicas
        from repro.sim.backends import replica_seed, run_cell

        spec = make_spec()
        config = spec.grid
        execute_spec(spec, results_path=tmp_path / "ref.jsonl")
        store_dir = tmp_path / "store"
        CampaignStore(store_dir)
        objects = store_dir / "objects"
        leftovers, rows, data = [], [], b""

        def loose(hash_, text, flat=False):
            path = objects / (f"{hash_}.json" if flat
                              else f"{hash_[:2]}/{hash_}.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            leftovers.append(str(path))

        for plan in plan_cells(config):
            results = run_cell(config, plan, FixedReplicas(2))
            texts = [repro_io.dump_result(r) for r in results]
            key = cell_key(config, plan)
            if plan.index == 0:  # a version-2 loose entry, and flat
                body = "".join(line + "\n" for line in texts)
                text = json.dumps({
                    "format": "repro-store-entry", "version": 2,
                    "key": key, "replicas": 2,
                    "payload_sha256": hashlib.sha256(
                        body.encode()).hexdigest(),
                }, sort_keys=True) + "\n" + body
                loose(key_hash(key), text)
                loose(key_hash(key), text, flat=True)
                continue
            for replica, result in enumerate(results):
                old_key = dict(key, version=1,
                               seed=replica_seed(config, replica))
                payload = repro_io.to_envelope(result)
                text = json.dumps({
                    "format": "repro-store-entry", "version": 1,
                    "key": old_key, "payload": payload,
                    "payload_sha256": hashlib.sha256(json.dumps(
                        payload, sort_keys=True).encode()).hexdigest(),
                }, sort_keys=True) + "\n"
                hash_ = key_hash(old_key)
                if plan.index == 1:  # version-1 loose entries
                    loose(hash_, text)
                else:  # a version-1 segment row: 11 fields, no replicas
                    rows.append([hash_, len(data), len(text), 1.0,
                                 plan.protocol, plan.M, plan.phi, 12,
                                 old_key["seed"], None, 900.0])
                    data += text.encode()
        (store_dir / "segments" / "old.seg").write_bytes(data)
        (store_dir / "segments" / "old.idx").write_text(json.dumps({
            "format": "repro-store-segment-index", "version": 1,
            "segment": "old.seg", "entries": rows,
        }))
        leftovers += [str(store_dir / "segments" / name)
                      for name in ("old.idx", "old.seg")]

        store = CampaignStore(store_dir, cache=None)
        assert store.stat().entries == 0
        assert store.coverage(spec) == (0, 8)
        report = store.verify()
        assert report.checked == len(leftovers) == 6
        assert sorted(e.split(": ")[0] for e in report.errors) \
            == sorted(leftovers)
        assert all("never served" in e for e in report.errors)

        backend = CountingBackend()
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            backend=backend, store=store_dir)
        assert backend.cells_dispatched == 4
        assert warm.report.cells_cached == 0
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()
        # Compaction and gc leave the leftovers alone; verify keeps
        # naming them until they are deleted.
        store.compact()
        store.gc(max_bytes=0)
        report = store.verify()
        assert sorted(e.split(": ")[0] for e in report.errors) \
            == sorted(leftovers)
        for path in leftovers:
            os.unlink(path)
        assert store.verify().ok

    def test_racing_publishers_of_one_cell_never_tear(self, tmp_path):
        """Threads of one process race publishes of different prefix
        lengths and lookups of the same cells on a shared store: every
        read is a verified prefix of the same replicas (a shorter publish
        may win a race, but no entry is ever torn or mixed)."""
        import random
        import threading

        from repro import io as repro_io
        from repro.sim.adaptive import FixedReplicas
        from repro.sim.backends import run_cell

        config = make_spec(replicas=4).grid
        plan = plan_cells(config)[0]
        full = run_cell(config, plan, FixedReplicas(4))
        texts = [repro_io.dump_result(r) for r in full]
        base = cell_key(config, plan)
        # Synthetic cells (seed shifted): the store never re-derives
        # results from a key, so they all hold the same replicas.
        keys = [dict(base, seed=base["seed"] + k) for k in range(100)]
        store = CampaignStore(tmp_path / "store", cache=None)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for key in keys:
                    store.publish(key, texts[:rng.randint(1, 4)])
                    got = store.lookup(key)
                    assert [repro_io.dump_result(r) for r in got] \
                        == texts[:len(got)]
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.verify().ok

    def test_high_churn_publishes_one_entry_per_cell(self, tmp_path):
        from repro.experiments.scenarios import get_campaign_preset

        spec = get_campaign_preset("high-churn").spec(
            replicas=32, policy=ExecutionPolicy(backend="vectorized"))
        store_dir = tmp_path / "store"
        run = execute_spec(spec, results_path=tmp_path / "hc.jsonl",
                           store=store_dir)
        assert run.report.cells_run == 18
        assert len(store_rows(store_dir)) == 18
        assert len(list((store_dir / "segments").glob("*.idx"))) == 1
        store = CampaignStore(store_dir, cache=None)
        assert [e.replicas for e in store.entries()] == [32] * 18
        assert store.coverage(spec) == (576, 576)


_ROUND_TRIP = ("entry payload does not survive a serialisation round-trip; "
               "the entry is corrupt — drop it with `store compact` and "
               "re-run to repopulate")
_FOREIGN = ("replica field {!r} holds a {}, which the engines never write "
            "there; the entry is corrupt — drop it with `store compact` and "
            "re-run to repopulate")


def _line_edits() -> dict:
    """Edits of one stored replica line, by name."""
    import re

    summary = json.dumps({
        "format": "repro-results", "kind": "MonteCarloSummary",
        "payload": {"ci_high": 0.1, "ci_low": 0.1, "confidence": 0.95,
                    "mean": 0.1, "meta": {}, "n_replicas": 1, "std": 0.0,
                    "success_ci": [0.0, 1.0], "success_rate": 1.0},
        "version": 2}, sort_keys=True)
    return {
        "reordered-keys": lambda line: line.replace(
            '"format": "repro-results", "kind": "DesResult"',
            '"kind": "DesResult", "format": "repro-results"', 1),
        "float-for-int": lambda line: re.sub(
            r'"commits": (\d+)', r'"commits": \1.0', line, count=1),
        "extra-space": lambda line: line.replace('"kind": ', '"kind":  ', 1),
        "two-values": lambda line: line + ", " + line,
        "bool-for-int": lambda line: re.sub(
            r'"rollbacks": \d+', '"rollbacks": true', line, count=1),
        "nan-literal": lambda line: line.replace(
            '{"__float__": "nan"}', "NaN", 1),
        "duplicate-key": lambda line: line.replace(
            '{"format": "repro-results"',
            '{"format": "repro-results", "format": "repro-results"', 1),
        "summary-line": lambda line: summary,
        "other-period": lambda line: re.sub(
            r'"period": [0-9.]+', '"period": 1.5', line, count=1),
    }


class TestAdmitCheck:
    """The full check a disk read makes: every stored line decodes to
    an engine-shape ``DesResult`` that re-encodes to exactly that line.
    Each case edits one replica line and recomputes the header's
    ``payload_sha256``, so only the decode/round-trip check can tell."""

    def _edited(self, tmp_path, edit):
        """A fresh store whose first entry has replica line 1 edited:
        ``(store dir, key, label, stored lines)``."""
        import hashlib

        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=3), store=store_dir)
        hash_ = sorted(store_rows(store_dir))[0]
        header, *lines = \
            read_entry(store_dir, hash_).decode().split("\n")[:-1]
        lines[1] = edit(lines[1])
        body = "".join(line + "\n" for line in lines)
        head = json.loads(header)
        head["payload_sha256"] = hashlib.sha256(body.encode()).hexdigest()
        rewrite_entry(store_dir, hash_, (
            json.dumps(head, sort_keys=True) + "\n" + body).encode())
        path, row = store_rows(store_dir)[hash_]
        return store_dir, head["key"], f"{path}@{row.offset}", lines

    @pytest.mark.parametrize("case, message", [
        ("reordered-keys", "{label}: " + _ROUND_TRIP),
        ("extra-space", "{label}: " + _ROUND_TRIP),
        ("two-values", "{label}: invalid JSON: {extra}"),
        ("nan-literal", "{label}: " + _ROUND_TRIP),
        ("duplicate-key", "{label}: " + _ROUND_TRIP),
        ("summary-line",
         "{label}: store entries hold raw DES runs, found a "
         "MonteCarloSummary"),
        ("float-for-int", "{label}: " + _FOREIGN.format("commits", "float")),
        ("bool-for-int", "{label}: " + _FOREIGN.format("rollbacks", "bool")),
    ])
    def test_non_canonical_line_is_refused(self, case, message, tmp_path):
        store_dir, key, label, lines = self._edited(
            tmp_path, _line_edits()[case])
        try:
            json.loads(lines[1])
            extra = None
        except json.JSONDecodeError as exc:
            extra = str(exc)
        expected = message.format(label=label, extra=extra)
        with pytest.raises(ParameterError) as refused:
            CampaignStore(store_dir, cache=None).lookup(key)
        assert str(refused.value) == expected
        report = CampaignStore(store_dir, cache=None).verify()
        assert report.errors == (expected,)

    @pytest.mark.parametrize("case", ["other-period"])
    def test_canonical_line_is_served_as_decoded(self, case, tmp_path):
        """A line the per-line reference round-trips is served: rows
        whose meta differ between replicas."""
        from repro.sim.adaptive import FixedReplicas

        store_dir, key, _, lines = self._edited(
            tmp_path, _line_edits()[case])
        rows = CampaignStore(store_dir, cache=None).lookup(key)
        assert rows == tuple(repro_io.load_result(line) for line in lines)
        assert [repro_io.dump_result(row) for row in rows] == lines
        assert CampaignStore(store_dir, cache=None).verify().ok
        config = make_spec(replicas=3).grid
        plan = next(plan for plan in plan_cells(config)
                    if cell_key(config, plan) == key)
        hit = CampaignStore(store_dir, cache=HotCellCache()).load_cell(
            config, plan, FixedReplicas(3))
        assert list(hit.records) == lines and tuple(hit.results) == rows

    def test_full_cached_level_re_encodes_the_block(self, tmp_path):
        """``cached_verification="full"`` re-encodes a cached entry's
        block through the cell template, and the rows hits built from
        it: a column or a served row changed in place is caught, and
        the entry is read again from disk."""
        spec = make_spec(replicas=3)
        execute_spec(spec, store=tmp_path / "store")
        key = cell_key(spec.config(), plan_cells(spec.config())[0])
        cache = HotCellCache()
        store = CampaignStore(tmp_path / "store", cache=cache,
                              cached_verification="full")
        truth = store.lookup(key)
        entry = cache.peek(store._cache_root, cache_key(key))
        assert entry.block.columns is not None
        assert store.lookup(key) == truth
        assert cache.peek(store._cache_root, cache_key(key)) is entry
        entry.block.columns["failures"][0] += 1
        assert store.lookup(key) == truth
        reread = cache.peek(store._cache_root, cache_key(key))
        assert reread is not entry
        store.lookup(key)[0].meta["protocol"] = "tampered"
        assert store.lookup(key) == truth
        assert cache.peek(store._cache_root, cache_key(key)) is not reread

    def test_rows_outside_the_template_take_the_per_line_loop(
            self, tmp_path):
        """Rows whose meta differ have no columnar shape: the batched
        decode declines them, and the per-line loop serves them."""
        _, _, _, lines = self._edited(
            tmp_path, _line_edits()["other-period"])
        assert repro_io.load_cell(lines) is None
        assert repro_io.load_cell(lines[:1]) is not None
        assert repro_io.load_cell(lines[1:2]) is not None


def _numbers(**floats):
    return st.one_of(st.floats(**floats),
                     st.integers(min_value=-2**63, max_value=2**64))


def _engine_cells():
    """Rows of one cell in the engines' shape: a shared meta (with or
    without ``engine``) and work target, a seed per row, int counts,
    any mix of ints and finite or non-finite floats in the other
    numeric fields, and fatal groups."""
    finite = _numbers(allow_nan=False, allow_infinity=False)
    count = st.integers(min_value=-2**63, max_value=2**64)
    meta = st.fixed_dictionaries({}, optional={
        "protocol": st.text(max_size=8), "period": finite, "phi": finite,
        "n": st.integers(min_value=0, max_value=10**6), "M": finite,
        "engine": st.sampled_from(["des", "vectorized"])})
    row = st.fixed_dictionaries({
        "status": st.sampled_from(["completed", "fatal", "timeout"]),
        "makespan": _numbers(), "work_done": _numbers(),
        "failures": count, "rollbacks": count,
        "work_lost": _numbers(), "commits": count,
        "risk_time": _numbers(), "fatal_time": _numbers(),
        "fatal_group": st.lists(st.integers(min_value=0, max_value=10**9),
                                max_size=3).map(tuple),
        "seed": st.integers(min_value=0, max_value=2**63)})
    return st.tuples(meta, _numbers(),
                     st.lists(row, min_size=1, max_size=6)).map(
        lambda cell: [DesResult(work_target=cell[1], meta={
            **cell[0], "seed": fields.pop("seed")}, **fields)
            for fields in map(dict, cell[2])])


class TestLoadCell:
    @settings(max_examples=150, deadline=None)
    @given(rows=_engine_cells())
    def test_matches_the_per_line_path(self, rows):
        """For any rows in the engines' shape, the batched decode gives
        the per-line path's rows, wastes and records."""
        lines = [repro_io.dump_result(row) for row in rows]
        block = repro_io.load_cell(lines)
        assert block is not None
        reference = tuple(map(repro_io.load_result, lines))
        assert block.rows == reference
        assert block.records == tuple(lines)
        assert repro_io.dump_cell(block) == tuple(lines)
        assert list(map(repr, block.waste)) \
            == [repr(row.waste) for row in reference]
        assert block.successes == sum(r.succeeded for r in reference)


def _count_encodes(monkeypatch) -> list:
    """Every record encode from here on, by result: each call of
    ``repro.io.dump_result`` or ``repro.io.dump_frame``, and each row of
    a ``repro.io.dump_cell`` block, made from outside the others."""
    from repro import io as repro_io

    calls: list = []
    depth = [0]

    def counting(encode, rows=lambda result: [result]):
        def wrapper(result, **framing):
            if not depth[0]:
                calls.extend(rows(result))
            depth[0] += 1
            try:
                return encode(result, **framing)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("dump_result", "dump_frame"):
        monkeypatch.setattr(repro_io, name,
                            counting(getattr(repro_io, name)))
    monkeypatch.setattr(repro_io, "dump_cell", counting(
        repro_io.dump_cell, rows=lambda block: block.rows))
    return calls


class TestEncodeOnce:
    """Each replica's record line is encoded once and shared by every
    writer: the sink and the store entry of a cold run, the store's own
    admit check and the sink of a warm one."""

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_cold_run_with_store_writes_encodes_each_replica_once(
            self, sink, tmp_path, monkeypatch):
        calls = _count_encodes(monkeypatch)
        execution = execute_spec(
            make_spec(replicas=3, policy=ExecutionPolicy(sink=sink)),
            results_path=tmp_path / "cold.jsonl",
            store=tmp_path / "store")
        replicas = [r for cell in execution.cells for r in cell.results]
        assert len(replicas) == 12
        assert len(calls) == len(replicas)
        assert {id(r) for r in calls} == {id(r) for r in replicas}
        assert len(store_rows(tmp_path / "store")) == 4

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_warm_rerun_encodes_only_inside_admit(
            self, sink, tmp_path, monkeypatch):
        """A warm re-run's only encodes are its admit checks: one cell
        template re-encode per entry (``repro.io.load_cell``) and no
        ``dump_result``; the sink and session encode nothing."""
        spec = make_spec(replicas=3, policy=ExecutionPolicy(sink=sink))
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        execute_spec(spec, results_path=cold, store=tmp_path / "store")
        calls = _count_encodes(monkeypatch)
        templates: list = []
        encode_cell = repro_io._encode_cell

        def counting_template(*args):
            templates.append(args)
            return encode_cell(*args)

        monkeypatch.setattr(repro_io, "_encode_cell", counting_template)
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        inside: list[tuple[int, int]] = []
        admit = store._admit

        def counting_admit(*args):
            before = len(calls), len(templates)
            try:
                return admit(*args)
            finally:
                inside.append((len(calls) - before[0],
                               len(templates) - before[1]))

        store._admit = counting_admit
        backend = CountingBackend()
        execute_spec(spec, results_path=warm, backend=backend, store=store)
        assert backend.cells_dispatched == 0
        # Per entry: no dump_result, one template encode.
        assert inside == [(0, 1)] * 4
        assert calls == [] and len(templates) == 4  # sink, session: 0
        assert warm.read_bytes() == cold.read_bytes()

    def test_warm_rerun_builds_no_rows(self, tmp_path, monkeypatch):
        """A store hit is columnar from the admit check to the sink: a
        warm re-run builds no ``DesResult`` at all."""
        spec = make_spec(replicas=3)
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        execute_spec(spec, results_path=cold, store=tmp_path / "store")
        built: list = []
        init = DesResult.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DesResult, "__init__", counting_init)
        warm_run = execute_spec(spec, results_path=warm,
                                store=CampaignStore(tmp_path / "store",
                                                    cache=HotCellCache()))
        assert warm_run.report.cells_cached == 4
        assert built == []
        assert warm.read_bytes() == cold.read_bytes()

    def test_campaign_nobody_writes_encodes_nothing(self, monkeypatch):
        calls = _count_encodes(monkeypatch)
        execution = execute_spec(make_spec(replicas=3))
        assert len(execution.cells) == 4
        assert calls == []

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_longer_entry_serves_a_shorter_spec_byte_for_byte(
            self, sink, tmp_path):
        """A 4-replica entry serves a 2-replica spec: its record lines
        are sliced with its results, so the warm file is that spec's
        cold file."""
        policy = ExecutionPolicy(sink=sink)
        two, warm = tmp_path / "two.jsonl", tmp_path / "warm.jsonl"
        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=2, policy=policy), results_path=two)
        execute_spec(make_spec(replicas=4, policy=policy),
                     results_path=tmp_path / "four.jsonl", store=store_dir)
        assert [e.replicas for e in CampaignStore(store_dir).entries()] \
            == [4] * 4
        backend = CountingBackend()
        execute_spec(make_spec(replicas=2, policy=policy),
                     results_path=warm, backend=backend, store=store_dir)
        assert backend.cells_dispatched == 0
        assert warm.read_bytes() == two.read_bytes()


class TestReadBookkeeping:
    """A lookup books every ``repro_store_*`` read series in two locked
    sections (on entry and on exit) and keeps each one's value."""

    def test_series_values_under_concurrent_lookups(self, tmp_path):
        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store")
        config = spec.config()
        keys = [cell_key(config, plan) for plan in plan_cells(config)]
        keys.append(dict(keys[0], seed=-1))  # absent
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        # Two lookups meet inside the store, so the high-water mark
        # must read 2 once both are in flight, and 1 stays the level a
        # single reader leaves.
        barrier = threading.Barrier(2)
        lookup = store._lookup

        def meeting_lookup(key, since):
            if key is keys[0]:
                barrier.wait(timeout=10.0)
            return lookup(key, since)

        store._lookup = meeting_lookup
        threads = [threading.Thread(target=store.lookup, args=(keys[0],))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        store._lookup = lookup
        for _ in range(3):
            for key in keys:
                store.lookup(key)
        hits, misses = 2 + 3 * 4, 3
        assert store._m_lookups.value == hits + misses
        assert store._m_results["hit"].value == hits
        assert store._m_results["miss"].value == misses
        assert store._m_lookup_seconds["hit"].count == hits
        assert store._m_lookup_seconds["miss"].count == misses
        assert store._m_active.value == 0
        assert store._m_peak.value == 2

    def test_a_failed_lookup_leaves_no_reader_behind(self, tmp_path):
        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store")
        store = CampaignStore(tmp_path / "store", cache=None)

        def failing_lookup(key, since):
            raise OSError("disk gone")

        store._lookup = failing_lookup
        with pytest.raises(OSError):
            store.lookup(cell_key(spec.config(),
                                  plan_cells(spec.config())[0]))
        assert store._m_lookups.value == 1
        assert store._m_active.value == 0 and store._m_peak.value == 1
        assert store._m_results["hit"].value \
            + store._m_results["miss"].value == 0


def _assert_same_cell(got, want) -> None:
    """``got`` equals ``want`` field by field (the summary's fields by
    ``repr``, so NaN statistics compare equal to themselves)."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "summary":
            for g in dataclasses.fields(b):
                assert repr(getattr(a, g.name)) == repr(getattr(b, g.name))
        else:
            assert a == b, f.name


@pytest.mark.parametrize("level", ["digest", "full"])
class TestSummaryMemo:
    """A cell entry keeps the aggregated cell of each prefix it served
    (``CachedEntry.cells``); it is served only from a hit that passed
    its verification, at either cached-verification level."""

    def _warm(self, tmp_path, level, replicas=4):
        spec = make_spec(replicas=replicas)
        execute_spec(spec, store=tmp_path / "store",
                     backend=SerialBackend())
        cache = HotCellCache()
        store = CampaignStore(tmp_path / "store", cache=cache,
                              cached_verification=level)
        return spec, cache, store

    def test_corrupt_payload_is_invalidated_not_served(
            self, tmp_path, level):
        spec, cache, store = self._warm(tmp_path, level)
        reference = cells_from_store(
            CampaignStore(tmp_path / "store", cache=None), spec)
        cells_from_store(store, spec)
        config = spec.config()
        key = cell_key(config, plan_cells(config)[0])
        entry = cache.peek(store._cache_root, cache_key(key))
        original = entry.payload_text
        assert set(entry.cells) == {4}
        poison = object()
        entry.cells[4] = poison
        object.__setattr__(entry, "payload_text",
                           original.replace('"', "'", 1))
        reads = []
        read_longest = store._read_longest

        def counting(hash_):
            reads.append(hash_)
            return read_longest(hash_)

        store._read_longest = counting
        cells = cells_from_store(store, spec)
        assert poison not in cells
        for got, want in zip(cells, reference):
            _assert_same_cell(got, want)
        assert reads == [key_hash(key)]  # that entry alone, from disk
        reread = cache.peek(store._cache_root, cache_key(key))
        assert reread is not entry
        assert reread.payload_text == original
        assert set(reread.cells) == {4} and reread.cells[4] is cells[0]

    def test_controllers_reading_different_prefixes(self, tmp_path, level):
        from repro.sim.adaptive import FixedReplicas
        from repro.sim.events import make_cell

        spec, _, store = self._warm(tmp_path, level)
        config = spec.config()
        controllers = (
            (FixedReplicas(2), 2),
            (AdaptiveCI(max_replicas=4, tolerance=100, min_replicas=3), 3),
            (FixedReplicas(4), 4),
        )
        for plan in plan_cells(config):
            for controller, length in controllers * 2:
                hit = store.load_cell(config, plan, controller)
                cell = hit.cell(plan)
                assert cell.summary.n_replicas == length
                _assert_same_cell(cell, make_cell(plan, hit.results))
            assert sorted(hit.entry.cells) == [2, 3, 4]

    def test_concurrent_readers_share_one_cell_per_prefix(
            self, tmp_path, level):
        """Eight threads resolving one spec at once all get the same cell
        objects: a racing build never replaces a cell already handed
        out.  Ten rounds, each over a fresh cache whose entries (but no
        cells) are loaded first, so the first builds race ten times."""
        spec, _, _ = self._warm(tmp_path, level, replicas=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                store = CampaignStore(tmp_path / "store",
                                      cache=HotCellCache(),
                                      cached_verification=level)
                store.resolve(spec)
                barrier = threading.Barrier(8)
                got: list = [None] * 8

                def read(i: int) -> None:
                    barrier.wait(timeout=10.0)
                    got[i] = [cells_from_store(store, spec)
                              for _ in range(3)]

                threads = [threading.Thread(target=read, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                first = got[0][0]
                for runs in got:
                    for cells in runs:
                        assert all(a is b for a, b
                                   in zip(cells, first, strict=True))
        finally:
            sys.setswitchinterval(interval)


class TestResolvePass:
    """``CampaignStore.resolve`` and ``load_cells`` walk a footprint
    once: each cell key is computed once, a cold pass re-scans the
    segments once instead of once per missing cell, and a render
    without a ``resolve`` result skips the coverage probes."""

    def _counting(self, monkeypatch, store, name) -> list:
        calls = []
        method = getattr(store, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return method(*args, **kwargs)

        monkeypatch.setattr(store, name, counting)
        return calls

    def test_load_cells_computes_each_key_once(self, tmp_path, monkeypatch):
        import repro.store.store as store_module

        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store",
                     backend=SerialBackend())
        keys = []
        real = store_module.cell_key

        def counting(config, plan, *, engine="des"):
            keys.append(plan.index)
            return real(config, plan, engine=engine)

        monkeypatch.setattr(store_module, "cell_key", counting)
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        config = spec.config()
        plans = plan_cells(config)
        hits = store.load_cells(config, plans, spec.controller())
        assert sorted(hits) == sorted(keys) == [p.index for p in plans]

    def test_cold_cells_rescan_once_and_are_not_looked_up(
            self, tmp_path, monkeypatch):
        """Half the grid stored and compacted, the other half absent:
        one segment re-scan for the pass, lookups only for the stored
        cells, and the coverage a fresh store reports."""
        store_dir = tmp_path / "store"
        execute_spec(make_spec(m_values=(300.0,)), store=store_dir,
                     backend=SerialBackend())
        CampaignStore(store_dir).compact()
        spec = make_spec()
        store = CampaignStore(store_dir, cache=HotCellCache())
        rescans = self._counting(monkeypatch, store, "_refresh_segments")
        reads = self._counting(monkeypatch, store, "_read")
        present, total, cells = store.resolve(spec)
        assert (present, total) == CampaignStore(
            store_dir, cache=HotCellCache()).coverage(spec) == (4, 8)
        assert len(rescans) == 1
        warm = [plan for plan, hit in cells if hit is not None]
        assert [plan.M for plan in warm] == [300.0, 300.0]
        assert [plan.M for plan, hit in cells if hit is None] \
            == [600.0, 600.0]
        assert sorted(key_hash(key) for (key,) in reads) == sorted(
            key_hash(cell_key(spec.config(), plan)) for plan in warm)

    def test_cold_campaign_scans_segments_once(self, tmp_path,
                                               monkeypatch):
        """An 18-cell campaign into an empty store: its one store pass
        misses every cell and reads the segments directory once, not
        once per missed cell; a warm pass on the same instance reads it
        not at all, and a pass with new misses once."""
        import repro.store.store as store_module
        from repro.experiments.scenarios import get_campaign_preset

        scans = []
        real = store_module.load_segments

        def counting(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_module, "load_segments", counting)
        policy = ExecutionPolicy(backend="vectorized")
        spec = get_campaign_preset("high-churn").spec(
            replicas=2, seed=11, policy=policy)
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        loads = self._counting(monkeypatch, store, "load_cell")
        execution = execute_spec(spec, store=store)
        assert len(loads) == execution.report.cells_total == 18
        assert execution.report.cells_cached == 0
        assert len(scans) == 1
        scans.clear()
        assert execute_spec(spec, store=store).report.cells_cached == 18
        assert scans == []
        fresh = get_campaign_preset("high-churn").spec(
            replicas=2, seed=12, policy=policy)
        execute_spec(fresh, store=store)
        assert len(scans) == 1

    def test_warm_pass_touches_no_segment_index(self, tmp_path,
                                                 monkeypatch):
        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store",
                     backend=SerialBackend())
        CampaignStore(tmp_path / "store").compact()
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        assert store.resolve(spec)[:2] == (8, 8)
        rescans = self._counting(monkeypatch, store, "_refresh_segments")
        probes = self._counting(monkeypatch, store, "_stored_replicas")
        assert store.resolve(spec)[:2] == (8, 8)
        assert rescans == [] and probes == []

    def test_render_without_a_resolve_result_skips_coverage_probes(
            self, tmp_path, monkeypatch):
        """An adaptive spec stopping at 3 of a 16-replica budget: its
        ``resolve`` probes every cell for a longer copy on disk, a plain
        ``cells_from_store`` (the render after a fill) probes none."""
        execute_spec(make_spec(replicas=4), store=tmp_path / "store",
                     backend=SerialBackend())
        spec = make_spec(replicas=16, policy=ExecutionPolicy(
            sink="framed", controller=AdaptiveCI(
                max_replicas=16, tolerance=100, min_replicas=3)))
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        probes = self._counting(monkeypatch, store, "_stored_replicas")
        present, total, cells = store.resolve(spec)
        assert (present, total) == (16, 64)
        assert len(probes) == 4
        probes.clear()
        plain = cells_from_store(store, spec)
        assert probes == []
        assert plain == cells_from_store(store, spec, (present, total,
                                                       cells))


class TestDistributedStore:
    def test_queue_worker_serves_cells_from_store(self, tmp_path):
        """A distributed worker consults the store per claimed cell: the
        queue completes with zero simulations and the merge is
        byte-identical to a storeless framed run."""
        from repro.sim.distributed import merge_shards, queue_status

        store = tmp_path / "store"
        framed = make_spec(policy=ExecutionPolicy(sink="framed"))
        execute_spec(framed, results_path=tmp_path / "ref.jsonl",
                     store=store)

        queue = tmp_path / "queue"
        worker = make_spec(policy=ExecutionPolicy(
            sink="framed", queue=str(queue), worker_id="w1",
            store=str(store), lease_timeout=30.0, poll_interval=0.01))
        execution = execute_spec(worker)
        assert queue_status(queue).complete
        assert execution.report.cells_cached == 4
        assert execution.report.replicas_run == 0
        merged = tmp_path / "merged.jsonl"
        merge_shards(queue, merged)
        assert merged.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_queue_plus_store_reads_keep_chunk_layout(self, tmp_path):
        """Store hits must not prune the queue's chunk plan: every chunk
        still gets a ticket and a done marker."""
        from repro.sim.distributed import queue_status

        store = tmp_path / "store"
        execute_spec(make_spec(), results_path=tmp_path / "a.jsonl",
                     store=store)
        queue = tmp_path / "queue"
        worker = make_spec(policy=ExecutionPolicy(
            sink="framed", queue=str(queue), worker_id="w1",
            store=str(store), lease_timeout=30.0, poll_interval=0.01))
        execute_spec(worker)
        status = queue_status(queue)
        assert (status.n_chunks, status.done) == (4, 4)

    @pytest.mark.parametrize("placement", ["single-machine", "queue"])
    def test_half_warm_sources_are_true(self, placement, tmp_path):
        """Over a half-warm store a queue worker labels its in-chunk
        store hits ``source="store"`` exactly like a single-machine run:
        same per-source counts, only backend cells published, no
        duplicate publish, and the report counts the same cells."""
        import collections
        import gc

        from repro.obs import default_registry
        from repro.obs.metrics import snapshot_from_dict
        from repro.sim.events import CellFinished, EventConsumer, StorePublisher
        from repro.sim.executor import CampaignSession

        def duplicates():
            return sum(
                e["value"] for e in snapshot_from_dict(
                    default_registry().snapshot())
                if e["name"] == "repro_store_publish_total"
                and e["labels"] == {"result": "duplicate"})

        class Sources(EventConsumer):
            def __init__(self):
                self.counts = collections.Counter()

            def on_event(self, event):
                if isinstance(event, CellFinished):
                    self.counts[event.source] += 1

        store = CampaignStore(tmp_path / "store", create=True)
        execute_spec(make_spec(m_values=(300.0, 600.0)), store=store)
        policy = ExecutionPolicy(sink="framed")
        if placement == "queue":
            policy = ExecutionPolicy(
                sink="framed", queue=str(tmp_path / "queue"),
                worker_id="w1", lease_timeout=30.0, poll_interval=0.01)
        sources = Sources()
        session = CampaignSession(
            make_spec(m_values=(600.0, 1200.0), policy=policy),
            store=store, consumers=[sources])
        gc.collect()  # dead stores must not leave the sum mid-run
        before = duplicates()
        report = session.run().report
        assert sources.counts == {"store": 2, "backend": 2}
        publisher = next(c for c in session.bus.consumers
                         if isinstance(c, StorePublisher))
        assert publisher.published == sources.counts["backend"]
        assert duplicates() - before == 0
        assert (report.cells_cached, report.cells_run,
                report.replicas_run) == (2, 2, 4)


class TestPooledWorker:
    def test_worker_processes_requires_queue(self):
        with pytest.raises(ParameterError, match="worker_processes"):
            ExecutionPolicy(worker_processes=4)
        with pytest.raises(ParameterError, match="worker_processes"):
            ExecutionPolicy(worker_processes=0)

    def test_workers_with_queue_still_refused(self, tmp_path):
        with pytest.raises(ParameterError, match="worker_processes=N"):
            ExecutionPolicy(workers=4, sink="framed",
                            queue=str(tmp_path / "q"))
        with pytest.raises(ParameterError, match="sink='framed'"):
            ExecutionPolicy(queue=str(tmp_path / "q"), worker_processes=2)

    def test_pooled_policy_round_trips_and_is_volatile(self, tmp_path):
        pooled = ExecutionPolicy(sink="framed", queue=str(tmp_path / "q"),
                                 worker_processes=4)
        spec = make_spec(policy=pooled)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.identity().policy.worker_processes == 1

    @pytest.mark.campaign
    def test_pooled_worker_merge_matches_serial(self, tmp_path):
        from repro.sim.distributed import merge_shards, queue_status

        framed = make_spec(policy=ExecutionPolicy(sink="framed"))
        execute_spec(framed, results_path=tmp_path / "ref.jsonl")
        queue = tmp_path / "queue"
        pooled = make_spec(policy=ExecutionPolicy(
            sink="framed", queue=str(queue), worker_id="w1",
            worker_processes=2, lease_timeout=30.0, poll_interval=0.01))
        execution = execute_spec(pooled)
        assert execution.report.workers == 2
        assert queue_status(queue).complete
        merged = tmp_path / "merged.jsonl"
        merge_shards(queue, merged)
        assert merged.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


@pytest.mark.campaign
class TestConcurrentAccess:
    """Two independently started OS processes against one store."""

    def _run(self, store, results, seed):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign",
             "--protocols", "double-nbl,triple", "--M", "300,600",
             "--phi", "1.0", "--n", "12", "--work-target", "15min",
             "--replicas", "2", "--seed", str(seed),
             "--store", str(store), "--results", str(results)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_two_processes_publish_and_lookup_race_free(self, tmp_path):
        """Both processes run the same grid against one store at once:
        atomic-rename publishing means whatever interleaving happens,
        both results files are byte-identical and every store entry
        survives verification."""
        store = tmp_path / "store"
        procs = [
            self._run(store, tmp_path / f"r{i}.jsonl", seed=2027)
            for i in (1, 2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        a = (tmp_path / "r1.jsonl").read_bytes()
        assert a == (tmp_path / "r2.jsonl").read_bytes()
        report = CampaignStore(store).verify()
        assert report.ok and report.checked == 4
        # A third, sequential run is fully warm.
        proc = self._run(store, tmp_path / "r3.jsonl", seed=2027)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "(4 cells served from it)" in out
        assert (tmp_path / "r3.jsonl").read_bytes() == a
