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
  a longer prefix replaces a shorter one (loose and across
  compaction), never the reverse, and version-1 per-replica stores
  open, miss, recompute and are reported by ``verify``.
* **Safety** — corruption is refused loudly, eviction never touches a
  pinned footprint, and concurrent publishers converge race-free.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import ParameterError
from repro.sim.adaptive import AdaptiveCI
from repro.sim.backends import CampaignBackend, SerialBackend
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec, plan_cells
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy
from repro.store import (
    CampaignStore,
    HotCellCache,
    cell_key,
    cells_from_store,
    key_hash,
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
    def _entry_paths(self, store_dir):
        return sorted((store_dir / "objects").glob("*/*.json"))

    def test_corrupt_entry_is_refused_not_served(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        victim = self._entry_paths(store_dir)[0]
        victim.write_text("{ not json")
        with pytest.raises(ParameterError, match="corrupt store entry"):
            execute_spec(spec, results_path=tmp_path / "b.jsonl",
                         store=store_dir)

    def test_undecodable_entry_is_refused_and_reported(self, tmp_path):
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        victim = self._entry_paths(store_dir)[0]
        victim.write_bytes(victim.read_bytes() + b"\xff\xfe\n")
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
        victim = self._entry_paths(store_dir)[0]
        header, first, rest = victim.read_text().split("\n", 2)
        replica = json.loads(first)
        replica["payload"]["makespan"] += 1.0
        victim.write_text("\n".join(
            [header, json.dumps(replica, sort_keys=True), rest]))
        report = CampaignStore(store_dir).verify()
        assert not report.ok
        assert len(report.errors) == 1 and "digest" in report.errors[0]

    def test_swapped_entries_are_refused(self, tmp_path):
        """Renaming one valid entry onto another key's address must be
        caught by the full-key comparison on lookup."""
        store_dir = tmp_path / "store"
        spec = make_spec()
        execute_spec(spec, results_path=tmp_path / "a.jsonl",
                     store=store_dir)
        a, b = self._entry_paths(store_dir)[:2]
        payload = a.read_bytes()
        b.write_bytes(payload)
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

        # Touch half the entries (a warm lookup) so they are recent.
        spec = make_spec()
        config = spec.config()
        plans = plan_cells(config)
        recent = plans[:2]
        for path in (store_dir / "objects").glob("*/*.json"):
            os.utime(path, (1.0, 1.0))  # everything ancient...
        recent_hashes = set()
        for plan in recent:
            h = key_hash(cell_key(config, plan))
            recent_hashes.add(h)
            os.utime(store_dir / "objects" / h[:2] / f"{h}.json")

        budget = before.total_bytes // 2
        report = store.gc(max_bytes=budget)
        assert report.bytes_after <= budget
        survivors = {e.hash for e in store.entries()}
        # LRU: every survivor is one of the recently-touched entries.
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
        for path in (store_dir / "objects").glob("*/*.json"):
            os.utime(path, (1.0, 1.0))
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


def _loose_entries(store_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in (store_dir / "objects").glob("*/*.json")}


def _restore_loose(store_dir, entries: dict[str, bytes]) -> None:
    for name, data in entries.items():
        path = store_dir / "objects" / name[:2] / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


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
        assert len(_loose_entries(store_dir)) == 4  # replaced in place

        config = make_spec(replicas=2).grid
        plan = plan_cells(config)[0]
        two = store.load_cell(config, plan, FixedReplicas(2))
        assert len(two) == 2
        assert store.publish_cell(config, plan, two) == 0
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
        other.publish_cell(config, plan, four[:2])
        store = CampaignStore(tmp_path / "store", cache=HotCellCache())
        lookups = []
        lookup = store.lookup

        def counting_lookup(key):
            lookups.append(key)
            return lookup(key)

        store.lookup = counting_lookup

        def load(replicas):
            hit = store.load_cell(config, plan, FixedReplicas(replicas))
            return hit and [repro_io.dump_result(r) for r in hit]

        assert load(4) is None
        assert len(lookups) == 1
        assert load(2) == [repro_io.dump_result(r) for r in four[:2]]
        assert len(lookups) == 2  # served from the cache
        other.publish_cell(config, plan, four)
        assert load(4) == [repro_io.dump_result(r) for r in four]
        assert len(lookups) == 4

    def test_compact_keeps_the_longest_copy(self, tmp_path):
        from repro.store.segments import load_segments

        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=2),
                     results_path=tmp_path / "two.jsonl", store=store_dir)
        short = _loose_entries(store_dir)
        store = CampaignStore(store_dir, cache=None)
        store.compact()  # the 2-prefixes, segment-resident
        execute_spec(make_spec(replicas=4),
                     results_path=tmp_path / "four.jsonl", store=store_dir)
        # The 4-prefixes sit loose beside their shorter segment copies:
        # they are the ones listed and served.
        assert [(e.origin, e.replicas) for e in store.entries()] \
            == [("loose", 4)] * 4
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
        assert (report.packed_entries, report.deduplicated) == (4, 0)
        # The superseded rows were rewritten out of the old segment,
        # which emptied and went away.
        (segment,) = load_segments(store_dir / "segments")
        assert {row.replicas for row in segment.entries.values()} == {4}
        warm_four("warm-b.jsonl")

        # The reverse: stale 2-prefix loose copies beside the 4-prefix
        # segment are never served, and compaction removes them.
        _restore_loose(store_dir, short)
        warm_four("warm-c.jsonl")
        assert [(e.origin, e.replicas) for e in store.entries()] \
            == [("segment", 4)] * 4
        report = store.compact()
        assert (report.packed_entries, report.deduplicated) == (0, 4)
        assert _loose_entries(store_dir) == {}
        assert store.verify().ok

    def test_version1_store_opens_misses_recomputes_and_is_reported(
            self, tmp_path):
        """A store written with one entry per replica still opens; its
        entries (loose or in a version-1 segment) are never served,
        every cell recomputes byte-identically, verify names each old
        entry by path, and gc evicts them."""
        import hashlib

        from repro import io as repro_io
        from repro.sim.adaptive import FixedReplicas
        from repro.sim.backends import replica_seed, run_cell

        spec = make_spec()
        config = spec.grid
        execute_spec(spec, results_path=tmp_path / "ref.jsonl")
        store_dir = tmp_path / "store"
        CampaignStore(store_dir)
        loose, rows, data = [], [], b""
        for plan in plan_cells(config):
            results = run_cell(config, plan, FixedReplicas(2))
            for replica, result in enumerate(results):
                key = dict(cell_key(config, plan), version=1,
                           seed=replica_seed(config, replica))
                payload = repro_io.to_envelope(result)
                text = json.dumps({
                    "format": "repro-store-entry", "version": 1,
                    "key": key, "payload": payload,
                    "payload_sha256": hashlib.sha256(json.dumps(
                        payload, sort_keys=True).encode()).hexdigest(),
                }, sort_keys=True) + "\n"
                hash_ = key_hash(key)
                if plan.index == 0:
                    path = store_dir / "objects" / hash_[:2] / f"{hash_}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
                    os.utime(path, (1.0, 1.0))
                    loose.append(str(path))
                else:  # a version-1 segment row: 11 fields, no replicas
                    rows.append([hash_, len(data), len(text), 1.0,
                                 plan.protocol, plan.M, plan.phi, 12,
                                 key["seed"], None, 900.0])
                    data += text.encode()
        (store_dir / "segments").mkdir()
        (store_dir / "segments" / "old.seg").write_bytes(data)
        (store_dir / "segments" / "old.idx").write_text(json.dumps({
            "format": "repro-store-segment-index", "version": 1,
            "segment": "old.seg", "entries": rows,
        }))

        store = CampaignStore(store_dir, cache=None)
        stat = store.stat()
        assert (stat.entries, stat.retired_entries) == (8, 8)
        assert "8 retired" in stat.describe()
        report = store.verify()
        assert report.checked == 8 and len(report.errors) == 8
        assert all("retired per-replica entry" in e for e in report.errors)
        assert sorted(e.split(": ")[0] for e in report.errors
                      if ".seg@" not in e) == sorted(loose)

        backend = CountingBackend()
        warm = execute_spec(spec, results_path=tmp_path / "warm.jsonl",
                            backend=backend, store=store_dir)
        assert backend.cells_dispatched == 4
        assert warm.report.cells_cached == 0
        assert (tmp_path / "warm.jsonl").read_bytes() \
            == (tmp_path / "ref.jsonl").read_bytes()

        # Any budget drops the version-1 segment whole, never rewriting
        # it; the retired loose files age out like any entry.
        gc = store.gc(max_bytes=10**12)
        assert gc.evicted_entries == 6
        assert list((store_dir / "segments").iterdir()) == []
        gc = store.gc(max_age=3600.0)
        assert gc.evicted_entries == 2
        stat = store.stat()
        assert (stat.entries, stat.retired_entries, stat.segments) \
            == (4, 0, 0)
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
                    store.publish(key, full[:rng.randint(1, 4)])
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
        assert len(_loose_entries(store_dir)) == 18
        store = CampaignStore(store_dir, cache=None)
        assert [e.replicas for e in store.entries()] == [32] * 18
        assert store.coverage(spec) == (576, 576)


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
