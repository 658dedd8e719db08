"""Campaign service: coalescing, the registry, and the HTTP daemon.

The contract under test, in order of importance:

* **Warm queries cost zero simulations** — a live daemon answers
  ``GET /reports`` for a fully-warehoused spec without dispatching a
  single replica (counting-backend proof), even while a submitted
  campaign executes concurrently against the same store.
* **Coalescing** — N identical concurrent cold report queries trigger
  exactly one simulation per cell; a timed-out waiter raises without
  cancelling the leader's work.
* **The stream is the truth** — the NDJSON event stream of a finished
  campaign replays into a results file byte-identical to a direct
  ``execute_spec`` run of the same spec.
* **Graceful lifecycle** — sessions drain on shutdown (no torn sinks),
  cancellation is cell-aligned and resumable, and the CLI daemon exits
  cleanly on SIGTERM.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import CampaignCancelled, ParameterError
from repro.experiments.report import store_report
from repro.obs import default_registry, snapshot_from_dict
from repro.service import (
    CampaignRegistry,
    CampaignService,
    Coalescer,
    CoalesceTimeout,
)
from repro.service.app import _MissingCells
from repro.service.registry import campaign_id
from repro.sim.adaptive import AdaptiveCI
from repro.sim.backends import CampaignBackend, SerialBackend
from repro.sim.campaign import CampaignConfig
from repro.sim.events import CellFinished, event_from_dict
from repro.sim.executor import execute_spec
from repro.sim.sinks import make_sink
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy
from repro.store import CampaignStore, HotCellCache, cells_from_store


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


class CountingBackend(CampaignBackend):
    """Serial execution that counts every cell dispatched to it;
    optionally gated so a test can hold a campaign mid-flight."""

    def __init__(self, gate: threading.Event | None = None):
        self.cells_dispatched = 0
        self.inner = SerialBackend()
        self.gate = gate
        self._lock = threading.Lock()

    def execute(self, config, chunks, controller):
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "test gate never opened"
        with self._lock:
            self.cells_dispatched += sum(len(c) for c in chunks)
        yield from self.inner.execute(config, chunks, controller)


def get_json(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def post_json(url: str, payload: dict, timeout: float = 30.0):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def registry_value(name: str) -> float:
    """``name`` summed over the process registry's live series."""
    return sum(e["value"] for e in snapshot_from_dict(
        default_registry().snapshot()) if e["name"] == name)


def report_url(service: CampaignService, spec: CampaignSpec,
               **extra: str) -> str:
    params = {"spec": json.dumps(spec.to_dict()), **extra}
    return service.url("/reports?" + urllib.parse.urlencode(params))


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_identical_concurrent_calls_compute_once(self):
        coalescer = Coalescer()
        started = threading.Barrier(8)
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            assert release.wait(timeout=10.0)
            return "value"

        results = [None] * 8

        def query(i):
            started.wait(timeout=10.0)
            results[i] = coalescer.run("key", compute)

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        # Give every follower time to park on the leader's flight.
        time.sleep(0.1)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert results == ["value"] * 8
        assert len(calls) == 1
        stats = coalescer.stats()
        assert stats.led == 1
        assert stats.joined == 7
        assert stats.in_flight == 0

    def test_timeout_does_not_cancel_the_leader(self):
        """The impatient caller gets CoalesceTimeout; the underlying
        computation still completes exactly once and its value reaches
        the leader."""
        coalescer = Coalescer()
        leader_in = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            leader_in.set()
            assert release.wait(timeout=10.0)
            return 42

        leader_result = []
        leader = threading.Thread(
            target=lambda: leader_result.append(
                coalescer.run("key", compute)),
        )
        leader.start()
        assert leader_in.wait(timeout=10.0)
        with pytest.raises(CoalesceTimeout):
            coalescer.run("key", compute, timeout=0.05)
        release.set()
        leader.join(timeout=10.0)
        assert leader_result == [42]
        assert len(calls) == 1  # the timeout never re-ran the work
        assert coalescer.stats().timeouts == 1

    def test_errors_reach_every_waiter(self):
        coalescer = Coalescer()
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=10.0)
            raise ParameterError("deliberate")

        errors = []

        def query():
            try:
                coalescer.run("key", compute)
            except ParameterError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=query) for _ in range(3)]
        threads[0].start()
        assert entered.wait(timeout=10.0)
        for t in threads[1:]:
            t.start()
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == ["deliberate"] * 3

    def test_flights_clear_so_later_calls_recompute(self):
        coalescer = Coalescer()
        calls = []
        for _ in range(2):
            coalescer.run("key", lambda: calls.append(1))
        assert len(calls) == 2

    def test_distinct_keys_run_independently(self):
        coalescer = Coalescer()
        seen = []
        coalescer.run("a", lambda: seen.append("a"))
        coalescer.run("b", lambda: seen.append("b"))
        assert seen == ["a", "b"]
        assert coalescer.stats().led == 2


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_campaign_id_ignores_volatile_policy(self):
        spec = make_spec()
        tuned = make_spec(policy=ExecutionPolicy(workers=None,
                                                 chunk_size=2))
        assert campaign_id(spec) == campaign_id(tuned)
        assert campaign_id(spec) != campaign_id(make_spec(seed=1))

    def test_submit_runs_to_finished_and_is_idempotent(self, tmp_path):
        registry = CampaignRegistry(None, tmp_path / "svc")
        try:
            handle, created = registry.submit(make_spec())
            assert created
            assert handle.wait(timeout=60.0) == "finished"
            again, created_again = registry.submit(make_spec())
            assert again is handle
            assert not created_again
            snap = handle.snapshot()
            assert snap["state"] == "finished"
            assert snap["progress"]["cells_run"] == 4
            assert handle.results_path.exists()
        finally:
            registry.shutdown()

    def test_queue_specs_are_refused(self, tmp_path):
        registry = CampaignRegistry(None, tmp_path / "svc")
        try:
            spec = make_spec(policy=ExecutionPolicy(
                sink="framed", queue=str(tmp_path / "q")))
            with pytest.raises(ParameterError, match="queue"):
                registry.submit(spec)
        finally:
            registry.shutdown()

    def test_unknown_id_refused_by_name(self, tmp_path):
        registry = CampaignRegistry(None, tmp_path / "svc")
        try:
            with pytest.raises(ParameterError, match="bogus"):
                registry.get("bogus")
        finally:
            registry.shutdown()

    def test_cancel_then_resubmit_resumes(self, tmp_path):
        """Cancellation is cell-aligned: the results file stays a valid
        prefix, and re-submitting the same spec finishes the remainder
        from it instead of starting over."""
        gate = threading.Event()
        registry = CampaignRegistry(
            None, tmp_path / "svc",
            backend_factory=lambda spec: CountingBackend(gate),
        )
        try:
            handle, _ = registry.submit(make_spec())
            # Cancel while the backend is parked at the gate, then let
            # the session observe the flag at its next cell boundary.
            handle.cancel()
            gate.set()
            assert handle.wait(timeout=60.0) == "cancelled"
            assert isinstance(handle.error, CampaignCancelled)

            again, created = registry.submit(make_spec())
            assert again is handle
            assert not created
            assert handle.wait(timeout=60.0) == "finished"
            assert handle.runs == 2
        finally:
            registry.shutdown()
        # The resumed file equals a straight cold run's.
        direct = tmp_path / "direct.jsonl"
        execute_spec(make_spec(), results_path=direct,
                     backend=SerialBackend())
        assert handle.results_path.read_bytes() == direct.read_bytes()

    def test_shutdown_drains_running_campaigns(self, tmp_path):
        registry = CampaignRegistry(None, tmp_path / "svc")
        handle, _ = registry.submit(make_spec())
        registry.shutdown(drain=True)
        assert handle.state == "finished"
        with pytest.raises(ParameterError, match="shutting down"):
            registry.submit(make_spec(seed=5))

    def test_shutdown_without_drain_cancels_cleanly(self, tmp_path):
        gate = threading.Event()
        registry = CampaignRegistry(
            None, tmp_path / "svc",
            backend_factory=lambda spec: CountingBackend(gate),
        )
        handle, _ = registry.submit(make_spec())
        shutdown = threading.Thread(
            target=registry.shutdown, kwargs={"drain": False})
        shutdown.start()
        gate.set()
        shutdown.join(timeout=60.0)
        assert not shutdown.is_alive()
        assert handle.state in ("cancelled", "finished")


# ----------------------------------------------------------------------
# Session reuse (regression)
# ----------------------------------------------------------------------
class TestSessionReuse:
    def test_event_stream_is_single_shot_with_named_error(self, tmp_path):
        session = Campaign(make_spec()).session(tmp_path / "r.jsonl")
        session.run()
        assert session.state == "finished"
        with pytest.raises(ParameterError, match="consumed once"):
            next(session.events())

    def test_second_session_on_finished_campaign(self, tmp_path):
        """A finished Campaign opens further sessions cleanly: a resume
        session replays every cell without re-running it, a fresh one
        re-executes — both leaving byte-identical results."""
        campaign = Campaign(make_spec())
        path = tmp_path / "r.jsonl"
        campaign.session(path).run()
        baseline = path.read_bytes()

        resumed = campaign.session(path, resume=True).run()
        assert resumed.report.cells_run == 0
        assert resumed.report.cells_skipped == 4
        assert path.read_bytes() == baseline

        rerun = campaign.session(path).run()
        assert rerun.report.cells_run == 4
        assert path.read_bytes() == baseline


# ----------------------------------------------------------------------
# Coalesced report queries (service level)
# ----------------------------------------------------------------------
class TestCoalescedReports:
    def test_concurrent_cold_queries_simulate_each_cell_once(self, tmp_path):
        """Eight identical cold report queries against an empty store:
        exactly one fill campaign runs (4 cells total dispatched), and
        every caller gets the full report.  The leader's backend is held
        until all seven followers have joined its flight, so a late
        thread can never arrive after the fill and be served warm."""
        backends = []
        all_joined = threading.Event()

        def factory(spec):
            backend = CountingBackend(gate=all_joined)
            backends.append(backend)
            return backend

        spec = make_spec()
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
            backend_factory=factory,
        ) as service:
            joined = service.coalescer._joined
            count_join = joined.inc

            def inc(amount=1.0):
                count_join(amount)
                if joined.value >= 7:
                    all_joined.set()

            joined.inc = inc
            started = threading.Barrier(8)
            payloads = [None] * 8

            def query(i):
                started.wait(timeout=10.0)
                payloads[i] = service.report_query(spec)

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)

            assert all(p is not None for p in payloads)
            assert sum(b.cells_dispatched for b in backends) == 4
            assert service.coalescer.stats().led == 1
            assert service.coalescer.stats().joined == 7
            # After the coalesced fill, the store covers the spec: the
            # next query is warm and never builds a backend.
            n_backends = len(backends)
            warm = service.report_query(spec)
            assert len(backends) == n_backends
            assert warm["simulated_cells"] == 0
            assert warm["coverage"] == {"present": 8, "total": 8}

    def test_on_miss_fail_refuses_cold_specs(self, tmp_path):
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            with pytest.raises(_MissingCells, match="0/8"):
                service.report_query(make_spec(), on_miss="fail")
            with pytest.raises(ParameterError, match="on_miss"):
                service.report_query(make_spec(), on_miss="maybe")


def adaptive_spec(max_replicas: int, *,
                  min_replicas: int = 3) -> CampaignSpec:
    """An adaptive spec whose loose tolerance stops every cell at
    ``min_replicas``."""
    controller = AdaptiveCI(max_replicas=max_replicas, tolerance=100,
                            min_replicas=min_replicas)
    return make_spec(replicas=max_replicas, policy=ExecutionPolicy(
        sink="framed", controller=controller))


def fresh_expectation(store_dir, spec) -> tuple[str, dict]:
    """The report text and coverage a fresh store instance with its own
    cache gives for ``spec`` (the reference for the service's reply)."""
    text = store_report(
        CampaignStore(store_dir, create=False, cache=HotCellCache()), spec)
    present, total = CampaignStore(
        store_dir, create=False, cache=HotCellCache()).coverage(spec)
    return text, {"present": present, "total": total}


def counting_service(tmp_path, **store_kwargs):
    """A service over its own store instance and cache, whose fill
    runs are built by a recording factory (the list it returns)."""
    backends: list[CountingBackend] = []

    def factory(spec):
        backends.append(CountingBackend())
        return backends[-1]

    store = CampaignStore(tmp_path / "store", cache=HotCellCache(),
                          **store_kwargs)
    service = CampaignService(store=store, data_dir=tmp_path / "svc",
                              backend_factory=factory)
    return service, backends


class TestReportResolve:
    """``report_query`` answers from one store pass: its reply equals a
    fresh store's ``store_report`` and ``coverage``, and it fills only
    when some cell does not replay."""

    @pytest.mark.parametrize("on_miss", ["run", "fail"])
    def test_adaptive_prefix_of_a_short_fixed_store_renders_directly(
            self, tmp_path, on_miss):
        """A 4-replica store covers 16 of the 64 replicas an adaptive
        spec may use, but each cell stops at 3: both modes render from
        the store with no fill, no 409 and no dispatch."""
        execute_spec(make_spec(replicas=4), store=tmp_path / "store",
                     backend=SerialBackend())
        spec = adaptive_spec(16)
        text, coverage = fresh_expectation(tmp_path / "store", spec)
        assert coverage == {"present": 16, "total": 64}
        service, backends = counting_service(tmp_path)
        with service:
            reply = service.report_query(spec, on_miss=on_miss)
        assert reply["report"] == text
        assert reply["coverage"] == coverage
        assert reply["simulated_cells"] == 0
        assert reply["simulated_replicas"] == 0
        assert sum(b.cells_dispatched for b in backends) == 0
        assert backends == []  # no fill campaign was even built
        assert service.coalescer.stats().led == 0

    def test_fully_warm(self, tmp_path):
        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store",
                     backend=SerialBackend())
        text, coverage = fresh_expectation(tmp_path / "store", spec)
        service, backends = counting_service(tmp_path)
        with service:
            replies = [service.report_query(spec, on_miss="fail")
                       for _ in range(2)]
        for reply in replies:
            assert reply["report"] == text
            assert reply["coverage"] == coverage == \
                {"present": 8, "total": 8}
        assert backends == []

    def test_half_warm_fills_then_renders(self, tmp_path):
        """The fill path: coverage is the store as the query found it,
        the report is the store after the fill."""
        execute_spec(make_spec(m_values=(300.0,)), store=tmp_path / "store",
                     backend=SerialBackend())
        spec = make_spec()
        present, total = CampaignStore(
            tmp_path / "store", cache=HotCellCache()).coverage(spec)
        assert (present, total) == (4, 8)
        service, backends = counting_service(tmp_path)
        with service:
            with pytest.raises(_MissingCells, match="4/8"):
                service.report_query(spec, on_miss="fail")
            reply = service.report_query(spec)
        assert reply["simulated_cells"] == 2
        assert sum(b.cells_dispatched for b in backends) == 2
        assert reply["coverage"] == {"present": present, "total": total}
        text, after = fresh_expectation(tmp_path / "store", spec)
        assert after == {"present": 8, "total": 8}
        assert reply["report"] == text

    def test_adaptive_prefix_shorter_than_the_stored_one(self, tmp_path):
        execute_spec(make_spec(replicas=4), store=tmp_path / "store",
                     backend=SerialBackend())
        spec = adaptive_spec(4)
        text, coverage = fresh_expectation(tmp_path / "store", spec)
        assert coverage == {"present": 16, "total": 16}
        stopped = cells_from_store(
            CampaignStore(tmp_path / "store", cache=HotCellCache()), spec)
        assert [c.summary.n_replicas for c in stopped] == [3] * 4
        service, backends = counting_service(tmp_path)
        with service:
            reply = service.report_query(spec, on_miss="fail")
        assert reply["report"] == text
        assert reply["coverage"] == coverage
        assert backends == []

    def test_longer_prefix_published_by_another_instance(self, tmp_path):
        """The service caches 2-replica entries, then another store
        instance publishes 4-replica ones.  A spec that stops inside the
        cached prefix still counts the longer copy on disk; a spec that
        needs more re-reads it (``load_cell``'s invalidate path)."""
        store_dir = tmp_path / "store"
        execute_spec(make_spec(replicas=2), store=store_dir,
                     backend=SerialBackend())
        service, backends = counting_service(tmp_path)
        with service:
            service.report_query(make_spec(replicas=2), on_miss="fail")
            execute_spec(make_spec(replicas=4), store=CampaignStore(
                store_dir, cache=None), backend=SerialBackend())
            for spec in (adaptive_spec(4, min_replicas=2),
                         make_spec(replicas=4)):
                text, coverage = fresh_expectation(store_dir, spec)
                assert coverage == {"present": 16, "total": 16}
                reply = service.report_query(spec, on_miss="fail")
                assert reply["report"] == text
                assert reply["coverage"] == coverage
        assert backends == []

    def test_gc_evicted_entry_still_cached_reports_its_cached_length(
            self, tmp_path):
        """Pinned: the reply's coverage counts what this store serves.
        After gc evicts every file, the service still holds verified
        entries in its cache and renders from them, so it reports their
        length where a fresh store's coverage finds nothing."""
        spec = make_spec()
        store_dir = tmp_path / "store"
        execute_spec(spec, store=store_dir, backend=SerialBackend())
        text, coverage = fresh_expectation(store_dir, spec)
        service, backends = counting_service(tmp_path)
        with service:
            service.report_query(spec, on_miss="fail")
            CampaignStore(store_dir, cache=None).gc(max_bytes=0)
            assert CampaignStore(store_dir, cache=HotCellCache()) \
                .coverage(spec) == (0, 8)
            reply = service.report_query(spec, on_miss="fail")
        assert reply["coverage"] == coverage == {"present": 8, "total": 8}
        assert reply["report"] == text
        assert backends == []

    @pytest.mark.parametrize("level", ["digest", "full"])
    def test_second_warm_query_builds_no_summary(
            self, tmp_path, monkeypatch, level):
        """Each cell's summary is memoized on its cache entry: the
        second warm query calls ``make_cell`` zero times."""
        import repro.sim.events as events

        spec = make_spec()
        execute_spec(spec, store=tmp_path / "store",
                     backend=SerialBackend())
        text, _ = fresh_expectation(tmp_path / "store", spec)
        calls = []
        make_cell = events.make_cell

        def counting(plan, results):
            calls.append(plan)
            return make_cell(plan, results)

        monkeypatch.setattr(events, "make_cell", counting)
        service, _ = counting_service(tmp_path,
                                      cached_verification=level)
        with service:
            first = service.report_query(spec, on_miss="fail")
            assert len(calls) == 4
            second = service.report_query(spec, on_miss="fail")
        assert len(calls) == 4
        assert first["report"] == second["report"] == text


# ----------------------------------------------------------------------
# The HTTP daemon, in-thread (tier 1)
# ----------------------------------------------------------------------
class TestServiceSmoke:
    def test_submit_query_shutdown(self, tmp_path):
        """One submit, one warm report, clean shutdown — the smallest
        end-to-end pass through every layer of the daemon."""
        spec = make_spec()
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            status, health = get_json(service.url("/healthz"))
            assert status == 200
            assert health["accepting"] is True

            status, created = post_json(
                service.url("/campaigns"), spec.to_dict())
            assert status == 201
            assert created["state"] in ("queued", "running", "finished")
            cid = created["id"]
            assert created["links"]["events"] == f"/campaigns/{cid}/events"

            assert service.registry.get(cid).wait(timeout=60.0) \
                == "finished"
            status, snap = get_json(service.url(f"/campaigns/{cid}"))
            assert status == 200
            assert snap["state"] == "finished"
            assert snap["progress"]["cells_run"] == 4

            status, warm = get_json(report_url(service, spec))
            assert status == 200
            assert warm["simulated_cells"] == 0
            assert warm["coverage"] == {"present": 8, "total": 8}
            assert "waste" in warm["report"].lower() \
                or warm["report"].strip()
        # Context-manager exit shut the daemon down; the socket is gone.
        with pytest.raises(urllib.error.URLError):
            get_json(service.url("/healthz"), timeout=2.0)

    def test_resubmit_is_idempotent_over_http(self, tmp_path):
        spec = make_spec()
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            status, first = post_json(
                service.url("/campaigns"), spec.to_dict())
            assert status == 201
            service.registry.get(first["id"]).wait(timeout=60.0)
            status, second = post_json(
                service.url("/campaigns"), spec.to_dict())
            assert status == 200
            assert second["id"] == first["id"]
            assert second["state"] == "finished"
            status, listing = get_json(service.url("/campaigns"))
            assert [c["id"] for c in listing["campaigns"]] == [first["id"]]

    def test_bad_requests_are_refused_by_name(self, tmp_path):
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            for path, expect in [
                ("/nope", 404),
                ("/campaigns/unknown", 400),
                ("/reports", 400),                      # no spec=
                ("/reports?spec=%7B%7D&x=1", 400),      # unknown param
            ]:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get_json(service.url(path))
                assert excinfo.value.code == expect
                detail = json.loads(excinfo.value.read())
                assert "error" in detail

    def test_malformed_spec_numbers_get_a_400_reply(self, tmp_path):
        """A spec number of the wrong type is a named 400, on submit and
        on a report query alike — not a connection closed unanswered."""
        adaptive = CampaignSpec(grid=make_spec().grid, policy=ExecutionPolicy(
            sink="framed",
            controller=AdaptiveCI(max_replicas=2, tolerance=0.1),
        )).to_dict()
        adaptive["policy"]["controller"]["max_replicas"] = "x"
        bad_grid = make_spec().to_dict()
        bad_grid["grid"]["work_target"] = "x"
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(service.url("/campaigns"), adaptive)
            assert excinfo.value.code == 400
            assert "max_replicas" in json.loads(excinfo.value.read())["error"]
            query = urllib.parse.urlencode({"spec": json.dumps(bad_grid)})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(service.url("/reports?" + query))
            assert excinfo.value.code == 400
            assert "work_target" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("field, value", [
        ("share_traces", "no"), ("params", 5),
    ])
    def test_malformed_grid_field_gets_a_400_reply(
        self, tmp_path, field, value
    ):
        """A string ``share_traces`` once ran as shared traces, and a
        non-object ``params`` dropped the connection unanswered."""
        bad_grid = make_spec().to_dict()
        bad_grid["grid"][field] = value
        query = urllib.parse.urlencode({"spec": json.dumps(bad_grid)})
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(service.url("/campaigns"), bad_grid)
            assert excinfo.value.code == 400
            assert field in json.loads(excinfo.value.read())["error"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(service.url("/reports?" + query))
            assert excinfo.value.code == 400
            assert field in json.loads(excinfo.value.read())["error"]

    def test_keep_alive_gets_do_not_stall(self, tmp_path):
        """Fifty small GETs in a row on one persistent connection.  The
        handler writes headers and body separately; with Nagle's
        algorithm on, the client's delayed ACK holds each body back for
        at least 40 ms, so a median under 20 ms proves it is off."""
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            url = urllib.parse.urlsplit(service.url("/healthz"))
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=10.0)
            seconds = []
            try:
                for _ in range(50):
                    start = time.perf_counter()
                    conn.request("GET", url.path)
                    resp = conn.getresponse()
                    resp.read()
                    seconds.append(time.perf_counter() - start)
                    assert resp.status == 200
            finally:
                conn.close()
        assert statistics.median(seconds) < 0.020, seconds

    def test_cold_report_with_on_miss_fail_is_409(self, tmp_path):
        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
        ) as service:
            url = report_url(service, make_spec(), on_miss="fail")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(url)
            assert excinfo.value.code == 409


# ----------------------------------------------------------------------
# Acceptance: warm zero-sim queries under concurrent execution, and
# stream replay equivalence
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_warm_queries_zero_sim_while_campaign_runs_and_stream_replays(
            self, tmp_path):
        warm_spec = make_spec(seed=2027)
        cold_spec = make_spec(seed=31)

        # Warehouse the warm spec before the daemon exists.
        store = CampaignStore(tmp_path / "store", create=True)
        execute_spec(warm_spec, store=store, backend=SerialBackend())

        gate = threading.Event()
        built = []

        def factory(spec):
            backend = CountingBackend(
                gate if spec.identity() == cold_spec.identity() else None)
            built.append((spec, backend))
            return backend

        with CampaignService(
            store=tmp_path / "store", data_dir=tmp_path / "svc",
            backend_factory=factory,
        ) as service:
            gc.collect()  # dead stores must not leave the sum mid-test
            lookups_before = registry_value("repro_store_lookups_total")
            status, submitted = post_json(
                service.url("/campaigns"), cold_spec.to_dict())
            assert status == 201
            cid = submitted["id"]
            handle = service.registry.get(cid)

            # The submitted campaign is parked at the gate: provably
            # mid-execution while we query the warm spec on the same
            # store.
            deadline = time.monotonic() + 30.0
            while handle.state != "running" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.state == "running"

            status, warm = get_json(report_url(service, warm_spec))
            assert status == 200
            assert warm["coverage"] == {"present": 8, "total": 8}
            assert warm["simulated_cells"] == 0
            assert warm["simulated_replicas"] == 0
            # Zero simulations is a counting fact, not an inference: no
            # backend was ever built for the warm spec.
            assert all(spec.identity() != warm_spec.identity()
                       for spec, _ in built)

            gate.set()
            assert handle.wait(timeout=120.0) == "finished"

            # -- stream replay equivalence -------------------------
            with urllib.request.urlopen(
                service.url(f"/campaigns/{cid}/events?follow=0"),
                timeout=30.0,
            ) as resp:
                assert resp.headers["Content-Type"] \
                    == "application/x-ndjson"
                lines = resp.read().decode("utf-8").splitlines()
            events = [event_from_dict(json.loads(line))
                      for line in lines]
            assert type(events[0]).__name__ == "CampaignStarted"
            assert type(events[-1]).__name__ == "CampaignFinished"

            # Replay exactly as SinkWriter wrote: finished cells, in
            # stream order, resume cells skipped.
            replayed = tmp_path / "replayed.jsonl"
            sink = make_sink("ordered", replayed)
            for event in events:
                if isinstance(event, CellFinished) \
                        and event.source != "resume":
                    sink.emit(event.plan, event.records)

            direct = tmp_path / "direct.jsonl"
            execute_spec(cold_spec, results_path=direct,
                         backend=SerialBackend())
            assert replayed.read_bytes() == direct.read_bytes()
            assert handle.results_path.read_bytes() \
                == direct.read_bytes()

            # The store saw concurrent readers; the process registry
            # proves the warm path went through lookups.
            assert registry_value("repro_store_lookups_total") \
                > lookups_before
            assert registry_value("repro_store_readers_active") == 0


# ----------------------------------------------------------------------
# Daemon lifecycle (subprocess; needs --run-slow)
# ----------------------------------------------------------------------
def _spawn_daemon(tmp_path: pathlib.Path, *extra: str):
    env = os.environ.copy()
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--store", str(tmp_path / "store"), "--port", "0", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, bufsize=1,
    )
    line = proc.stdout.readline()
    assert "listening on" in line, line
    url = line.split("listening on ", 1)[1].split()[0]
    return proc, url


@pytest.mark.campaign
class TestDaemonLifecycle:
    def test_serve_answers_and_stops_on_sigterm(self, tmp_path):
        proc, url = _spawn_daemon(tmp_path)
        try:
            status, health = get_json(url + "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            status, body = post_json(
                url + "/campaigns", make_spec().to_dict())
            assert status == 201
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "stopped" in out

    def test_post_shutdown_drains_and_exits(self, tmp_path):
        proc, url = _spawn_daemon(tmp_path)
        try:
            status, body = post_json(
                url + "/campaigns", make_spec().to_dict())
            assert status == 201
            status, ack = post_json(url + "/shutdown", {})
            assert status == 202
            assert ack["drain"] is True
            out, err = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        # Drained, not cancelled: the submitted campaign's results file
        # is complete (a resume run would find nothing to do).
        results = list((tmp_path / "store").glob(
            "service/campaigns/*/results.jsonl"))
        assert len(results) == 1
        direct = tmp_path / "direct.jsonl"
        execute_spec(make_spec(), results_path=direct,
                     backend=SerialBackend())
        assert results[0].read_bytes() == direct.read_bytes()
