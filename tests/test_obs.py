"""Observability layer: registry wire safety, tracer fidelity, and the
no-perturbation guarantee.

The contract under test, in order of importance:

* **Telemetry never changes results** — a bus carrying three or more
  user consumers including a :class:`MetricsConsumer` still reproduces
  the frozen golden bytes exactly (the consumer is a pure observer).
* **Snapshots survive real JSON** — registry snapshots round-trip
  through ``json.dumps(allow_nan=False)`` even with NaN/±inf gauge
  values (the :mod:`repro.io` float sentinels), and unknown formats,
  versions, kinds and fields are refused by name.
* **The span tree matches the event stream** — a traced campaign's
  cell spans mirror its ``CellFinished`` events one-to-one, parented
  under a single campaign root, and both exports (NDJSON, Chrome
  trace-event JSON) reload faithfully.
* **Cell time adds up** — ``repro_executor_cell_seconds`` observes one
  interval per cell whose sum covers the campaign's wall-clock.
* **GET /metrics is real exposition** — a live service serves
  parseable Prometheus text covering executor, store, coalescer and
  HTTP-route series after a report fill.
* **Streaming is condition-variable fast** — a follower of
  ``CampaignHandle.events`` sees an appended event in well under the
  old 0.5 s poll interval.
"""

from __future__ import annotations

import json
import math
import pathlib
import queue
import re
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DOUBLE_NBL, scenarios
from repro.errors import ParameterError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    METRICS_WIRE_FORMAT,
    METRICS_WIRE_VERSION,
    MetricsConsumer,
    MetricsRegistry,
    Tracer,
    current_tracer,
    install_tracer,
    render_prometheus,
    set_enabled,
    snapshot_from_dict,
    span,
    span_from_dict,
    uninstall_tracer,
)
from repro.service import CampaignService
from repro.service.registry import CampaignHandle
from repro.sim.campaign import CampaignConfig
from repro.sim.events import CellFinished, EventConsumer
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy
from repro.store.cache import HotCellCache

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_NAMES = ("ordered_fixed", "framed_fixed", "framed_adaptive")


def golden(name: str):
    spec = CampaignSpec.load(GOLDEN / f"{name}.spec.json")
    data = (GOLDEN / f"{name}.jsonl").read_bytes()
    return spec, data


def tiny_spec(**overrides) -> CampaignSpec:
    grid = CampaignConfig(
        protocols=(DOUBLE_NBL,),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0,),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=1,
        seed=2027,
        **overrides,
    )
    return CampaignSpec(grid=grid, policy=ExecutionPolicy())


class Recorder(EventConsumer):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_is_identity_per_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", labels={"k": "1"})
        b = registry.counter("repro_x_total", labels={"k": "1"})
        c = registry.counter("repro_x_total", labels={"k": "2"})
        assert a is b and a is not c

    def test_kind_mismatch_refused_by_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ParameterError, match="repro_x_total"):
            registry.gauge("repro_x_total")

    def test_bucket_mismatch_refused_by_name(self):
        registry = MetricsRegistry()
        registry.histogram("repro_x_seconds", (1.0, 2.0))
        with pytest.raises(ParameterError, match="different buckets"):
            registry.histogram("repro_x_seconds", (1.0, 3.0))

    def test_counter_is_monotone(self):
        counter = MetricsRegistry().counter("repro_x_total")
        with pytest.raises(ParameterError, match="cannot decrease"):
            counter.inc(-1)

    def test_invalid_names_and_labels_refused(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError, match="invalid metric name"):
            registry.counter("0bad")
        with pytest.raises(ParameterError, match="label"):
            registry.counter("repro_x_total", labels={"0bad": "v"})

    def test_histogram_buckets_and_overflow(self):
        histogram = MetricsRegistry().histogram("repro_x_seconds",
                                                (0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts() == (1, 1, 1)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_gauge_aggregation_modes(self):
        registry = MetricsRegistry()
        summed = registry.gauge("repro_x_bytes")
        summed.set(3.0)
        extra = registry.register(
            type(summed)("repro_x_bytes", aggregate="sum"))
        extra.set(4.0)
        peak = registry.gauge("repro_y_peak", aggregate="max")
        peak.set(7.0)
        entries = {e["name"]: e
                   for e in snapshot_from_dict(registry.snapshot())}
        assert entries["repro_x_bytes"]["value"] == 7.0
        assert entries["repro_y_peak"]["value"] == 7.0
        # The reference is weak: dropping the component instrument
        # drops its contribution from the next snapshot.
        del extra
        entries = {e["name"]: e
                   for e in snapshot_from_dict(registry.snapshot())}
        assert entries["repro_x_bytes"]["value"] == 3.0

    def test_disabled_registry_exports_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_x_total")
        counter.inc(5)
        owned_by_component = MetricsRegistry().counter("repro_y_total")
        registry.register(owned_by_component)
        assert registry.snapshot()["series"] == []
        registry.absorb(MetricsRegistry().snapshot())
        # The instrument itself keeps counting — it is API, not export.
        assert counter.value == 5.0


# ----------------------------------------------------------------------
# Snapshot wire format (hypothesis round-trip through real JSON)
# ----------------------------------------------------------------------
counter_incs = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    max_size=5)
gauge_values = st.floats(allow_nan=True, allow_infinity=True,
                         width=64)
observations = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    max_size=8)


class TestSnapshotWire:
    @settings(max_examples=50, deadline=None)
    @given(incs=counter_incs, level=gauge_values, obs=observations)
    def test_round_trip_through_real_json(self, incs, level, obs):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", help="c",
                                   labels={"source": "backend"})
        for amount in incs:
            counter.inc(amount)
        registry.gauge("repro_t_level", aggregate="max").set(level)
        histogram = registry.histogram("repro_t_seconds", (0.5, 2.0),
                                       unit="seconds")
        for value in obs:
            histogram.observe(value)

        snap = registry.snapshot()
        # The whole point of the sentinel encoding: NaN/±inf survive a
        # *strict* JSON encoder, no allow_nan crutch.
        text = json.dumps(snap, sort_keys=True, allow_nan=False)
        decoded_snap = json.loads(text)
        series = snapshot_from_dict(decoded_snap)
        by_name = {e["name"]: e for e in series}
        value = by_name["repro_t_total"]["value"]
        assert value == pytest.approx(math.fsum(incs))
        got_level = by_name["repro_t_level"]["value"]
        assert got_level == level or (
            math.isnan(got_level) and math.isnan(level))
        assert by_name["repro_t_seconds"]["count"] == len(obs)
        assert len(by_name["repro_t_seconds"]["counts"]) == 3

        # Absorbing the decoded snapshot reproduces it bit-for-bit.
        other = MetricsRegistry()
        other.absorb(decoded_snap)
        assert other.snapshot() == snap

        # And the exposition renders every value, NaN/±inf included.
        assert render_prometheus(decoded_snap)

    def test_wire_markers(self):
        snap = MetricsRegistry().snapshot()
        assert snap["format"] == METRICS_WIRE_FORMAT
        assert snap["version"] == METRICS_WIRE_VERSION

    def test_refusals_by_name(self):
        good = MetricsRegistry()
        good.counter("repro_x_total").inc()
        snap = good.snapshot()

        with pytest.raises(ParameterError, match="not a repro-metrics"):
            snapshot_from_dict({"format": "something-else"})
        with pytest.raises(ParameterError,
                           match="unsupported metrics version"):
            snapshot_from_dict({**snap, "version": 99})
        bad_kind = json.loads(json.dumps(snap))
        bad_kind["series"][0]["kind"] = "summary"
        with pytest.raises(ParameterError,
                           match="unknown metric kind 'summary'"):
            snapshot_from_dict(bad_kind)
        extra = json.loads(json.dumps(snap))
        extra["series"][0]["surprise"] = 1
        with pytest.raises(ParameterError, match="unknown fields"):
            snapshot_from_dict(extra)

    def test_histogram_counts_length_validated(self):
        registry = MetricsRegistry()
        registry.histogram("repro_x_seconds", (1.0,)).observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        snap["series"][0]["counts"] = [1]
        with pytest.raises(ParameterError, match="per bucket plus"):
            snapshot_from_dict(snap)


# ----------------------------------------------------------------------
# MetricsConsumer: pure observation, proven on the frozen bytes
# ----------------------------------------------------------------------
class TestMetricsConsumer:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_three_consumers_cannot_perturb_golden_bytes(self, name,
                                                         tmp_path):
        """Two recorders + an explicit MetricsConsumer (on top of the
        session's own) ride the bus — and the output bytes still match
        the pre-observability frozen goldens exactly."""
        spec, data = golden(name)
        out = tmp_path / "results.jsonl"
        before, after = Recorder(), Recorder()
        metrics = MetricsConsumer(export_registry=MetricsRegistry())
        session = Campaign(spec).session(
            out, consumers=[before, metrics, after])
        execution = session.run()
        assert out.read_bytes() == data
        assert before.events == after.events

        series = {e["name"]: e
                  for e in snapshot_from_dict(metrics.snapshot())}
        cells = sum(
            e["value"] for e in snapshot_from_dict(metrics.snapshot())
            if e["name"] == "repro_executor_cells_total")
        assert cells == execution.report.cells_total
        assert series["repro_executor_campaigns_total"]["value"] == 1
        assert series["repro_executor_cell_seconds"]["count"] \
            == execution.report.cells_total

    @pytest.mark.parametrize("name", ["framed_fixed", "ordered_fixed"])
    def test_cell_seconds_cover_the_campaign(self, name, tmp_path):
        """One observation per cell, and together they account for the
        campaign's wall-clock (not just each cell's fan-out)."""
        spec, _ = golden(name)
        execution = Campaign(spec).run(tmp_path / "r.jsonl")
        report = execution.report
        series = snapshot_from_dict(report.metrics)
        (cell_seconds,) = [e for e in series
                           if e["name"] == "repro_executor_cell_seconds"]
        cells = sum(e["value"] for e in series
                    if e["name"] == "repro_executor_cells_total")
        assert cell_seconds["count"] == cells == report.cells_total
        assert cell_seconds["sum"] >= 0.8 * report.elapsed
        assert "repro_executor_batches_total" \
            not in {e["name"] for e in series}

    def test_report_carries_metrics_snapshot(self, tmp_path):
        execution = Campaign(tiny_spec()).run(tmp_path / "r.jsonl")
        metrics = execution.report.metrics
        assert metrics is not None
        names = {e["name"] for e in snapshot_from_dict(metrics)}
        assert "repro_executor_cells_total" in names
        assert "repro_executor_replicas_per_second" in names

    def test_metrics_never_enter_the_report_wire(self, tmp_path):
        from repro.sim.events import CampaignFinished, event_from_dict, \
            event_to_dict

        execution = Campaign(tiny_spec()).run(tmp_path / "r.jsonl")
        wire = event_to_dict(CampaignFinished(report=execution.report))
        assert "metrics" not in json.dumps(wire)
        decoded = event_from_dict(wire)
        assert decoded.report.metrics is None
        # ...and the wire-stripped report still equals the original
        # (metrics is compare=False: telemetry, not a result).
        assert decoded.report == execution.report

    def test_disabled_obs_skips_the_consumer(self, tmp_path):
        set_enabled(False)
        try:
            execution = Campaign(tiny_spec()).run(tmp_path / "r.jsonl")
            assert execution.report.metrics is None
        finally:
            set_enabled(True)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_parenthood_and_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer", "t"):
                with tracer.span("inner", "t", detail=1):
                    raise RuntimeError("boom")
        outer, inner = {s.name: s for s in tracer.spans()}["outer"], \
            {s.name: s for s in tracer.spans()}["inner"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.args == {"detail": 1}
        assert inner.start >= outer.start
        assert inner.duration <= outer.duration

    def test_module_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("anything") as record:
            assert record is None

    def test_span_tree_matches_event_stream(self, tmp_path):
        spec, _ = golden("framed_fixed")
        recorder = Recorder()
        tracer = install_tracer(Tracer())
        try:
            Campaign(spec).session(
                tmp_path / "r.jsonl", consumers=[recorder]).run()
        finally:
            uninstall_tracer()
        by_name: dict = {}
        for record in tracer.spans():
            by_name.setdefault(record.name, []).append(record)

        assert len(by_name["campaign"]) == 1
        root = by_name["campaign"][0]
        assert root.parent_id is None
        finished = [e for e in recorder.events
                    if isinstance(e, CellFinished)]
        cells = by_name["cell"]
        assert len(cells) == len(finished)
        assert all(record.parent_id == root.span_id for record in cells)
        assert [record.args["index"] for record in cells] \
            == [e.plan.index for e in finished]
        assert "replica-batch" not in by_name

    def test_ndjson_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", "t", ratio=float("nan")):
            with tracer.span("b", "t"):
                pass
        originals = list(tracer.spans())
        lines = [json.dumps(record.to_dict(), sort_keys=True,
                            allow_nan=False) for record in originals]
        reloaded = [span_from_dict(json.loads(line)) for line in lines]
        assert len(reloaded) == 2
        # NaN != NaN would fail a whole-dataclass comparison; check the
        # NaN arg explicitly and everything else structurally.
        assert math.isnan(reloaded[0].args.pop("ratio"))
        assert math.isnan(originals[0].args.pop("ratio"))
        assert reloaded == originals

    def test_chrome_export_is_loadable(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cell", "executor", index=3):
            pass
        path = tmp_path / "trace.json"
        assert tracer.write_chrome(path) == 1
        trace = json.loads(path.read_text())
        (event,) = trace["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "executor"
        assert event["args"]["index"] == 3
        assert event["dur"] >= 0

    def test_span_wire_refusals(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        wire = tracer.spans()[0].to_dict()
        with pytest.raises(ParameterError, match="not a repro-trace"):
            span_from_dict({"format": "nope"})
        with pytest.raises(ParameterError, match="unsupported trace"):
            span_from_dict({**wire, "version": 9})
        with pytest.raises(ParameterError, match="corrupt trace span"):
            span_from_dict({**wire, "surprise": 1})


# ----------------------------------------------------------------------
# The cache's thin view stays exact over the instruments
# ----------------------------------------------------------------------
class TestThinViews:
    def test_cache_stats_view_equals_instruments(self):
        from repro.store.cache import CachedEntry

        registry = MetricsRegistry()
        cache = HotCellCache(max_bytes=1 << 20, registry=registry)
        text = '{"payload": 1}'
        entry = CachedEntry(
            key={"k": 1}, block=None, payload_text=text,
            payload_sha256=__import__("hashlib")
            .sha256(text.encode()).hexdigest(),
        )
        cache.put("root", "token", entry)
        assert cache.get("root", "token") is entry
        assert cache.get("root", "absent") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.entries == 1 and stats.bytes == len(text)
        entries = {e["name"]: e
                   for e in snapshot_from_dict(registry.snapshot())}
        assert entries["repro_store_cache_hits_total"]["value"] == 1
        assert entries["repro_store_cache_misses_total"]["value"] == 1
        assert entries["repro_store_cache_bytes"]["value"] == len(text)


# ----------------------------------------------------------------------
# Service: GET /metrics and condition-variable streaming
# ----------------------------------------------------------------------
#: A label value is a quoted string (``\\``, ``\"`` and ``\n`` escapes),
#: so it may hold ``{``, ``}`` or ``,`` — e.g. ``route="/campaigns/{id}"``.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{{(?:{_LABEL}(?:,{_LABEL})*,?)?\}})?"
    r" (\S+)$")


def parse_exposition(text: str) -> dict[str, list[str]]:
    """A strict little exposition parser: every non-comment line must
    be ``name[{labels}] value``; returns samples grouped by name."""
    samples: dict[str, list[str]] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        samples.setdefault(match.group(1), []).append(match.group(3))
    return samples


class TestExpositionParser:
    def test_label_values_may_hold_braces(self):
        samples = parse_exposition(
            'repro_http_request_seconds_bucket{method="GET",'
            'route="/campaigns/{id}",le="0.0001"} 0\n'
            'x{a="q\\"}\\\\"} 1\n'
            "y 2\n"
        )
        assert samples == {"repro_http_request_seconds_bucket": ["0"],
                           "x": ["1"], "y": ["2"]}

    @pytest.mark.parametrize("line", [
        'x{a="unterminated} 1',
        'x{a="b"}',
        'x{a="b"} ',
        'x{a=b} 1',
        'x{a="b"c="d"} 1',
        'x{="b"} 1',
        'x{a="b"}} 1',
        '1x 1',
    ])
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(AssertionError, match="unparseable"):
            parse_exposition(line + "\n")


class TestServiceObservability:
    def test_metrics_endpoint_covers_every_layer(self, tmp_path):
        spec = tiny_spec()
        with CampaignService(store=tmp_path / "store",
                             data_dir=tmp_path / "data") as svc:
            body = json.dumps({"spec": spec.to_dict()}).encode()
            req = urllib.request.Request(
                svc.url("/reports"), data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=60.0) as resp:
                assert resp.status == 200
            with urllib.request.urlopen(svc.url("/metrics"),
                                        timeout=10.0) as resp:
                first = resp.read().decode("utf-8")
                content_type = resp.headers.get("Content-Type")
            assert content_type.startswith("text/plain; version=0.0.4")
            samples = parse_exposition(first)
            # One series family per instrumented layer, all live in
            # one scrape of one process.
            for family in (
                "repro_executor_cells_total",        # executor
                "repro_store_lookups_total",         # store
                "repro_coalescer_led_total",         # coalescer
                "repro_http_requests_total",         # HTTP routes
            ):
                assert family in samples, f"{family} missing"
            # The first scrape itself gets metered under its own route
            # label before its body is written, so the next scrape
            # already shows it.
            with urllib.request.urlopen(svc.url("/metrics"),
                                        timeout=10.0) as resp:
                second = resp.read().decode("utf-8")
            parse_exposition(second)  # still fully parseable
        # The POST /reports was metered under its route label, and the
        # first scrape shows up in a later one.
        route_lines = [
            line for line in first.splitlines()
            if line.startswith("repro_http_request_seconds_count")
        ]
        assert any('route="/reports"' in line for line in route_lines)
        assert 'route="/metrics"' in second

    def test_request_is_counted_before_its_reply_ends(self, tmp_path):
        """A client holding a reply's status line finds its request in
        the very next scrape, before it even reads the body: 200
        back-to-back GET /reports + GET /metrics pairs, with no polling
        and no retries.  Each route keeps its own persistent connection:
        the server handles one connection's requests in order on one
        thread, so only a second connection can scrape while the first
        request's handler is still running."""
        import http.client
        from urllib.parse import quote, urlparse

        series = re.compile(
            r"^repro_http_request_seconds_count\{([^}]*)\} (\S+)$", re.M)

        def reports_counted(text: str) -> float:
            return sum(float(value) for labels, value in series.findall(text)
                       if 'route="/reports"' in labels
                       and 'method="GET"' in labels)

        query = "/reports?spec=" + quote(json.dumps(tiny_spec().to_dict()))
        with CampaignService(store=tmp_path / "store",
                             data_dir=tmp_path / "data") as svc:
            url = urlparse(svc.url("/"))
            reports, metrics = (
                http.client.HTTPConnection(url.hostname, url.port,
                                           timeout=60.0)
                for _ in range(2))

            def get(conn, target: str) -> str:
                conn.request("GET", target)
                resp = conn.getresponse()
                body = resp.read().decode("utf-8")
                assert resp.status == 200, body
                return body

            try:
                get(reports, query)  # the cold query fills the store once
                before = reports_counted(get(metrics, "/metrics"))
                for i in range(1, 201):
                    reports.request("GET", query)
                    reply = reports.getresponse()  # status and headers
                    assert reports_counted(get(metrics, "/metrics")) \
                        == before + i
                    assert reply.status == 200, reply.read()
                    reply.read()
            finally:
                reports.close()
                metrics.close()

    def test_event_followers_wake_without_polling(self):
        handle = CampaignHandle("obs-test", None,
                                pathlib.Path("unused.jsonl"))
        arrivals: queue.Queue = queue.Queue()

        def consume():
            for event in handle.events(follow=True):
                arrivals.put((event, time.perf_counter()))

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.2)  # park the follower inside cond.wait()
        sent_at = time.perf_counter()
        handle._append({"n": 1})
        _, seen_at = arrivals.get(timeout=5.0)
        latency = seen_at - sent_at
        # The old implementation polled every 0.5 s (mean latency
        # 0.25 s); the condition-variable wakeup is effectively
        # immediate.  0.2 s of slack absorbs scheduler noise while
        # still refuting any poll-based implementation.
        assert latency < 0.2, f"follower woke after {latency:.3f}s"
        handle._set_state("finished")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
