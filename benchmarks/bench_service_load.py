"""Campaign-service load: warm HTTP report queries vs. the in-process path.

Not a paper artefact — this measures the tentpole claim of the campaign
service (:mod:`repro.service`): a live daemon answers warm report
queries from the compacted store at interactive latency and real
concurrency, so a fleet of clients can mine a finished campaign without
ever paying for a simulation.

The measurement: warehouse the ``high-churn`` preset once, then

* time the **in-process** warm path (``store_report`` over the hot-cell
  cache) as the floor;
* hammer the daemon with ``THREADS`` clients × ``QUERIES_PER_THREAD``
  warm ``GET /reports`` each, over persistent HTTP/1.1 connections, and
  take the latency distribution.

Gates: every query is warm (**zero** simulations, asserted via a
counting backend factory that must never be invoked), the daemon
genuinely served requests concurrently (server-side busy time from the
``repro_http_request_seconds`` histogram must exceed the wall clock —
a serial server can never get there), and the HTTP p50 stays within a
fixed multiple of the in-process p50 — the daemon may add transport
cost, not a second execution path.  The nightly run also scrapes
``GET /metrics`` mid-load (the exposition must stay parseable while
the daemon is saturated) and asserts afterwards that the per-route
request histogram counted every client query.

The store's ``peak_concurrent`` reader count is recorded but *not*
gated: a warm lookup is a ~10 us in-memory hit, and whether two of 8
GIL-bound handler threads are ever preempted inside the same window is
a scheduling lottery (observed 1-3 across identical runs).  The
histogram busy-time ratio asserts the same property — overlapping
service — deterministically, because each of the 8 clients keeps one
~100 ms request in flight essentially the whole run.
"""

from __future__ import annotations

import http.client
import json
import re
import statistics
import threading
import time
import urllib.parse
import urllib.request

from repro.experiments.report import store_report
from repro.experiments.scenarios import get_campaign_preset
from repro.service import CampaignService
from repro.sim.executor import execute_spec
from repro.sim.spec import CampaignSpec
from repro.store import CampaignStore

PRESET = "high-churn"
REPLICAS = 4
THREADS = 8
QUERIES_PER_THREAD = 40
WARMUP_QUERIES = 5
#: The daemon's warm p50 must stay within this multiple of the
#: in-process warm p50 (floored at 25 ms so a very fast floor does not
#: turn transport jitter into a failure).
P50_MULTIPLE = 50.0
P50_FLOOR = 0.025
#: Server-side busy time (sum of request durations) over wall clock
#: must exceed this: > 1.0 is impossible for a serial server, and 8
#: always-busy clients keep the true ratio near 8.
MIN_BUSY_RATIO = 2.0


def _spec() -> CampaignSpec:
    return get_campaign_preset(PRESET).spec(replicas=REPLICAS)


def _percentile(samples: list[float], q: float) -> float:
    return statistics.quantiles(samples, n=100)[int(q) - 1]


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$")


def _scrape_metrics(service: CampaignService) -> dict[str, float]:
    """``GET /metrics`` parsed strictly: every non-comment line must be
    ``name[{labels}] value`` or the scrape (and the gate) fails."""
    with urllib.request.urlopen(service.url("/metrics"),
                                timeout=30.0) as resp:
        assert resp.status == 200
        text = resp.read().decode("utf-8")
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        samples[match.group(1)] = float(match.group(2))
    return samples


def test_service_warm_query_load(tmp_path, record):
    spec = _spec()
    store_dir = tmp_path / "store"

    # Warehouse the grid once, then compact to the served layout.
    store = CampaignStore(store_dir, create=True)
    execute_spec(spec, store=store)
    store.compact()

    # ---- floor: the in-process warm path ---------------------------
    store_report(store, spec)  # prime the hot-cell cache
    inproc = []
    for _ in range(50):
        start = time.perf_counter()
        store_report(store, spec)
        inproc.append(time.perf_counter() - start)
    inproc_p50 = statistics.median(inproc)

    # ---- the daemon under load -------------------------------------
    built = []

    def factory(s):
        built.append(s)
        return None

    spec_param = urllib.parse.urlencode(
        {"spec": json.dumps(spec.to_dict())})
    path = "/reports?" + spec_param

    with CampaignService(
        store=store_dir, data_dir=tmp_path / "svc",
        backend_factory=factory,
    ) as service:
        latencies: list[list[float]] = [[] for _ in range(THREADS)]
        errors: list[str] = []
        barrier = threading.Barrier(THREADS)

        def client(i: int) -> None:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=60.0)
            try:
                for q in range(WARMUP_QUERIES + QUERIES_PER_THREAD):
                    if q == WARMUP_QUERIES:
                        barrier.wait(timeout=60.0)
                    start = time.perf_counter()
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    payload = json.loads(resp.read())
                    elapsed = time.perf_counter() - start
                    if resp.status != 200:
                        errors.append(f"status {resp.status}")
                        return
                    if payload["simulated_cells"] != 0:
                        errors.append("a warm query simulated")
                        return
                    if q >= WARMUP_QUERIES:
                        latencies[i].append(elapsed)
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                errors.append(repr(exc))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(THREADS)]
        wall_start = time.perf_counter()
        for t in threads:
            t.start()
        # Scrape the exposition while the daemon is saturated — it must
        # stay parseable mid-load, not just at rest.
        midload = _scrape_metrics(service)
        assert any(key.startswith("repro_store_lookups_total")
                   for key in midload)
        for t in threads:
            t.join(timeout=300.0)
        wall = time.perf_counter() - wall_start

        # The request histogram must have counted every client query
        # (warmup included).  The last observations land in handler
        # finallys just after the response bytes, so poll briefly.
        histogram_key = ('repro_http_request_seconds_count'
                         '{method="GET",route="/reports"}')
        busy_key = ('repro_http_request_seconds_sum'
                    '{method="GET",route="/reports"}')
        expected_requests = THREADS * (WARMUP_QUERIES
                                       + QUERIES_PER_THREAD)
        deadline = time.monotonic() + 10.0
        while True:
            final = _scrape_metrics(service)
            seen_requests = final.get(histogram_key, 0.0)
            if seen_requests >= expected_requests \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        busy_seconds = final.get(busy_key, 0.0)

    assert not errors, errors
    samples = [s for per_thread in latencies for s in per_thread]
    assert len(samples) == THREADS * QUERIES_PER_THREAD
    # Zero simulations is a counting fact: no fill backend was built.
    assert built == []
    # The daemon really served requests concurrently: total in-handler
    # time well past the wall clock is only possible with overlap.
    busy_ratio = busy_seconds / wall
    assert busy_ratio >= MIN_BUSY_RATIO, (
        f"server-side busy time {busy_seconds:.2f} s over {wall:.2f} s "
        f"wall is a concurrency ratio of {busy_ratio:.2f} "
        f"(need >= {MIN_BUSY_RATIO})"
    )
    assert seen_requests >= expected_requests, (
        f"request histogram saw {seen_requests:.0f} /reports requests, "
        f"clients issued {expected_requests}"
    )

    http_p50 = statistics.median(samples)
    http_p99 = _percentile(samples, 99)
    throughput = len(samples) / wall
    budget = max(P50_MULTIPLE * inproc_p50, P50_FLOOR)
    assert http_p50 <= budget, (
        f"warm HTTP p50 {http_p50 * 1e3:.2f} ms exceeds "
        f"{P50_MULTIPLE:.0f}x the in-process warm p50 "
        f"({inproc_p50 * 1e3:.2f} ms)"
    )

    record("Campaign service warm-query load", [
        f"grid: {PRESET} x{REPLICAS} replicas, "
        f"{THREADS} clients x {QUERIES_PER_THREAD} queries",
        f"in-process warm p50: {inproc_p50 * 1e3:8.2f} ms",
        f"HTTP warm p50:       {http_p50 * 1e3:8.2f} ms "
        f"(budget {budget * 1e3:.2f} ms)",
        f"HTTP warm p99:       {http_p99 * 1e3:8.2f} ms",
        f"throughput:          {throughput:8.1f} queries/s "
        f"over {wall:.2f} s",
        f"concurrency:         {busy_ratio:.1f}x busy-time ratio "
        f"({busy_seconds:.2f} s in-handler over {wall:.2f} s wall)",
        f"store reads:         "
        f"{final.get('repro_store_lookups_total', 0.0):.0f} lookups, "
        f"peak {final.get('repro_store_readers_peak_concurrent', 0.0):.0f}"
        f" concurrent",
        f"request histogram:   {seen_requests:.0f} /reports requests "
        f"metered (clients issued {expected_requests})",
        "simulations during load: 0 (counting-backend proof)",
    ])
