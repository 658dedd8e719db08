"""The four benchmark workloads, driven through the public API.

* ``cold-des`` — the ``high-churn`` preset as shipped (DES, ordered
  sink, results file, shared traces) with replicas scaled up, into an
  empty read-write store each time.
* ``cold-vectorized`` — the ``exa-weibull`` preset the way the README
  headline runs it: ``backend="vectorized"``, framed sink, no store.
* ``warm-rerun`` — the ``cold-des`` spec re-run against its compacted
  store, a fresh ``CampaignStore`` and ``HotCellCache`` each time.
* ``service-reports`` — a ``CampaignService`` daemon over the compacted
  ``cold-des`` store, queried with warm ``GET /reports`` by closed-loop
  clients.

The benchmark's ``--seed`` picks the campaign seed from a fixed pool
(:data:`SEED_POOL`), so the committed reference digests cover every
input the benchmark can generate; the program only ever sees the spec.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field

from perfbench import checks
from perfbench.calibrate import ScaledClock
from perfbench.stats import highest_percentile, median
from perfbench.trace import (
    SpanRecorder,
    TimedBackend,
    layer_summary,
    trace_session,
    trace_store,
    traced_encoders,
    unattributed,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = pathlib.Path(__file__).with_name("reference.json")

#: Campaign seeds the benchmark's ``--seed`` maps onto.
SEED_POOL = tuple(20130 + 101 * k for k in range(16))
COLD_PRESET, COLD_REPLICAS = "high-churn", 32
VECTOR_PRESET, VECTOR_REPLICAS = "exa-weibull", 16
#: Set-ups ``setup_s`` is the median of, at the least.  A cold run
#: holds 4-6 campaigns; ten seeds' quartile spread of ``setup_s`` was
#: 12-13% on their set-ups alone and 5% when topped up to this many.
SETUP_SAMPLES = 10
#: Campaigns per run, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3
#: Daemon launches per untraced ``service-reports`` run (``setup_s``
#: samples); the last one also serves the measured queries.
SERVICE_LAUNCHES = 4
SERVICE_CLIENTS = 2

WORKLOADS = ("cold-des", "cold-vectorized", "warm-rerun", "service-reports")

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("backends.simulate_s", "s"),
    ("backends.cells", "count"),
    ("backends.replicas", "count"),
    ("backends.replica_us", "us"),
    ("engine.des_cells", "count"),
    ("engine.vectorized_cells", "count"),
    ("io.encode_s", "s"),
    ("io.records", "count"),
    ("sinks.emit_s", "s"),
    ("sinks.bytes", "bytes"),
    ("events.publish_s", "s"),
    ("events.events", "count"),
    ("events.self_s", "s"),
    ("store.preload_s", "s"),
    ("store.preload_entries", "count"),
    ("store.load_cell_s", "s"),
    ("store.load_cell_hits", "count"),
    ("store.load_cell_misses", "count"),
    ("store.publish_cell_s", "s"),
    ("store.publish_cells", "count"),
    ("store.coverage_s", "s"),
    ("store.cells_from_store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("report.render_s", "s"),
    ("service.report_query_s", "s"),
    ("service.transport_ms", "ms"),
    ("service.requests", "count"),
    ("service.fills", "count"),
    ("executor.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def campaign_seed(seed: int) -> int:
    return SEED_POOL[seed % len(SEED_POOL)]


def des_spec(seed: int):
    """``cold-des``/``warm-rerun``/``service-reports``: high-churn as
    shipped, replicas scaled up."""
    from repro.experiments.scenarios import get_campaign_preset

    return get_campaign_preset(COLD_PRESET).spec(
        replicas=COLD_REPLICAS, seed=campaign_seed(seed))


def vectorized_spec(seed: int, backend: str = "vectorized"):
    """``cold-vectorized``: exa-weibull, framed sink, no store."""
    from repro.experiments.scenarios import get_campaign_preset
    from repro.sim.spec import ExecutionPolicy

    return get_campaign_preset(VECTOR_PRESET).spec(
        replicas=VECTOR_REPLICAS, seed=campaign_seed(seed),
        policy=ExecutionPolicy(backend=backend, sink="framed"))


def workload_spec(name: str, seed: int):
    return vectorized_spec(seed) if name == "cold-vectorized" \
        else des_spec(seed)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def child_env() -> dict:
    """The environment of every process the benchmark starts: the
    checkout's sources importable, telemetry at its shipped default."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def prepare_store(seed: int, out: pathlib.Path) -> pathlib.Path:
    """Run the ``cold-des`` campaign into ``out/store``, compact it and
    keep its results file as ``out/cold.jsonl``; in a child process, so
    the measured process's peak memory never includes the cold run."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "prepare.py"),
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"store preparation failed: {done.stderr.strip()}")
    return out / "store"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Outcome of one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    campaign_seeds: set = field(default_factory=set)

    def check(self, problem: str | None) -> None:
        """Count one attempted operation and its check's verdict."""
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
@dataclass
class CampaignRun:
    """One campaign: times as ``(raw_s, reference_speed_s)`` pairs."""

    setup: tuple[float, float]
    campaign: tuple[float, float]
    cells_run: int
    cells_cached: int
    results: pathlib.Path
    cache: tuple[int, int]
    layers: dict | None = None


def open_session(spec, results: pathlib.Path, store_dir, recorder):
    """Build the store (if any) and open the session, wrappers on when
    ``recorder`` is given; returns ``(session, store)``."""
    from repro.sim.backends import make_backend
    from repro.sim.executor import CampaignSession
    from repro.store import CampaignStore
    from repro.store.cache import HotCellCache

    store = None
    if store_dir is not None:
        store = CampaignStore(store_dir, cache=HotCellCache())
    backend = None
    if recorder is not None:
        if store is not None:
            trace_store(store, recorder)
        policy = spec.policy
        backend = TimedBackend(
            make_backend(policy.workers, policy.backend), recorder)
    session = CampaignSession(spec, results_path=results, store=store,
                              backend=backend)
    return session, store


def run_campaign(spec, results: pathlib.Path, store_dir,
                 traced: bool) -> CampaignRun:
    """One campaign from store/session open through CampaignFinished,
    re-calibrated between cells (kernel time excluded)."""
    from repro.sim.events import CellFinished

    recorder = SpanRecorder() if traced else None
    scope = traced_encoders(recorder) if traced else contextlib.nullcontext()
    with scope:
        clock = ScaledClock()
        session, store = open_session(spec, results, store_dir, recorder)
        setup = clock.read()
        if recorder is not None:
            trace_session(session, recorder)
        for event in session.events():
            if isinstance(event, CellFinished):
                clock.checkpoint()
        campaign = clock.read()
    report = session.result().report
    stats = store.cache_stats() if store is not None else None
    run = CampaignRun(
        setup=setup, campaign=campaign, cells_run=report.cells_run,
        cells_cached=report.cells_cached, results=results,
        cache=(0, 0) if stats is None else (stats.hits, stats.misses),
    )
    if recorder is not None:
        run.layers = layer_summary(recorder.spans)
    return run


def time_setup(spec, results: pathlib.Path, store_dir) -> tuple:
    """A session opened and abandoned: set-up cost alone, as
    ``(raw_s, reference_speed_s)``."""
    clock = ScaledClock()
    open_session(spec, results, store_dir, None)
    return clock.read()


def engine_counts(spec) -> dict[str, int]:
    """Cells per engine, as the executor resolves them."""
    from repro.sim.executor import plan_cells
    from repro.sim.vectorized import plan_engine

    config = spec.config()
    counts = {"des": 0, "vectorized": 0}
    for plan in plan_cells(config):
        counts[plan_engine(spec.policy.backend, config, plan)] += 1
    return counts


def zero_layers() -> dict[str, float]:
    return {name: 0 for name, _ in PER_LAYER}


def campaign_layers(run: CampaignRun, engines: dict) -> dict:
    """Per-layer metrics of one traced campaign."""
    summary = run.layers

    def get(layer, key="total"):
        return summary.get(layer, {}).get(key, 0)

    replicas = get("backends", "replicas")
    hits, misses = run.cache
    out = zero_layers()
    out.update({
        "backends.simulate_s": get("backends"),
        "backends.cells": get("backends", "cells"),
        "backends.replicas": replicas,
        "backends.replica_us":
            1e6 * get("backends") / replicas if replicas else 0.0,
        "engine.des_cells": engines["des"],
        "engine.vectorized_cells": engines["vectorized"],
        "io.encode_s": get("io"),
        "io.records": get("io", "calls"),
        "sinks.emit_s": get("sinks"),
        "sinks.bytes": run.results.stat().st_size,
        "events.publish_s": get("events"),
        "events.events": get("events", "events"),
        "events.self_s": get("events", "self"),
        "store.preload_s": get("store.preload"),
        "store.preload_entries": get("store.preload", "entries"),
        "store.load_cell_s": get("store.load_cell"),
        "store.load_cell_hits": get("store.load_cell", "hits"),
        "store.load_cell_misses": get("store.load_cell", "misses"),
        "store.publish_cell_s": get("store.publish_cell"),
        "store.publish_cells": get("store.publish_cell", "cells"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "executor.unattributed_s": unattributed(summary, run.campaign[0]),
    })
    return out


def telemetry_problems(run: CampaignRun, layers: dict) -> list[str]:
    """The outside counts must equal the program's own report."""
    problems = []
    if layers["backends.cells"] != run.cells_run:
        problems.append(
            f"backends.cells={layers['backends.cells']} but the report "
            f"says cells_run={run.cells_run}")
    if layers["store.load_cell_hits"] != run.cells_cached:
        problems.append(
            f"store.load_cell_hits={layers['store.load_cell_hits']} but "
            f"the report says cells_cached={run.cells_cached}")
    return problems


def campaign_workload(name: str, seed: int, seconds: float, traced: bool,
                      work: pathlib.Path) -> Outcome:
    reference = load_reference()
    outcome = Outcome()
    results = work / "results.jsonl"
    warm_store = cold_bytes = None
    if name == "warm-rerun":
        warm_store = prepare_store(seed, work / "prepared")
        cold_bytes = (work / "prepared" / "cold.jsonl").read_bytes()

    def seed_of(i: int) -> int:
        # Cold campaigns walk the seed pool from the benchmark seed, so
        # a run's median spans several inputs' simulation costs.
        return seed if name == "warm-rerun" else seed + i

    def store_dir(i):
        if name == "cold-des":
            return work / f"store-{i}"
        return warm_store

    def check(run: CampaignRun, i: int) -> str | None:
        key = str(campaign_seed(seed_of(i)))
        if name == "cold-des":
            return checks.check_digest(
                run.results.read_bytes(), reference["cold_des_sha256"][key])
        if name == "warm-rerun":
            if run.cells_run:
                return f"warm re-run simulated {run.cells_run} cells"
            return checks.check_same_bytes(run.results.read_bytes(),
                                           cold_bytes)
        problems = checks.equivalence_problems(
            checks.waste_stats(run.results),
            checks.reference_cells(reference["vectorized"][key]))
        return "; ".join(problems) if problems else None

    # Times are kept raw and at the reference host speed
    # (perfbench/calibrate.py); the metrics report the latter.
    setups, plain, timed = [], [], []
    layer_rows: list[dict] = []
    engines = engine_counts(workload_spec(name, seed))
    deadline = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < deadline
           or i < (2 if traced else 1) * MIN_CAMPAIGNS):
        # The traced run alternates untraced and traced campaigns; the
        # ratio of their medians is the tracing overhead.
        with_trace = traced and i % 2 == 1
        n = i // 2 if traced else i
        outcome.campaign_seeds.add(campaign_seed(seed_of(n)))
        i += 1
        try:
            run = run_campaign(workload_spec(name, seed_of(n)), results,
                               store_dir(i), with_trace)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            outcome.check(f"campaign raised {type(exc).__name__}: {exc}")
            continue
        problem = check(run, n)
        if with_trace:
            layers = campaign_layers(run, engines)
            problem = "; ".join(filter(None, [problem] + telemetry_problems(
                run, layers))) or None
            layer_rows.append(layers)
            timed.append(run.campaign)
        else:
            plain.append(run.campaign)
            setups.append(run.setup)
        outcome.check(problem)
        _discard(store_dir(i), name)
    # Sessions opened and abandoned top up a run of few campaigns.
    for k in range(len(setups), SETUP_SAMPLES):
        setups.append(time_setup(workload_spec(name, seed_of(k)), results,
                                 store_dir(f"s{k}")))
        _discard(store_dir(f"s{k}"), name)

    raw_s, campaign_s = [t[0] for t in plain], [t[1] for t in plain]
    raw_setup, setup_s = [t[0] for t in setups], [t[1] for t in setups]
    outcome.lines.append(
        f"campaign_s median {median(campaign_s):.4f} s at reference speed "
        f"({median(raw_s):.4f} s raw) over {len(plain)} campaigns; "
        f"setup_s median {median(setup_s):.4f} s ({median(raw_setup):.4f} "
        f"s raw) over {len(setups)} set-ups")
    outcome.lines.append(
        "query_p50_ms/query_p99_ms/queries_per_s: not applicable "
        "(no queries in this workload)")
    if traced:
        metrics = {name_: median([row[name_] for row in layer_rows])
                   for name_, _ in PER_LAYER}
        metrics["trace.overhead_ratio"] = (
            median([t[1] for t in timed]) / median(campaign_s))
        outcome.metrics = metrics
    else:
        outcome.metrics = {
            "setup_s": median(setup_s),
            "op_p50_ms": 1000.0 * median(campaign_s),
            "ops_per_s": len(campaign_s) / sum(campaign_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    return outcome


def _discard(path, name: str) -> None:
    """Remove a cold run's store so the next one starts empty."""
    if name == "cold-des" and path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)/")
#: The closed loop pauses this often so the daemon can time the
#: calibration kernel with nothing else running in it.
SEGMENT_S = 1.0


class Daemon:
    """The campaign service in its own process (``perfbench/daemon.py``,
    which starts it the way ``repro-checkpoint serve`` does)."""

    def __init__(self, store_dir: pathlib.Path, out: pathlib.Path,
                 traced: bool):
        self.out = out
        self.result: dict = {}
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
             "--store", str(store_dir), "--out", str(out),
             "--trace", str(int(traced))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        found = _LISTENING.search(line)
        if found is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def speed(self) -> float:
        """The daemon process's host-speed factor, timed now (median of
        three kernel timings)."""
        factors = []
        for _ in range(3):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            factors.append(float(self.proc.stdout.readline()))
        return sorted(factors)[1]

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def stop(self) -> dict:
        """Close the daemon's stdin (it drains and exits), wait, and read
        its record."""
        if self.proc.returncode is None:
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        if self.out.exists():
            self.result = json.loads(self.out.read_text())
        return self.result

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _reply(body: bytes) -> dict | None:
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def closed_loop(daemon: Daemon, path: str, expected: str, seconds: float,
                outcome: Outcome) -> tuple[list, tuple[float, float]]:
    """``SERVICE_CLIENTS`` clients, each waiting for every reply on one
    persistent HTTP/1.1 connection, for ``seconds`` in ``SEGMENT_S``
    segments.  Between segments the clients pause and the daemon times
    the calibration kernel; each segment is scaled by the mean factor at
    its ends.  Returns ``(raw_s, reference_speed_s)`` per completed query
    and the same pair for the loop's busy wall time."""
    segments = [[] for _ in range(max(1, round(seconds / SEGMENT_S)))]
    gate = threading.Barrier(SERVICE_CLIENTS + 1, timeout=120)
    lock = threading.Lock()
    deadline = [0.0]

    def client():
        conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                          timeout=60)
        try:
            for segment in segments:
                gate.wait()
                while time.perf_counter() < deadline[0]:
                    start = time.perf_counter()
                    try:
                        conn.request("GET", path)
                        reply = conn.getresponse()
                        body = reply.read()
                    except (OSError, http.client.HTTPException) as exc:
                        conn.close()
                        with lock:
                            outcome.check(f"query failed: {exc}")
                        continue
                    elapsed = time.perf_counter() - start
                    problem = checks.check_reply(
                        reply.status, _reply(body), expected)
                    with lock:
                        segment.append(elapsed)
                        outcome.check(problem)
                gate.wait()
        finally:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    samples, wall, scaled_wall = [], 0.0, 0.0
    try:
        factor = daemon.speed()
        for segment in segments:
            start = time.perf_counter()
            deadline[0] = start + seconds / len(segments)
            gate.wait()
            gate.wait()
            span = time.perf_counter() - start
            after = daemon.speed()
            scale = (factor + after) / 2
            samples += [(raw, raw * scale) for raw in segment]
            wall += span
            scaled_wall += span * scale
            factor = after
    except BaseException:
        gate.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    return samples, (wall, scaled_wall)


def launch(store_dir, out, traced, path, expected, outcome):
    """Start a daemon; ``(daemon, (raw_s, reference_speed_s))`` where
    set-up runs from the launch until the first successful ``/reports``
    reply, scaled by the daemon's speed timed right after it."""
    start = time.perf_counter()
    daemon = Daemon(store_dir, out, traced)
    try:
        status, body = daemon.get(path)
    except BaseException:
        daemon.stop()
        raise
    raw = time.perf_counter() - start
    outcome.check(checks.check_reply(status, _reply(body), expected))
    return daemon, (raw, raw * daemon.speed())


def scrape(daemon: Daemon) -> tuple[int, int, int]:
    """``(reports_requests, cache_hits, cache_misses)`` as the daemon's
    own telemetry counts them."""
    _, text = daemon.get("/metrics")
    requests = 0
    for line in text.decode().splitlines():
        if line.startswith("repro_http_request_seconds_count{") \
                and 'route="/reports"' in line:
            requests += int(float(line.rsplit(None, 1)[1]))
    _, health = daemon.get("/healthz")
    cache = json.loads(health)["store"]["cache"]
    return requests, cache["hits"], cache["misses"]


def settled_scrape(daemon: Daemon) -> tuple:
    """:func:`scrape` repeated until two consecutive reads agree (or
    30 s pass).

    A handler records its request metric after the reply has gone out,
    so a read taken right after the last reply can miss it."""
    last = scrape(daemon)
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        time.sleep(0.05)
        current = scrape(daemon)
        if current == last:
            return current
        last = current
    return last


def service_workload(seed: int, seconds: float, traced: bool,
                     work: pathlib.Path) -> Outcome:
    from repro.experiments.report import store_report
    from repro.store import CampaignStore
    from repro.store.cache import HotCellCache

    spec = des_spec(seed)
    outcome = Outcome(campaign_seeds={campaign_seed(seed)})
    store_dir = prepare_store(seed, work / "prepared")
    expected = store_report(
        CampaignStore(store_dir, create=False, cache=HotCellCache()), spec)
    path = "/reports?" + urllib.parse.urlencode(
        {"spec": json.dumps(spec.to_dict(), sort_keys=True)})

    if not traced:
        setups = []
        for n in range(SERVICE_LAUNCHES):
            daemon, setup = launch(store_dir, work / f"daemon-{n}.json",
                                   False, path, expected, outcome)
            with daemon:
                setups.append(setup)
                if n == SERVICE_LAUNCHES - 1:
                    samples, wall = closed_loop(
                        daemon, path, expected, seconds, outcome)
        _service_lines(outcome, samples, wall, setups)
        outcome.metrics = {
            "setup_s": median(s[1] for s in setups),
            "op_p50_ms": 1000.0 * median(s[1] for s in samples),
            "ops_per_s": len(samples) / wall[1],
            "peak_rss_mb": daemon.result["peak_rss_mb"],
        }
        return outcome

    daemon, _ = launch(store_dir, work / "plain.json", False, path,
                       expected, outcome)
    with daemon:
        plain, _ = closed_loop(daemon, path, expected, seconds / 2, outcome)
    daemon, _ = launch(store_dir, work / "traced.json", True, path,
                       expected, outcome)
    with daemon:
        before = settled_scrape(daemon)
        window_start = time.monotonic()
        samples, _ = closed_loop(daemon, path, expected, seconds / 2,
                                 outcome)
        window_end = time.monotonic()
        after = settled_scrape(daemon)
    summary = layer_summary(
        daemon.result["spans"],
        keep=lambda s: window_start <= s["start"] <= window_end)
    outcome.metrics = service_layers(summary, samples, plain, before, after)
    requests = outcome.metrics["service.requests"]
    counted = after[0] - before[0]
    if requests != counted:
        outcome.problems.append(
            f"service.requests={requests} but GET /metrics counted "
            f"{counted} /reports requests")
    if outcome.metrics["service.fills"]:
        outcome.problems.append(
            f"{outcome.metrics['service.fills']} warm queries ran a fill")
    outcome.lines.append(
        f"traced window: {requests} queries, client p50 "
        f"{1000 * median(s[0] for s in samples):.3f} ms traced vs "
        f"{1000 * median(s[0] for s in plain):.3f} ms untraced (raw)")
    return outcome


def service_layers(summary: dict, samples, plain, before, after) -> dict:
    """Per-layer metrics of the traced window: times per query (mean),
    counts over the window; ``samples``/``plain`` are the traced and
    untraced ``(raw_s, reference_speed_s)`` latencies."""

    def get(layer, key="total"):
        return summary.get(layer, {}).get(key, 0)

    requests = get("service.report_query", "calls")
    per = 1.0 / requests if requests else 0.0
    hits, misses = after[1] - before[1], after[2] - before[2]
    out = zero_layers()
    out.update({
        "io.encode_s": get("io") * per,
        "io.records": get("io", "calls"),
        "store.preload_s": get("store.preload") * per,
        "store.preload_entries": get("store.preload", "entries"),
        "store.load_cell_s": get("store.load_cell") * per,
        "store.load_cell_hits": get("store.load_cell", "hits"),
        "store.load_cell_misses": get("store.load_cell", "misses"),
        "store.coverage_s": get("store.coverage") * per,
        "store.cells_from_store_s": get("store.cells_from_store") * per,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "report.render_s": (get("report.store_report")
                            - get("store.cells_from_store")) * per,
        "service.report_query_s": get("service.report_query") * per,
        "service.transport_ms": 1000.0 * (
            median(s[0] for s in samples)
            - get("service.report_query") * per),
        "service.requests": requests,
        "service.fills": get("service.report_query", "fills"),
        "trace.overhead_ratio": (median(s[1] for s in samples)
                                 / median(s[1] for s in plain)),
    })
    return out


def _service_lines(outcome: Outcome, samples, wall, setups) -> None:
    raw = [s[0] for s in samples]
    tail = highest_percentile([s[1] for s in samples])
    tail_text = ("no tail percentile (too few samples)" if tail is None
                 else f"p{tail[0]:g} {1000 * tail[1]:.3f} ms")
    outcome.lines.append(
        f"query_p50_ms {1000 * median(s[1] for s in samples):.3f} at "
        f"reference speed ({1000 * median(raw):.3f} raw) over {len(raw)} "
        f"queries; highest tail with 10 samples beyond it: {tail_text}; "
        f"queries_per_s {len(raw) / wall[1]:.2f} "
        f"({len(raw) / wall[0]:.2f} raw) from {SERVICE_CLIENTS} "
        f"closed-loop clients")
    outcome.lines.append(
        f"setup_s median {median(s[1] for s in setups):.4f} s "
        f"({median(s[0] for s in setups):.4f} s raw) over {len(setups)} "
        f"daemon launches")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work: pathlib.Path) -> Outcome:
    if name == "service-reports":
        return service_workload(seed, seconds, traced, work)
    return campaign_workload(name, seed, seconds, traced, work)
