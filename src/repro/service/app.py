"""The HTTP daemon: endpoints, report queries, graceful drain.

:class:`CampaignService` binds the registry, the store and the
coalescer to a threaded stdlib HTTP server (one thread per connection,
``ThreadingHTTPServer``).  Endpoints, all JSON unless noted:

=========================================  ===============================
``GET  /healthz``                          liveness + store/cache
                                           counters
``GET  /metrics``                          Prometheus text exposition of
                                           the process-wide registry
                                           (``repro.obs``)
``POST /campaigns``                        submit a spec (the body is the
                                           ``repro-campaign-spec`` JSON);
                                           idempotent per spec identity
``GET  /campaigns``                        list known campaigns
``GET  /campaigns/<id>``                   one campaign's status/progress
``POST /campaigns/<id>/cancel``            cell-aligned cancellation
``GET  /campaigns/<id>/events``            the event stream as NDJSON
                                           (``?follow=0`` for replay-only)
``GET/POST /reports``                      waste-surface report for a
                                           spec — zero simulation when
                                           the store covers it
``POST /shutdown``                         graceful drain and exit
=========================================  ===============================

The report path is the service's reason to exist: coverage is checked
against the store first, a fully-warehoused spec renders straight from
``preload`` + :class:`~repro.store.cache.HotCellCache` +
:func:`~repro.experiments.report.store_report` with **zero**
simulations, and only missing cells trigger a (single-flight coalesced)
fill campaign whose results are published for every later query.

Shutdown never tears a sink: draining lets sessions finish, a bounded
or immediate shutdown cancels them *between* cells, and either way the
results files are valid resumable prefixes.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from ..errors import ParameterError, ReproError
from ..obs import DEFAULT_TIME_BUCKETS, current_tracer, default_registry
from ..store import CampaignStore
from .coalesce import Coalescer, CoalesceTimeout
from .registry import CampaignRegistry
from .wire import (
    NDJSON_CONTENT_TYPE,
    dump_json,
    ndjson_line,
    parse_query,
    read_json_body,
    spec_from_wire,
)

__all__ = ["CampaignService", "PROMETHEUS_CONTENT_TYPE"]

#: How a report query treats cells the store does not cover.
ON_MISS_MODES = ("run", "fail")

#: Content type of the ``GET /metrics`` exposition body.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``/campaigns/<id>/<action>`` suffixes that get their own route label.
_CAMPAIGN_ACTIONS = ("events", "cancel")


def _route_template(parts: list[str]) -> str:
    """The bounded-cardinality route label for metrics: campaign ids
    collapse to ``{id}`` and anything unroutable collapses to a single
    ``(unmatched)`` bucket, so a misbehaving client cannot mint series.
    """
    if not parts:
        return "/"
    head = parts[0]
    if head == "campaigns":
        if len(parts) == 1:
            return "/campaigns"
        if len(parts) == 2:
            return "/campaigns/{id}"
        if len(parts) == 3 and parts[2] in _CAMPAIGN_ACTIONS:
            return "/campaigns/{id}/" + parts[2]
        return "(unmatched)"
    if len(parts) == 1 and head in ("healthz", "shutdown", "reports",
                                    "metrics"):
        return "/" + head
    return "(unmatched)"


class _MissingCells(ReproError):
    """A ``on_miss="fail"`` report found the store incomplete (HTTP 409)."""


class CampaignService:
    """The always-on campaign daemon; start → query → shutdown.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction).  Usable as a context manager::

        with CampaignService(store=store_dir, data_dir=data_dir) as svc:
            urllib.request.urlopen(svc.url("/healthz"))

    ``backend_factory`` is forwarded to both the registry's sessions
    and report fill runs — the tests' counting-backend hook.
    """

    def __init__(
        self,
        *,
        store,
        data_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        backend_factory=None,
        report_timeout: float | None = None,
    ):
        if not isinstance(store, CampaignStore):
            store = CampaignStore(store, create=True)
        self.store = store
        self.registry = CampaignRegistry(
            store, data_dir, workers=workers,
            backend_factory=backend_factory,
        )
        self.metrics = default_registry()
        self.coalescer = Coalescer(registry=self.metrics)
        self._backend_factory = backend_factory
        self._report_timeout = report_timeout
        self._accepting = True
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._closed = threading.Event()
        self._httpd = ThreadingHTTPServer(
            (host, port), _build_handler(self)
        )
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "CampaignService":
        """Serve on a daemon thread; returns self (already listening —
        the socket is bound by the constructor, so no request races the
        start)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="campaign-service", daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground path)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self, *, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting, drain (or cancel) sessions, close the socket.

        Safe to call more than once and from any thread, including a
        request handler's.  Ordering matters: submissions are refused
        first (503), then the registry drains — no sink is torn, every
        results file stays a valid resumable prefix — and only then is
        the listener closed, so streamers watching a draining campaign
        see its stream end cleanly.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self._accepting = False
        self.registry.shutdown(drain=drain, timeout=timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._closed.set()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until a shutdown (from any thread — a signal handler's
        or ``POST /shutdown``'s) has fully completed."""
        return self._closed.wait(timeout)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def status(self) -> dict:
        cache = self.store.cache_stats()
        return {
            "status": "ok" if self._accepting else "draining",
            "accepting": self._accepting,
            "campaigns": len(self.registry.list()),
            "store": {
                "root": str(self.store.root),
                "cache": None if cache is None else {
                    "entries": cache.entries,
                    "bytes": cache.bytes,
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evictions": cache.evictions,
                },
            },
            "coalescer": self.coalescer.stats().describe(),
        }

    def _observe_request(self, route: str, method: str,
                         code: int | None, elapsed: float) -> None:
        """Record one handled request into the per-route series
        (``repro_http_request_seconds{route,method}`` and
        ``repro_http_requests_total{route,code}``)."""
        if not self.metrics.enabled:
            return
        self.metrics.histogram(
            "repro_http_request_seconds", DEFAULT_TIME_BUCKETS,
            help="HTTP request handling wall-clock, by route and method "
                 "(until the reply is sent; streams until their last "
                 "event).",
            unit="seconds", labels={"route": route, "method": method},
        ).observe(elapsed)
        self.metrics.counter(
            "repro_http_requests_total",
            help="HTTP requests handled, by route and status code.",
            labels={"route": route, "code": str(code or 0)},
        ).inc()

    def report_query(self, spec, *, on_miss: str = "run") -> dict:
        """A spec's waste-surface report, warm cells costing zero sims.

        The store's coverage decides the path: fully covered renders
        directly (``preload`` + hot-cell cache + ``store_report``);
        missing cells either refuse (``on_miss="fail"``) or run a
        single-flight coalesced fill campaign that publishes into the
        store, after which the render proceeds warm.
        """
        from ..experiments.report import store_report

        if on_miss not in ON_MISS_MODES:
            raise ParameterError(
                f"unknown on_miss mode {on_miss!r}; "
                f"known: {list(ON_MISS_MODES)}"
            )
        if spec.policy.queue is not None:
            raise ParameterError(
                "report queries cannot drive a distributed queue "
                "campaign; drop policy.queue from the spec"
            )
        present, total = self.store.coverage(spec)
        filled = None
        if present < total:
            # The footprint over-approximates under adaptive control,
            # so "not covered" may still resolve warm — the fill run
            # consults the store per cell and only simulates true
            # misses (and N identical concurrent queries fill once).
            if on_miss == "fail":
                raise _MissingCells(
                    f"store covers {present}/{total} replicas of "
                    "this spec and on_miss='fail' forbids simulating "
                    "the rest; submit the campaign (POST /campaigns) "
                    "or query with on_miss=run"
                )
            filled = self._fill(spec)
        text = store_report(self.store, spec)
        return {
            "report": text,
            "coverage": {"present": present, "total": total},
            "simulated_cells": 0 if filled is None else filled.cells_run,
            "simulated_replicas": 0 if filled is None
            else filled.replicas_run,
        }

    def _fill(self, spec):
        """Run the missing cells of ``spec`` into the store (coalesced
        on spec identity); returns the fill's execution report."""
        from ..sim.executor import execute_spec

        key = json.dumps(spec.fingerprint(), sort_keys=True)

        def compute():
            backend = None if self._backend_factory is None \
                else self._backend_factory(spec)
            # The fill must publish, whatever the submitted policy's
            # store wiring said (both fields are volatile).
            fill_spec = replace(spec, policy=replace(
                spec.policy, store=None, store_mode="read-write",
            ))
            execution = execute_spec(
                fill_spec, store=self.store, backend=backend,
            )
            return execution.report

        return self.coalescer.run(
            key, compute, timeout=self._report_timeout,
        )


# ----------------------------------------------------------------------
# HTTP handler
# ----------------------------------------------------------------------
def _build_handler(service: CampaignService):
    """The per-service handler class (the stdlib API wants a class, the
    service wants per-instance state; a closure bridges them)."""

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-campaign-service/1"
        # Headers and body go out as two writes; with Nagle on, a
        # keep-alive client's delayed ACK holds the body back ~40 ms.
        disable_nagle_algorithm = True

        # -- plumbing --------------------------------------------------
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging is the caller's business, not stderr's

        def send_response(self, code, message=None) -> None:
            # Every response funnels through here (JSON, errors and the
            # NDJSON stream alike), so it is the one status-capture
            # point the request metrics need.
            self._obs_status = int(code)
            super().send_response(code, message)

        def _send_json(self, status: int, payload: dict) -> None:
            body = dump_json(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self._meter()
            self.end_headers()
            self.wfile.write(body)

        def _meter(self) -> None:
            """Record this request's metrics, once, before the client
            can see any of the reply (``end_headers`` sends the status
            line): a client holding a reply, even one that never reads
            its body, always finds its request in a later ``/metrics``."""
            if self._obs_route is not None:
                service._observe_request(
                    self._obs_route, self._obs_method, self._obs_status,
                    time.perf_counter() - self._obs_started,
                )
                self._obs_route = None

        def _error(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _route(self, method: str) -> None:
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            route = _route_template(parts)
            self._obs_status = None
            self._obs_route, self._obs_method = route, method
            self._obs_started = time.perf_counter()
            tracer = current_tracer()
            try:
                if tracer is None:
                    self._handle(method, parts, parsed.query)
                else:
                    with tracer.span("http.request", "http",
                                     method=method, route=route) as span:
                        self._handle(method, parts, parsed.query)
                        span.args["code"] = self._obs_status
            finally:
                self._meter()  # no-op unless the reply never finished

        def _handle(self, method: str, parts: list[str],
                    raw_query: str) -> None:
            try:
                query = parse_query(raw_query)
                self._dispatch(method, parts, query)
            except _MissingCells as exc:
                self._error(HTTPStatus.CONFLICT, str(exc))
            except CoalesceTimeout as exc:
                self._error(HTTPStatus.GATEWAY_TIMEOUT, str(exc))
            except ParameterError as exc:
                self._error(HTTPStatus.BAD_REQUEST, str(exc))
            except BrokenPipeError:
                self.close_connection = True
            except ReproError as exc:
                self._error(HTTPStatus.INTERNAL_SERVER_ERROR, str(exc))

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            self._route("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            self._route("POST")

        # -- routes ----------------------------------------------------
        def _dispatch(self, method: str, parts: list[str],
                      query: dict) -> None:
            if parts == ["healthz"] and method == "GET":
                self._send_json(HTTPStatus.OK, service.status())
                return
            if parts == ["metrics"] and method == "GET":
                self._send_metrics()
                return
            if parts == ["shutdown"] and method == "POST":
                self._shutdown()
                return
            if parts == ["reports"]:
                self._reports(method, query)
                return
            if parts and parts[0] == "campaigns":
                self._campaigns(method, parts[1:], query)
                return
            self._error(
                HTTPStatus.NOT_FOUND,
                f"no such endpoint: {method} /{'/'.join(parts)}",
            )

        def _campaigns(self, method: str, rest: list[str],
                       query: dict) -> None:
            if not rest:
                if method == "POST":
                    self._submit()
                elif method == "GET":
                    self._send_json(HTTPStatus.OK, {
                        "campaigns": service.registry.list(),
                    })
                else:
                    self._error(HTTPStatus.NOT_FOUND,
                                f"no such endpoint: {method} /campaigns")
                return
            handle = service.registry.get(rest[0])
            action = rest[1:]
            if not action and method == "GET":
                self._send_json(HTTPStatus.OK, handle.snapshot())
            elif action == ["cancel"] and method == "POST":
                handle.cancel()
                self._send_json(HTTPStatus.OK, handle.snapshot())
            elif action == ["events"] and method == "GET":
                follow = query.get("follow", "1") not in ("0", "false")
                self._stream_events(handle, follow)
            else:
                self._error(
                    HTTPStatus.NOT_FOUND,
                    f"no such endpoint: {method} /campaigns/<id>"
                    f"/{'/'.join(action)}",
                )

        def _send_metrics(self) -> None:
            body = service.metrics.render_prometheus().encode("utf-8")
            self.send_response(HTTPStatus.OK)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self._meter()
            self.end_headers()
            self.wfile.write(body)

        def _submit(self) -> None:
            if not service._accepting:
                self._error(
                    HTTPStatus.SERVICE_UNAVAILABLE,
                    "the service is draining and no longer accepts "
                    "campaign submissions",
                )
                return
            spec = spec_from_wire(read_json_body(self))
            handle, created = service.registry.submit(spec)
            self._send_json(
                HTTPStatus.CREATED if created else HTTPStatus.OK,
                {**handle.snapshot(),
                 "links": {
                     "self": f"/campaigns/{handle.id}",
                     "events": f"/campaigns/{handle.id}/events",
                 }},
            )

        def _reports(self, method: str, query: dict) -> None:
            if method == "POST":
                body = read_json_body(self)
                spec_data = body.get("spec")
                if spec_data is None:
                    raise ParameterError(
                        "POST /reports body needs a 'spec' field "
                        "holding the campaign-spec object"
                    )
                on_miss = body.get("on_miss", "run")
                unknown = set(body) - {"spec", "on_miss"}
                if unknown:
                    raise ParameterError(
                        f"unknown report field(s): {sorted(unknown)}; "
                        "known: spec, on_miss"
                    )
            elif method == "GET":
                if "spec" not in query:
                    raise ParameterError(
                        "GET /reports needs a spec=<url-encoded "
                        "campaign-spec JSON> query parameter"
                    )
                spec_data = query["spec"]
                on_miss = query.get("on_miss", "run")
                unknown = set(query) - {"spec", "on_miss"}
                if unknown:
                    raise ParameterError(
                        f"unknown report query parameter(s): "
                        f"{sorted(unknown)}; known: spec, on_miss"
                    )
            else:
                self._error(HTTPStatus.NOT_FOUND,
                            f"no such endpoint: {method} /reports")
                return
            spec = spec_from_wire(spec_data)
            payload = service.report_query(spec, on_miss=on_miss)
            self._send_json(HTTPStatus.OK, payload)

        def _stream_events(self, handle, follow: bool) -> None:
            self.send_response(HTTPStatus.OK)
            self.send_header("Content-Type", NDJSON_CONTENT_TYPE)
            # The stream has no length; EOF delimits it.
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            try:
                for wire_dict in handle.events(follow=follow):
                    self.wfile.write(ndjson_line(wire_dict))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hung up; the campaign is unaffected
            # The stream ends at EOF, which the client sees only once
            # this handler returns and the connection closes.
            self._meter()

        def _shutdown(self) -> None:
            drain = True
            if self.headers.get("Content-Length"):
                body = read_json_body(self)
                unknown = set(body) - {"drain"}
                if unknown:
                    raise ParameterError(
                        f"unknown shutdown field(s): {sorted(unknown)}; "
                        "known: drain"
                    )
                drain = bool(body.get("drain", True))
            self._send_json(HTTPStatus.ACCEPTED, {
                "status": "shutting down", "drain": drain,
            })
            # The handler thread must not join the serve loop it is
            # itself a request of; hand off and let the response flush.
            threading.Thread(
                target=service.shutdown, kwargs={"drain": drain},
                name="campaign-service-shutdown", daemon=True,
            ).start()

    return _Handler
