"""Observability: one metrics registry and one tracer for every layer.

The paper's argument is a waste decomposition — where a platform's
wall-clock goes under checkpoint/restart.  :mod:`repro.obs` lets the
reproduction answer the same question about *its own* execution:

* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — stdlib-only,
  process-wide, thread-safe counters/gauges/fixed-bucket histograms
  with labeled series, a versioned snapshot wire format
  (``repro-metrics`` v1) and Prometheus text exposition (served at
  ``GET /metrics`` by :mod:`repro.service`);
* :class:`Tracer` (:mod:`repro.obs.trace`) — nested spans (campaign →
  cell; store lookup/publish/preload; queue
  claim/steal/lease-refresh; HTTP request) with a versioned wire dict,
  exportable as Chrome trace-event JSON (``repro-checkpoint campaign
  --trace FILE``);
* :class:`MetricsConsumer` (:mod:`repro.obs.consumer`) — the EventBus
  subscriber that turns the campaign event stream into series and
  feeds ``ExecutionReport.metrics``.

Naming convention
-----------------
Every series is named ``repro_<layer>_<name>_<unit>``:

* ``<layer>`` is the subsystem: ``executor``, ``store``, ``queue``,
  ``coalescer``, ``http``;
* ``<name>`` is snake_case and specific (``cache_hits``, ``lookup``,
  ``lease_refreshes``);
* ``<unit>`` is the Prometheus-conventional suffix: ``_total`` for
  counters, ``_seconds`` for latency histograms (buckets from
  :data:`~repro.obs.metrics.DEFAULT_TIME_BUCKETS`), ``_bytes`` /
  ``_entries`` / bare nouns for gauges.

Examples: ``repro_store_cache_hits_total``,
``repro_executor_cell_seconds``, ``repro_http_request_seconds``,
``repro_queue_steals_total``.

On/off switch
-------------
Instrumentation is **on by default** (its cost is gated ≤3% wall-clock
in ``benchmarks/bench_campaign_parallel.py``).  ``REPRO_OBS=off`` in
the environment — or :func:`set_enabled` at runtime — disables the
export side: nothing registers, snapshots are empty, the executor
skips its :class:`MetricsConsumer`.  Instruments owned by components
(the store's lookup/reader series, the hot-cell cache counters behind
``cache_stats()``) keep counting regardless.
"""

from __future__ import annotations

import os
import threading

from .consumer import MetricsConsumer
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_WIRE_FORMAT,
    METRICS_WIRE_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
    snapshot_from_dict,
)
from .trace import (
    TRACE_WIRE_FORMAT,
    TRACE_WIRE_VERSION,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    span,
    span_from_dict,
    uninstall_tracer,
)

__all__ = [
    "METRICS_WIRE_FORMAT",
    "METRICS_WIRE_VERSION",
    "TRACE_WIRE_FORMAT",
    "TRACE_WIRE_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsConsumer",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "span",
    "span_from_dict",
    "snapshot_from_dict",
    "render_prometheus",
    "default_registry",
    "enabled",
    "set_enabled",
]

_lock = threading.Lock()
_registry: MetricsRegistry | None = None


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_OBS", "on").strip().lower()
    return value not in {"off", "0", "false", "no"}


def default_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use; its enabled
    state seeds from ``REPRO_OBS``)."""
    global _registry
    with _lock:
        if _registry is None:
            _registry = MetricsRegistry(enabled=_env_enabled())
        return _registry


def enabled() -> bool:
    """Is the export side of observability on?"""
    return default_registry().enabled


def set_enabled(flag: bool) -> None:
    """Flip observability at runtime (overrides ``REPRO_OBS``).

    Affects *future* wiring: sessions, stores and services constructed
    after the flip follow the new state; instruments already handed out
    keep working either way.
    """
    default_registry().enabled = bool(flag)
