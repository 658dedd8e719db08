"""The EventBus metrics consumer: campaign telemetry off one stream.

:class:`MetricsConsumer` subscribes alongside the sink writer, store
publisher and progress tracker (:mod:`repro.sim.events`) and turns the
event stream into registry series — a cell interval histogram, cell
and replica counters broken down by source (``backend``/``store``/
``resume``), and an end-of-campaign replicas-per-second gauge.

It observes into a *campaign-private* :class:`MetricsRegistry` (always
enabled), whose snapshot becomes ``ExecutionReport.metrics`` — the
per-run "where did the time go" answer.  On ``close`` the private
totals are absorbed into the process-wide default registry, so
``GET /metrics`` sees the cumulative view without per-campaign series
ever double counting.

Like every consumer it is a pure observer: it never touches the events
or the sink, so its presence cannot perturb result bytes (proven
against ``tests/golden/`` in ``tests/test_obs.py``).
"""

from __future__ import annotations

import time

from ..sim.events import CampaignStarted, CellFinished, EventConsumer
from .metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

__all__ = ["MetricsConsumer"]


class MetricsConsumer(EventConsumer):
    """Campaign events → metrics series.  See the module docstring."""

    def __init__(self, export_registry: MetricsRegistry | None = None):
        if export_registry is None:
            from . import default_registry

            export_registry = default_registry()
        self._export = export_registry
        self.registry = MetricsRegistry()
        self._campaigns = self.registry.counter(
            "repro_executor_campaigns_total",
            help="Campaign executions observed on the event bus.")
        self._cell_seconds = self.registry.histogram(
            "repro_executor_cell_seconds", DEFAULT_TIME_BUCKETS,
            help="Wall-clock between consecutive CellFinished events "
                 "(the first cell from CampaignStarted): producing, "
                 "aggregating and fanning out each cell; the sum covers "
                 "the stream's wall-clock.", unit="seconds")
        self._replicas_per_second = self.registry.gauge(
            "repro_executor_replicas_per_second", aggregate="max",
            help="Replica throughput of the last finished campaign.")
        self._cells: dict = {}
        self._replicas: dict = {}
        self._clock = time.perf_counter
        #: When the previous CellFinished (or CampaignStarted) arrived.
        self._last = self._clock()

    def _by_source(self, table, name, help, source):
        counter = table.get(source)
        if counter is None:
            counter = table[source] = self.registry.counter(
                name, help=help, labels={"source": source})
        return counter

    def on_event(self, event) -> None:
        if isinstance(event, CellFinished):
            now = self._clock()
            self._by_source(
                self._cells, "repro_executor_cells_total",
                "Grid cells finished, by source.", event.source,
            ).inc()
            self._by_source(
                self._replicas, "repro_executor_replicas_total",
                "Replica results emitted, by source.", event.source,
            ).inc(len(event.block))
            self._cell_seconds.observe(now - self._last)
            self._last = now
        elif isinstance(event, CampaignStarted):
            self._campaigns.inc()
            self._last = self._clock()

    def finalize(self, *, elapsed: float, replicas_run: int) -> None:
        """Record end-of-campaign throughput before the report is
        built (the session calls this just ahead of CampaignFinished,
        so ``ExecutionReport.metrics`` includes it)."""
        if elapsed > 0:
            self._replicas_per_second.set(replicas_run / elapsed)

    def snapshot(self) -> dict:
        """This campaign's series as the metrics wire dict."""
        return self.registry.snapshot()

    def close(self, error: Exception | None = None) -> None:
        self._export.absorb(self.registry.snapshot())
