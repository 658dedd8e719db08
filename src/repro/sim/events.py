"""Typed result-event pipeline: producers → bus → consumers.

The execution core is event-driven: whatever runs a campaign's cells —
:class:`~repro.sim.backends.SerialBackend`,
:class:`~repro.sim.backends.ProcessPoolBackend`, the distributed
work-stealing backend, the vectorized engine, a results-store hit, or a
resume recovery — is a pure *producer* of the typed events in this
module, and everything that used to be hard-wired into the executor's
inner loop — the JSONL sink append, the store publish, the adaptive
controller's bookkeeping, progress counters — is an independent
*consumer* subscribed to one in-process :class:`EventBus`.  The seam
between them is where a long-running service, a metrics exporter or a
streaming client plugs in without owning (or perturbing) the execution
loop: byte-identical files fall out of the same consumer that always
wrote them.

Event grammar
-------------
One campaign produces exactly this stream (a regular language)::

    CampaignStarted CellFinished* CampaignFinished

Every cell — recovered, store-served or freshly simulated — appears as
exactly one ``CellFinished`` carrying all of its replica results, so
any consumer can replay the stream to the campaign's exact final state
(the consistent-observer property: an observer must never see a stream
that replays to a different state than the ground-truth files), and no
result travels twice.  Progress is not an event: it is a snapshot
(:class:`CampaignProgress`) polled from the :class:`ProgressTracker`.
The ``source`` field says where the replicas came from and drives each
consumer's filter:

========== ===================================== ============ =========
source     meaning                               sink append  store pub
========== ===================================== ============ =========
backend    freshly simulated this execution      yes          yes
store      served from the content-addressed     yes          no
           results store (zero simulations) —
           before dispatch, or by a queue worker
           inside its claimed chunk
resume     recovered from the existing results   no (already  no
           file before execution began           on disk)
========== ===================================== ============ =========

Consumer contract
-----------------
The bus is deliberately synchronous and unbuffered; the contract every
consumer can rely on (and every producer must honour):

**Ordering.**  Fan-out is deterministic: consumers receive each event in
*subscription order*, and event *N* is fully delivered to every consumer
before event *N + 1* is produced.  The built-in subscription order is
fixed — controller replay, sink writer, store publisher, progress
tracker, cell callback, then user consumers — which encodes the
durability rule directly: a cell reaches the results file before the
store can publish it, and progress counters only ever describe cells
that are already durable.  Cells arrive in *emission order*:
grid order under an ordered sink, store-hits-then-completion-order
under a framed one — exactly the order the file is written in.

**Backpressure.**  Delivery is a plain synchronous call on the
producer's thread: a slow consumer slows the campaign down rather than
falling behind, and no event is ever queued, coalesced or dropped.
Consumers that cannot afford to block the inner loop must do their own
buffering (the progress tracker is the model: O(1) counter updates
under a lock, snapshots on demand from any thread).

**Error propagation.**  A consumer exception aborts the campaign: it
propagates out of :meth:`EventBus.publish` into the producing loop and
from there to whoever is iterating
:meth:`~repro.sim.executor.CampaignSession.events`.  There is no
dead-letter path — a consumer that must survive its own failures
catches them itself.  On any termination (clean or not) every consumer's
:meth:`EventConsumer.close` is called exactly once, in subscription
order, with the terminating exception (or ``None``).

Built-in consumers
------------------
:class:`SinkWriter`
    appends ``backend``/``store`` cells to the
    :class:`~repro.sim.sinks.ResultSink` — the byte-identical file path.
:class:`StorePublisher`
    publishes ``backend`` cells to the
    :class:`~repro.store.CampaignStore` *after* the sink append (it
    subscribes after the writer; the warehouse must never get ahead of
    the durable results file).
:class:`ControllerReplay`
    replays every finished cell's waste sequence through a fresh
    :class:`~repro.sim.adaptive.ReplicaController` cursor and refuses a
    stream whose replica counts disagree with the stopping rule — the
    live-stream counterpart of the resume scan's per-cell validation.
:class:`ProgressTracker`
    thread-safe counters behind
    :meth:`~repro.sim.executor.CampaignSession.progress`; the final
    :class:`~repro.sim.executor.ExecutionReport` is assembled from this
    consumer's totals, so the metrics path is load-bearing, not
    decorative.
:class:`CellCallback`
    adapts the historical ``on_cell=`` callback surface.

Wire format
-----------
Every event serialises to a versioned JSON-safe dict
(:func:`event_to_dict`) and back (:func:`event_from_dict`) under the
same discipline as the :mod:`repro.io` envelopes and the campaign spec:
a ``format``/``version`` header, refused-by-name validation of unknown
kinds and fields, and an exact round trip:
``event_to_dict(event_from_dict(d)) == d`` holds for every emitted wire
dict, and decoding reproduces the original event field-for-field (equal
up to IEEE NaN, which compares unequal to itself — results carrying
``fatal_time=nan`` round-trip to canonically identical bytes via
:func:`repro.io.dump_result`).  Replica results ride in
:func:`repro.io.to_envelope` envelopes (typed float sentinels, exact
NaN round trip); a :class:`CellFinished` event's aggregated cell is
*not* transmitted — it is a pure function of ``(plan, results)`` and is
recomputed on read via :func:`make_cell`, so the wire carries no
derivable state that could drift from its inputs.  This one schema is
shared by the campaign service's NDJSON stream
(``GET /campaigns/<id>/events``) and any future replay consumer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import ParameterError
from .adaptive import ReplicaController, stop_count
from .campaign import CampaignCell, CampaignConfig
from .results import DesResult, MonteCarloSummary
from .sinks import ResultSink

if TYPE_CHECKING:  # circular at runtime: executor builds on this module
    from .executor import CellPlan, ExecutionReport
    from .spec import CampaignSpec

__all__ = [
    "EVENT_SOURCES",
    "EVENT_WIRE_FORMAT",
    "EVENT_WIRE_VERSION",
    "CampaignEvent",
    "CampaignStarted",
    "CellFinished",
    "CampaignProgress",
    "CampaignFinished",
    "EventConsumer",
    "EventBus",
    "SinkWriter",
    "StorePublisher",
    "ControllerReplay",
    "ProgressTracker",
    "CellCallback",
    "make_cell",
    "event_to_dict",
    "event_from_dict",
]

#: Where a cell's replicas came from (see the module table).
EVENT_SOURCES = ("backend", "store", "resume")

EVENT_WIRE_FORMAT = "repro-campaign-event"
#: Written wire version.  Readers gate on each object's declared
#: version, so a future shape change bumps this and keeps reading older
#: spellings.
EVENT_WIRE_VERSION = 1
_WIRE_READ_VERSIONS = frozenset({1})


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignEvent:
    """Base of every event on the bus (useful for isinstance filters)."""


@dataclass(frozen=True)
class CampaignStarted(CampaignEvent):
    """First event of every stream: the full plan, before any cell.

    ``resumed`` holds the plan indices recovered from the results file —
    their cells follow immediately, in grid order, tagged
    ``source="resume"``.
    """

    spec: "CampaignSpec"
    plans: tuple
    resumed: tuple[int, ...] = ()

    @property
    def cells_total(self) -> int:
        return len(self.plans)


@dataclass(frozen=True)
class CellFinished(CampaignEvent):
    """A cell is complete: all of its replicas, plus the summary."""

    plan: "CellPlan"
    cell: CampaignCell
    results: tuple[DesResult, ...]
    source: str = "backend"


@dataclass(frozen=True)
class CampaignProgress:
    """A point-in-time counter snapshot, polled on demand.

    Not an event: :meth:`ProgressTracker.snapshot` /
    :meth:`~repro.sim.executor.CampaignSession.progress` return it from
    any thread; the stream itself carries only the cells the counters
    are derived from.
    """

    cells_total: int
    cells_resumed: int
    cells_cached: int
    cells_run: int
    replicas_run: int
    elapsed: float

    @property
    def cells_done(self) -> int:
        return self.cells_resumed + self.cells_cached + self.cells_run

    def describe(self) -> str:
        return (
            f"{self.cells_done}/{self.cells_total} cells "
            f"({self.cells_resumed} resumed, {self.cells_cached} cached, "
            f"{self.cells_run} run), replicas={self.replicas_run}, "
            f"{self.elapsed:.2f}s"
        )


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """Last event of every clean stream: the final execution report."""

    report: "ExecutionReport"


def make_cell(plan: "CellPlan", results) -> CampaignCell:
    """Aggregate one cell from its plan and replica results.

    The deterministic function behind every :class:`CellFinished.cell`
    — live emission, store resolution and wire decoding all build the
    cell through here, so an aggregated cell can never disagree with
    the replicas it summarises.
    """
    results = tuple(results)
    summary = MonteCarloSummary.from_samples(
        [res.waste for res in results],
        successes=sum(res.succeeded for res in results),
        meta={"protocol": plan.protocol, "M": plan.M, "phi": plan.phi},
    )
    return CampaignCell(
        protocol=plan.protocol, M=plan.M, phi=plan.phi,
        summary=summary, results=results,
    )


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
_PLAN_FIELDS = ("index", "protocol", "m_index", "M", "phi", "effective_phi")
_REPORT_FIELDS = ("cells_total", "cells_skipped", "cells_run", "workers",
                  "chunk_size", "elapsed", "replicas_run", "sink",
                  "cells_cached")


def _plan_to_dict(plan: "CellPlan") -> dict:
    return {name: getattr(plan, name) for name in _PLAN_FIELDS}


def _plan_from_dict(data) -> "CellPlan":
    from .executor import CellPlan

    _check_fields("cell plan", data, _PLAN_FIELDS, required=_PLAN_FIELDS)
    return CellPlan(
        index=int(data["index"]), protocol=str(data["protocol"]),
        m_index=int(data["m_index"]), M=float(data["M"]),
        phi=float(data["phi"]), effective_phi=float(data["effective_phi"]),
    )


def _check_fields(what, data, known, *, required=()):
    if not isinstance(data, dict):
        raise ParameterError(
            f"a {what} must be an object, got {type(data).__name__}"
        )
    unknown = set(data) - set(known)
    if unknown:
        raise ParameterError(
            f"unknown {what} field(s): {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    missing = set(required) - set(data)
    if missing:
        raise ParameterError(
            f"{what} is missing field(s): {sorted(missing)}"
        )


def _check_source(source) -> str:
    if source not in EVENT_SOURCES:
        raise ParameterError(
            f"unknown event source {source!r}; known: {list(EVENT_SOURCES)}"
        )
    return source


def _results_to_wire(results) -> list:
    from .. import io as repro_io

    return [repro_io.to_envelope(res) for res in results]


def _results_from_wire(data) -> tuple[DesResult, ...]:
    from .. import io as repro_io

    if not isinstance(data, list):
        raise ParameterError(
            f"event results must be a list of result envelopes, "
            f"got {type(data).__name__}"
        )
    results = []
    for envelope in data:
        result = repro_io.from_envelope(envelope)
        if not isinstance(result, DesResult):
            raise ParameterError(
                f"event results must decode to DesResult, "
                f"got {type(result).__name__}"
            )
        results.append(result)
    return tuple(results)


def event_to_dict(event: CampaignEvent) -> dict:
    """One event as a versioned, JSON-safe wire dict.

    The exact inverse of :func:`event_from_dict`; replica results are
    carried as :func:`repro.io.to_envelope` envelopes, so non-finite
    floats survive strict JSON round trips.
    """
    head = {"format": EVENT_WIRE_FORMAT, "version": EVENT_WIRE_VERSION,
            "kind": type(event).__name__}
    if isinstance(event, CampaignStarted):
        return {**head,
                "spec": event.spec.to_dict(),
                "plans": [_plan_to_dict(p) for p in event.plans],
                "resumed": [int(i) for i in event.resumed]}
    if isinstance(event, CellFinished):
        # The aggregated cell is derivable state — recomputed on read
        # by make_cell, never transmitted.
        return {**head, "plan": _plan_to_dict(event.plan),
                "source": event.source,
                "results": _results_to_wire(event.results)}
    if isinstance(event, CampaignFinished):
        return {**head, "report": {
            name: getattr(event.report, name) for name in _REPORT_FIELDS
        }}
    raise ParameterError(
        f"cannot serialise {type(event).__name__}: not a campaign event "
        "kind the wire format knows"
    )


def _started_from_dict(data) -> CampaignStarted:
    from .spec import CampaignSpec

    _check_fields("CampaignStarted event", data,
                  ("format", "version", "kind", "spec", "plans", "resumed"),
                  required=("spec", "plans"))
    if not isinstance(data["plans"], list):
        raise ParameterError(
            f"CampaignStarted plans must be a list, "
            f"got {type(data['plans']).__name__}"
        )
    return CampaignStarted(
        spec=CampaignSpec.from_dict(data["spec"]),
        plans=tuple(_plan_from_dict(p) for p in data["plans"]),
        resumed=tuple(int(i) for i in data.get("resumed", ())),
    )


def _finished_from_dict(data) -> CampaignFinished:
    from .executor import ExecutionReport

    _check_fields("CampaignFinished event", data,
                  ("format", "version", "kind", "report"),
                  required=("report",))
    report = data["report"]
    _check_fields("execution report", report, _REPORT_FIELDS,
                  required=_REPORT_FIELDS)
    return CampaignFinished(report=ExecutionReport(**report))


def event_from_dict(data: dict) -> CampaignEvent:
    """Inverse of :func:`event_to_dict`, refused-by-name validated.

    Mirrors :meth:`~repro.sim.spec.CampaignSpec.from_dict`: the format
    is checked, the version gated by number, unknown kinds and fields
    refused with actionable messages — a stream written by a newer
    library fails loudly instead of silently mis-loading.
    """
    if not isinstance(data, dict) or data.get("format") != EVENT_WIRE_FORMAT:
        raise ParameterError(
            f"not a {EVENT_WIRE_FORMAT} object (format="
            f"{data.get('format')!r})" if isinstance(data, dict)
            else f"a campaign event must be an object, "
                 f"got {type(data).__name__}"
        )
    version = data.get("version")
    if version not in _WIRE_READ_VERSIONS:
        raise ParameterError(
            f"unsupported campaign-event version {version!r} (this "
            f"library reads versions {sorted(_WIRE_READ_VERSIONS)})"
        )
    kind = data.get("kind")
    if kind == "CampaignStarted":
        return _started_from_dict(data)
    if kind == "CellFinished":
        _check_fields("CellFinished event", data,
                      ("format", "version", "kind", "plan", "source",
                       "results"),
                      required=("plan", "results"))
        plan = _plan_from_dict(data["plan"])
        source = _check_source(data.get("source", "backend"))
        results = _results_from_wire(data["results"])
        return CellFinished(
            plan=plan, cell=make_cell(plan, results), results=results,
            source=source,
        )
    if kind == "CampaignFinished":
        return _finished_from_dict(data)
    raise ParameterError(
        f"unknown campaign-event kind {kind!r}; known: CampaignStarted, "
        "CellFinished, CampaignFinished"
    )


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
class EventConsumer:
    """A subscriber; subclasses override what they care about.

    ``on_event`` runs on the producing thread under the contract in the
    module docstring (ordered, synchronous, exceptions abort the
    campaign).  ``close`` runs exactly once when the stream terminates.
    """

    def on_event(self, event: CampaignEvent) -> None:
        """Receive one event (default: ignore)."""

    def close(self, error: BaseException | None = None) -> None:
        """The stream terminated; ``error`` is None on clean completion."""


class EventBus:
    """Synchronous, deterministic, in-process fan-out (see contract).

    Subscription order is delivery order; ``publish`` returns only after
    every consumer has returned.  Subscribing after the first publish is
    refused — a late consumer would see a stream that replays to the
    wrong state, the one inconsistency this design exists to prevent.
    """

    def __init__(self) -> None:
        self._consumers: list[EventConsumer] = []
        self._published = False
        self._closed = False

    @property
    def consumers(self) -> tuple[EventConsumer, ...]:
        return tuple(self._consumers)

    def subscribe(self, consumer: EventConsumer) -> EventConsumer:
        if not isinstance(consumer, EventConsumer):
            raise ParameterError(
                f"EventBus.subscribe takes an EventConsumer, got "
                f"{type(consumer).__name__}"
            )
        if self._published:
            raise ParameterError(
                "cannot subscribe once events have been published: a "
                "late consumer would replay to a different state than "
                "the stream it missed; subscribe before iterating the "
                "session"
            )
        self._consumers.append(consumer)
        return consumer

    def publish(self, event: CampaignEvent) -> CampaignEvent:
        self._published = True
        for consumer in self._consumers:
            consumer.on_event(event)
        return event

    def close(self, error: BaseException | None = None) -> None:
        """Close every consumer (once, in subscription order).

        Every consumer's ``close`` runs even when an earlier one raises;
        the first close-time exception is re-raised afterwards (unless
        the stream already failed with ``error``, which the caller is
        propagating — close failures must not mask it).
        """
        if self._closed:
            return
        self._closed = True
        first: BaseException | None = None
        for consumer in self._consumers:
            try:
                consumer.close(error)
            except BaseException as exc:  # noqa: BLE001 - must close all
                if first is None:
                    first = exc
        if first is not None and error is None:
            raise first


# ----------------------------------------------------------------------
# Built-in consumers
# ----------------------------------------------------------------------
class SinkWriter(EventConsumer):
    """Appends finished cells to the results sink.

    ``resume`` cells are skipped — their bytes are already in the file
    the sink recovered; re-appending would duplicate them.
    """

    def __init__(self, sink: ResultSink):
        self.sink = sink

    def on_event(self, event: CampaignEvent) -> None:
        if isinstance(event, CellFinished) and event.source != "resume":
            self.sink.emit(event.plan, list(event.results))


class StorePublisher(EventConsumer):
    """Publishes freshly simulated cells to the results store.

    Only ``backend`` cells publish (``store`` cells are already
    warehoused; ``resume`` cells were published by the execution that
    ran them, and re-publishing would be idempotent but wasted I/O).
    Subscribes *after* :class:`SinkWriter`, so the store can never hold
    a cell the durable results file does not.
    """

    def __init__(self, store, config: CampaignConfig, engine: str):
        self.store = store
        self.config = config
        self.engine = engine
        #: Cells this consumer published (observability/tests).
        self.published = 0

    def on_event(self, event: CampaignEvent) -> None:
        if isinstance(event, CellFinished) and event.source == "backend":
            self.store.publish_cell(
                self.config, event.plan, list(event.results),
                engine=self.engine,
            )
            self.published += 1


class ControllerReplay(EventConsumer):
    """Validates every cell's replica count against the stopping rule.

    Replays the cell's waste sequence through a fresh controller cursor
    (linear, same as the resume scan) and requires the rule to stop at
    exactly ``len(results)``.  Every legitimate producer satisfies this
    by construction — backends drive the cursor while running, store
    hits are served through it, recovery rejects mismatches — so a
    violation means the stream was assembled from results the
    configuration cannot have produced, and the campaign aborts before
    the next cell is written.
    """

    def __init__(self, controller: ReplicaController):
        self.controller = controller
        #: Cells validated (observability/tests).
        self.validated = 0

    def on_event(self, event: CampaignEvent) -> None:
        if not isinstance(event, CellFinished):
            return
        wastes = [res.waste for res in event.results]
        stop = stop_count(self.controller, wastes)
        if stop != len(wastes):
            rule = self.controller.fingerprint() or {"rule": "fixed"}
            raise ParameterError(
                f"cell {event.plan.index} ({event.plan.protocol} "
                f"M={event.plan.M:g} phi={event.plan.phi:g}, source="
                f"{event.source}) carries {len(wastes)} replicas but the "
                f"replica controller {rule} stops at {stop}: the event "
                "stream does not replay to this campaign's state"
            )
        self.validated += 1


class ProgressTracker(EventConsumer):
    """Thread-safe counters over the stream; snapshot from any thread.

    The one consumer designed to be read *concurrently with* the
    producing loop (a poller thread, the campaign service's progress
    endpoint): updates are O(1) under a lock, and
    :meth:`snapshot` returns a consistent :class:`CampaignProgress` at
    any moment — before the first event (all zeros), mid-stream, or
    after the last.  Every count comes from the events' ``source``.
    """

    def __init__(self, cells_total: int = 0):
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._total = cells_total
        self._resumed = 0
        self._cached = 0
        self._run = 0
        self._replicas = 0

    def on_event(self, event: CampaignEvent) -> None:
        if isinstance(event, CampaignStarted):
            with self._lock:
                self._total = len(event.plans)
        elif isinstance(event, CellFinished):
            with self._lock:
                if event.source == "resume":
                    self._resumed += 1
                elif event.source == "store":
                    self._cached += 1
                else:
                    self._run += 1
                    self._replicas += len(event.results)

    def snapshot(self) -> CampaignProgress:
        with self._lock:
            return CampaignProgress(
                cells_total=self._total,
                cells_resumed=self._resumed,
                cells_cached=self._cached,
                cells_run=self._run,
                replicas_run=self._replicas,
                elapsed=time.perf_counter() - self._start,
            )


class CellCallback(EventConsumer):
    """Adapts the historical ``on_cell=`` callback: one call per fresh
    cell (``backend`` or ``store``), in emission order — recovered cells
    were already reported by the execution that ran them."""

    def __init__(self, callback: Callable[[CampaignCell], None]):
        self.callback = callback

    def on_event(self, event: CampaignEvent) -> None:
        if isinstance(event, CellFinished) and event.source != "resume":
            self.callback(event.cell)
