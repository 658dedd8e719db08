"""Campaign orchestration: plan, recover, produce events, summarise.

A campaign is *described* by one value — the
:class:`~repro.sim.spec.CampaignSpec` (grid ⊕
:class:`~repro.sim.spec.ExecutionPolicy`) — and this module is the
mechanism that executes it.  The execution core is a typed result-event
pipeline (:mod:`repro.sim.events`): a :class:`CampaignSession` opens the
spec, *produces* one event stream
(``CampaignStarted CellFinished* CampaignFinished``, one event per
cell), and everything that persists or
observes results — the sink writer, the store publisher, controller
replay, progress counters, the ``on_cell`` callback — is an independent
*consumer* on one synchronous :class:`~repro.sim.events.EventBus` with
deterministic fan-out order.  The session wires these replaceable
layers together:

* **Planning** — the grid is flattened into a deterministic, serial-order
  list of :class:`CellPlan` entries (protocol-major, then M, then φ) and
  split into chunks of whole cells.  Every replica seed and shared failure
  trace derives from the campaign seed and the cell's grid coordinates
  alone (:mod:`repro.sim.backends`), never from execution order.
* **Backends — the producers** (:mod:`repro.sim.backends`,
  :mod:`repro.sim.distributed`) — a
  :class:`~repro.sim.backends.CampaignBackend` runs the chunks:
  in-process (:class:`~repro.sim.backends.SerialBackend`), across worker
  processes (:class:`~repro.sim.backends.ProcessPoolBackend`), or across
  *machines* (:class:`~repro.sim.distributed.DistributedBackend`, a
  work-stealing consumer of a shared chunk-queue directory), all
  yielding chunks in completion order, each cell tagged with its
  source (a queue worker serves store hits inside its claimed chunks).
  The policy's ``workers`` / ``queue`` fields pick one.  The session
  turns one stream of ``(plan, results, source)`` — resume recoveries,
  then store hits, then backend cells — into the typed event stream.
* **Sinks — a consumer** (:mod:`repro.sim.sinks`) — the
  :class:`~repro.sim.events.SinkWriter` consumer appends each finished
  cell to the :class:`~repro.sim.sinks.ResultSink` chosen by
  ``policy.sink``: the in-order JSONL sink (the results file stays an
  exact byte prefix of the serial file; the session buffers
  completion-order events into grid order) or the out-of-order *framed*
  sink (records land the moment a cell finishes; no head-of-line
  blocking).  Both support resume: an existing file is scanned,
  identity-checked against the grid, truncated past the last complete
  cell, and only the remainder executes.
* **Replica control** (:mod:`repro.sim.adaptive`) — ``policy.controller``
  decides per cell how many replicas actually run: every one
  (:class:`~repro.sim.adaptive.FixedReplicas`, the default and the
  bit-identical-to-serial path), or adaptively
  (:class:`~repro.sim.adaptive.AdaptiveCI`,
  :class:`~repro.sim.adaptive.WilsonSuccessRate`; framed sink required).
* **Results store** (:mod:`repro.store`) — with ``policy.store`` (or
  ``execute_spec(..., store=...)``) set, every planned cell is looked up
  in a content-addressed warehouse (one
  :meth:`~repro.store.CampaignStore.load_cells` consult) *before*
  anything is dispatched to a backend, and the
  :class:`~repro.sim.events.StorePublisher` consumer
  publishes fresh cells right after their sink append (it subscribes
  after the sink writer, so the warehouse can never get ahead of the
  durable results file).  Cache hits flow through the replica
  controller's cursor exactly like live results, so adaptive decisions
  are identical either way, and the store is volatile policy: it cannot
  change output bytes, only skip recomputing them.

A sidecar manifest (``<results>.manifest``) stores the campaign's
**spec fingerprint** (:meth:`~repro.sim.spec.CampaignSpec.fingerprint`)
verbatim, so resuming under drifted settings is detected as *spec
inequality* and refused instead of silently mixing two campaigns.  A
manifest that parses but holds no campaign spec (for instance the
retired pre-spec version-1 shape) is refused by name: it cannot be
checked, and guessing would silently drop the drift check.

Layer diagram (single machine, and the distributed shard-merge flow)::

      HTTP daemon (repro.service — `repro-checkpoint serve`)
      ┌─────────────────────────────────────────────────────────────────┐
      │ POST /campaigns ─► CampaignRegistry ─► worker pool, one         │
      │   (idempotent        CampaignSession per spec identity          │
      │    per identity)                                                │
      │ GET /campaigns/<id>/events ─► NDJSON (event_to_dict per event)  │
      │ GET /reports?spec=… ─► store.coverage ─► warm: store_report     │
      │   (zero simulation)        miss: single-flight coalesced fill   │
      └──────────────────────────────┬──────────────────────────────────┘
                              ▼
                         CampaignSpec  =  grid ⊕ ExecutionPolicy
                              │   (one JSON value: spec.to_dict())
         Campaign(spec).run(path) / CampaignSession(spec, ...) / execute_spec
                              ▼
    plan_cells ─► store lookup ─► chunks ─► CampaignBackend ─┐ producers
                  (per cell, miss ⇒ run)    Serial/ProcessPool│ (+ store hits,
                       ▲                    Distributed/Vec.  │  resume recovery)
                       │                                      ▼
                       │          CampaignStarted CellFinished* CampaignFinished
                       │                    (one CellFinished per cell)
                       │                                      │
                       │                EventBus (synchronous, subscription-order
                       │                 fan-out — repro.sim.events)
                       │          ┌──────────────┬────────────┴──┬─────────────┐
                       │          ▼              ▼               ▼             ▼
                       │   ControllerReplay  SinkWriter     StorePublisher  ProgressTracker
                       │   (stream must      Ordered/Framed (backend cells, (live counters →
                       │    replay to the    ─► results     after the sink   session.progress(),
                       │    rule's state)       .jsonl         append)       final report)
                       │                      + .manifest      │             … MetricsConsumer
                       │                      (spec            │             (repro.obs: cell/replica
                       │                       fingerprint)    │              series ─► report.metrics,
                       └───────────────────────────────────────┘              GET /metrics),
                                                                             CellCallback, service
                                                                             consumers
              CampaignStore (repro.store)       engine (policy.backend)
              hot-cell cache (in-process     "des": per-event simulation (exact)
                LRU, digest re-check)        "vectorized": cells as numpy batches
              → segments/<id>.seg + .idx      (renewal closed forms; shared
                (compacted: index probe        traces as common random
                + one pread)                   numbers — repro.sim.vectorized)
              → objects/<2-hex>/<sha256(cell key)>.json
                (loose: the atomic-rename publish path; `store
                compact` folds loose files into segments)
              — one entry per cell (its replica prefix); the key
                carries the engine when != "des"

    Store data flows (cell key = protocol ⊕ φ ⊕ workload ⊕ resolved
    platform params ⊕ failure law ⊕ replica 0's seed-schedule entry —
    finer than the spec fingerprint, so *different* campaigns share
    overlapping cells):

    * cold  — every lookup misses; every cell simulates, is appended to
      the sink, then published: results file byte-identical to a
      storeless run.
    * warm  — an identical completed spec re-runs with **zero**
      simulations: every cell is served from the store, re-verified
      against its stored bytes, and re-emitted in grid order — the
      results file is byte-identical to the cold run's.
    * partial overlap — a different grid that shares some cells (same
      seed schedule, overlapping axes) simulates only the missing
      cells; hits and fresh results interleave through the same sink
      and replica controller.

    queue dir (shared filesystem)              per machine
    ┌──────────────────────────────┐     ┌──────────────────────────────┐
    │ manifest.json (spec + chunks)│◄───►│ Campaign(spec_with_queue)    │
    │ pending/  claims/  done/     │     │   .run()                     │
    │   (atomic-rename claims,     │     │   DistributedBackend         │
    │    lease-expiry stealing)    │     │   claim → run → append       │
    │ shards/worker-A.jsonl ◄──────┼─────┤   → done marker              │
    │ shards/worker-B.jsonl  ...   │     │   WorkerShardSink            │
    └──────────────┬───────────────┘     └──────────────────────────────┘
                   ▼ Campaign(spec).merge(out) — scan_frames + dedupe + reorder
          results.jsonl + .manifest   — resumes/reports like any
                                        single-machine framed run

Entry points
------------
:meth:`repro.sim.spec.Campaign.run` is the public API;
:class:`CampaignSession` is the engine underneath it — open a spec
(submit), iterate :meth:`CampaignSession.events` (stream), read
:meth:`CampaignSession.progress` from any thread (poll) — and
:func:`execute_spec` is the one-call wrapper that drains a session and
returns its :class:`CampaignExecution` (cells + an
:class:`ExecutionReport` with skip/run/replica counts and timings).
All three take a :class:`~repro.sim.spec.CampaignSpec`; there is no
other way to describe a campaign.

Example
-------
>>> from repro import DOUBLE_NBL, TRIPLE, scenarios
>>> from repro.sim.campaign import CampaignConfig
>>> from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy
>>> spec = CampaignSpec(
...     grid=CampaignConfig(
...         protocols=(DOUBLE_NBL, TRIPLE),
...         base_params=scenarios.BASE.parameters(M=600.0, n=12),
...         m_values=(600.0,), phi_values=(1.0,), work_target=900.0,
...         replicas=2),
...     policy=ExecutionPolicy(workers=2))
>>> execution = Campaign(spec).run()                # doctest: +SKIP
>>> len(execution.cells)                            # doctest: +SKIP
2
"""

from __future__ import annotations

import pathlib
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import CampaignCancelled, ParameterError
from ..obs import MetricsConsumer
from ..obs import enabled as obs_enabled
from ..obs.trace import current_tracer
from .backends import CampaignBackend, make_backend, run_cell  # noqa: F401 - run_cell re-exported
from .campaign import CampaignCell, CampaignConfig, validate_campaign
from .events import (
    CampaignFinished,
    CampaignProgress,
    CampaignStarted,
    CellCallback,
    CellFinished,
    ControllerReplay,
    EventBus,
    EventConsumer,
    ProgressTracker,
    SinkWriter,
    StorePublisher,
    make_cell,
)
from .results import DesResult
from .sinks import OrderedJsonlSink, ResultSink, make_sink
from .spec import CampaignSpec

__all__ = [
    "CellPlan",
    "ExecutionReport",
    "CampaignExecution",
    "CampaignSession",
    "plan_cells",
    "execute_spec",
]


@dataclass(frozen=True)
class CellPlan:
    """One grid cell in deterministic execution order.

    ``index`` is the cell's position in the serial iteration (protocol-
    major, then M, then φ); all seeds derive from the grid coordinates, so
    a plan can be executed by any worker at any time with identical output.
    ``effective_phi`` is the overhead the protocol actually runs at (e.g.
    DOUBLE-BLOCKING pins φ = θmin) — it is what lands in result metadata
    and is used to validate cells when resuming.
    """

    index: int
    protocol: str
    m_index: int
    M: float
    phi: float
    effective_phi: float


@dataclass(frozen=True)
class ExecutionReport:
    """What one :func:`execute_spec` call actually did."""

    cells_total: int
    cells_skipped: int
    cells_run: int
    workers: int
    chunk_size: int
    elapsed: float
    #: DES replicas actually executed (adaptive control may run fewer
    #: than ``cells_run × config.replicas``; store hits run none).
    replicas_run: int = 0
    sink: str = "ordered"
    #: Cells served from the results store instead of simulated.
    cells_cached: int = 0
    #: This run's telemetry — a ``repro-metrics`` snapshot from the
    #: session's :class:`~repro.obs.MetricsConsumer` (cell interval
    #: histogram, cell/replica counters by source), or ``None`` when
    #: observability is off.  Excluded from equality and from the event
    #: wire format (``_REPORT_FIELDS``): two runs of the same campaign
    #: are the same execution even if their timings differ.
    metrics: dict | None = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        recovered = f"{self.cells_skipped} resumed"
        if self.cells_cached:
            recovered += f", {self.cells_cached} cached"
        return (
            f"{self.cells_run}/{self.cells_total} cells run "
            f"({recovered}), workers={self.workers}, "
            f"chunk={self.chunk_size}, sink={self.sink}, "
            f"replicas={self.replicas_run}, {self.elapsed:.2f}s"
        )


@dataclass(frozen=True)
class CampaignExecution:
    """Cells plus the execution report."""

    cells: tuple[CampaignCell, ...]
    report: ExecutionReport = field(repr=False)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_cells(config: CampaignConfig) -> list[CellPlan]:
    """Flatten the campaign grid into serial-order cell plans."""
    from ..core.protocols import get_protocol

    validate_campaign(config)
    plans: list[CellPlan] = []
    index = 0
    for spec in config.protocols:
        spec = get_protocol(spec)
        if spec.group_size and config.base_params.n % spec.group_size:
            raise ParameterError(
                f"params.n={config.base_params.n} must be a multiple of "
                f"{spec.key}'s group size {spec.group_size} "
                "(fail fast: every grid cell of this protocol would die)"
            )
        for mi, m in enumerate(config.m_values):
            params = config.base_params.with_updates(M=float(m))
            seen_eff: dict[float, float] = {}
            for phi in config.phi_values:
                eff = float(np.asarray(spec.effective_phi(params, float(phi))))
                if eff in seen_eff:
                    raise ParameterError(
                        f"{spec.key} pins phi={phi:g} and "
                        f"phi={seen_eff[eff]:g} to the same effective "
                        f"overhead {eff:g} at M={float(m):g}: the cells "
                        "would be bit-identical duplicates, wasting "
                        "replicas (sweep phi on a non-blocking protocol "
                        "or drop the redundant values)"
                    )
                seen_eff[eff] = float(phi)
                plans.append(CellPlan(
                    index=index, protocol=spec.key, m_index=mi,
                    M=float(m), phi=float(phi), effective_phi=eff,
                ))
                index += 1
    return plans


# ----------------------------------------------------------------------
# Campaign manifest
# ----------------------------------------------------------------------
def _manifest_path(sink: pathlib.Path) -> pathlib.Path:
    return sink.with_name(sink.name + ".manifest")


def _write_manifest(spec: CampaignSpec, sink: pathlib.Path) -> None:
    import json

    _manifest_path(sink).write_text(
        json.dumps(spec.fingerprint(), sort_keys=True) + "\n"
    )


def _spec_drift(stored: dict, current: dict) -> list[str]:
    """Grid/policy field names on which two spec dicts disagree."""
    drift: list[str] = []
    for section in ("grid", "policy"):
        a, b = stored.get(section) or {}, current.get(section) or {}
        drift.extend(sorted(
            k for k in set(a) | set(b) if a.get(k) != b.get(k)
        ))
    drift.extend(sorted(
        k for k in (set(stored) | set(current)) - {"grid", "policy"}
        if stored.get(k) != current.get(k)
    ))
    return drift


def _check_manifest(spec: CampaignSpec, sink: pathlib.Path) -> bool:
    """Refuse to resume when the stored spec disagrees with this one.

    Returns whether a matching manifest was found.  A missing or
    non-JSON manifest (pre-manifest file, hand-copied results, a torn
    write) returns False and resume falls back to the per-record checks
    only.  Drift is decided by **spec inequality**: the stored
    fingerprint is parsed back into a
    :class:`~repro.sim.spec.CampaignSpec` and compared against this
    spec's :meth:`~repro.sim.spec.CampaignSpec.identity`.  A manifest
    that parses as JSON but is not a campaign-spec object cannot be
    checked, so it is refused rather than treated as missing.
    """
    import json

    path = _manifest_path(sink)
    if not path.exists():
        return False
    try:
        stored = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    try:
        stored_spec = CampaignSpec.from_dict(stored)
    except ParameterError as exc:
        raise ParameterError(
            f"{path}: manifest does not hold a loadable campaign "
            f"spec ({exc}); refusing to resume — delete the results "
            "file and its manifest to start over"
        ) from exc
    if stored_spec != spec.identity():
        drift = _spec_drift(stored_spec.to_dict(), spec.fingerprint())
        raise ParameterError(
            f"{path}: campaign configuration changed since the "
            f"results file was written (spec differs in: "
            f"{', '.join(drift)}); refusing to resume — rerun "
            "without resume to start over, or restore the original "
            "configuration"
        )
    return True


# ----------------------------------------------------------------------
# Execution: the session produces the event stream
# ----------------------------------------------------------------------
class CampaignSession:
    """One campaign execution as an event stream: submit, stream, poll.

    Opening a session *is* the submit step: the spec is validated, the
    results file recovered or truncated (and its manifest written), the
    store consulted, the backend and chunk layout fixed, and the
    consumer set subscribed — exactly the work :func:`execute_spec`
    always did before its first cell, so an invalid configuration fails
    before costing anything.  After that the session exposes the three
    service-shaped operations, all in-process:

    * **stream** — :meth:`events` produces the typed stream of
      :mod:`repro.sim.events`, *lazily*: iterating it is what executes
      the campaign, and each event is fanned out to every subscribed
      consumer (sink writer, store publisher, controller replay,
      progress tracker, callbacks) before it is yielded to the caller.
    * **poll** — :meth:`progress` returns a consistent
      :class:`~repro.sim.events.CampaignProgress` snapshot from any
      thread, at any moment; :meth:`cache_stats` reports the store's
      :class:`~repro.store.cache.HotCellCache` counters the same way.
    * **collect** — :meth:`run` drains the stream and returns the
      :class:`CampaignExecution`; :meth:`result` re-reads it afterwards.

    Extra consumers (a metrics exporter, the campaign service's
    streaming endpoint) subscribe via ``consumers=`` or
    :meth:`subscribe` before iteration begins; the built-in subscription
    order (controller replay, sink writer, store publisher, progress
    tracker, ``on_cell`` callback, then extras) is part of the
    durability contract documented in :mod:`repro.sim.events`.

    The stream may be consumed once; parameters match
    :func:`execute_spec`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        results_path: str | pathlib.Path | None = None,
        resume: bool = False,
        on_cell: Callable[[CampaignCell], None] | None = None,
        backend: CampaignBackend | None = None,
        store=None,
        consumers: Sequence[EventConsumer] = (),
    ):
        self._start = time.perf_counter()
        if not isinstance(spec, CampaignSpec):
            raise ParameterError(
                f"CampaignSession takes a CampaignSpec, got "
                f"{type(spec).__name__} (wrap a grid as "
                "CampaignSpec(grid=config))"
            )
        self.spec = spec
        policy = spec.policy
        config = spec.grid
        plans = plan_cells(config)

        # Resolve the results store (volatile: cannot change output
        # bytes).
        store_mode = policy.store_mode
        if store is None:
            store = policy.store
        if store is not None and store_mode != "off":
            from ..store import CampaignStore

            if not isinstance(store, CampaignStore):
                # Read-only mode can never populate a store, so a
                # missing directory there is a mistyped path, not a
                # fresh cache — fail loudly instead of consulting a
                # silently-empty store.
                store = CampaignStore(
                    store, create=store_mode == "read-write"
                )
        else:
            store = None
        store_writes = store is not None and store_mode == "read-write"

        if resume and results_path is None and policy.queue is None:
            raise ParameterError(
                "resume=True requires a results_path (the file to "
                "recover completed cells from)"
            )
        distributed = policy.queue is not None
        if distributed:
            from .distributed import DistributedBackend

            if backend is not None:
                raise ParameterError(
                    "queue= and backend= are mutually exclusive: the "
                    "queue implies the distributed work-stealing backend"
                )
            if resume:
                raise ParameterError(
                    "a queue directory is inherently resumable: rejoin "
                    "it with queue=... instead of passing resume=True"
                )
            if results_path is not None:
                raise ParameterError(
                    "distributed workers write per-worker shards inside "
                    "the queue directory; leave the results path unset "
                    "and merge the shards with Campaign.merge (or "
                    "`repro-checkpoint campaign merge`)"
                )
            backend = DistributedBackend(
                policy.queue, worker_id=policy.worker_id,
                lease_timeout=policy.lease_timeout,
                poll_interval=policy.poll_interval,
                processes=policy.worker_processes,
                # A queue's chunk layout must stay a pure function of
                # the spec, so store lookups cannot prune the plan here;
                # the worker instead consults the store per claim.
                store=store,
                engine=policy.backend,
            )
        if backend is None:
            backend = make_backend(policy.workers, policy.backend)
        chunk_size = policy.chunk_size
        if chunk_size is None:
            chunk_size = len(config.phi_values)
        controller = spec.controller()
        if distributed:
            from .distributed import ensure_queue, shard_path
            from .sinks import WorkerShardSink

            sink_obj: ResultSink = WorkerShardSink(
                shard_path(policy.queue, backend.worker_id)
            )
        else:
            sink_obj = make_sink(policy.sink, results_path)
        if controller.fingerprint() is not None and isinstance(
            sink_obj, OrderedJsonlSink
        ):
            raise ParameterError(
                "adaptive replica control varies the record count per "
                "cell, which the ordered sink's positional resume cannot "
                "represent; persist adaptive campaigns with sink='framed'"
            )

        done_results: dict[int, list[DesResult]] = {}
        if results_path is not None:
            path = pathlib.Path(results_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if resume and path.exists():
                trusted = _check_manifest(spec, path)
                done_results = sink_obj.recover(
                    config, plans, controller, trusted
                )
            else:
                sink_obj.begin()
            _write_manifest(spec, path)

        todo = [p for p in plans if p.index not in done_results]

        # Consult the store before anything is dispatched to a backend:
        # a cell whose replica prefix is already warehoused is emitted
        # without simulating.  (Not under a queue policy — the queue's
        # chunk layout is a pure function of the spec, so the
        # distributed backend consults the store per claim instead.)
        cached_results: dict[int, list[DesResult]] = {}
        if store is not None and not distributed:
            cached_results = store.load_cells(
                config, todo, controller, engine=policy.backend)

        run_plans = [p for p in todo if p.index not in cached_results]
        chunks = [
            run_plans[i:i + chunk_size]
            for i in range(0, len(run_plans), chunk_size)
        ]

        if distributed:
            # The chunk layout is a pure function of (spec, chunk_size),
            # so every worker that passes the manifest check computes
            # the identical list and any chunk ticket is executable by
            # anyone.
            ensure_queue(
                pathlib.Path(policy.queue), spec.fingerprint(),
                n_chunks=len(chunks), chunk_size=chunk_size,
                n_cells=len(plans),
            )
            sink_obj.begin()  # rejoin this worker's shard (truncate torn tail)

        self._policy = policy
        self._config = config
        self._plans = plans
        self._todo = todo
        self._done_results = done_results
        self._cached_results = cached_results
        self._chunks = chunks
        self._chunk_size = chunk_size
        self._backend = backend
        self._controller = controller
        self._sink = sink_obj
        self._store = store
        self._distributed = distributed
        self._fresh: dict[int, CampaignCell] = {}
        self._done_cells: dict[int, CampaignCell] = {}
        self._execution: CampaignExecution | None = None
        self._state = "open"
        self._cancel = threading.Event()

        #: The session's bus; subscription order is the fan-out order.
        self.bus = EventBus()
        self._tracker = ProgressTracker(cells_total=len(plans))
        self.bus.subscribe(ControllerReplay(controller))
        self.bus.subscribe(SinkWriter(sink_obj))
        if store_writes:
            self.bus.subscribe(
                StorePublisher(store, config, policy.backend)
            )
        self.bus.subscribe(self._tracker)
        # Telemetry rides the same stream as everything else; a pure
        # observer, so REPRO_OBS=off changes no behaviour, only whether
        # ExecutionReport.metrics and the process registry get fed.
        self._metrics = MetricsConsumer() if obs_enabled() else None
        if self._metrics is not None:
            self.bus.subscribe(self._metrics)
        if on_cell is not None:
            self.bus.subscribe(CellCallback(on_cell))
        for consumer in consumers:
            self.bus.subscribe(consumer)

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The resolved :class:`~repro.store.CampaignStore` (or None)."""
        return self._store

    def subscribe(self, consumer: EventConsumer) -> EventConsumer:
        """Add a consumer (before iteration begins); returns it."""
        return self.bus.subscribe(consumer)

    def progress(self) -> CampaignProgress:
        """A consistent counter snapshot; callable from any thread."""
        return self._tracker.snapshot()

    @property
    def state(self) -> str:
        """Lifecycle phase: ``"open"`` → ``"running"`` → ``"finished"`` /
        ``"failed"`` / ``"cancelled"``.  Readable from any thread."""
        return self._state

    def cancel(self) -> None:
        """Request cancellation; callable from any thread, idempotent.

        Cooperative and cell-aligned: the producing loop checks the flag
        between cells and raises
        :class:`~repro.errors.CampaignCancelled` out of :meth:`events`,
        which closes every consumer through the normal error path — the
        results file is left a valid resumable prefix (whole cells
        only), the manifest intact, and a later session can
        ``resume=True`` the remainder.  A session that already finished
        is unaffected.
        """
        self._cancel.set()

    def _check_cancel(self) -> None:
        if self._cancel.is_set():
            raise CampaignCancelled(
                "campaign cancelled: the event stream stopped at a cell "
                "boundary; resume the results file to finish the "
                "remaining cells"
            )

    def cache_stats(self):
        """The store's hot-cell cache counters
        (:class:`~repro.store.cache.CacheStats`), or ``None`` when the
        session runs without a store."""
        if self._store is None:
            return None
        return self._store.cache_stats()

    def result(self) -> CampaignExecution:
        """The finished execution (raises until the stream completes)."""
        if self._execution is None:
            raise ParameterError(
                "the campaign has not finished: drain session.events() "
                "(or call session.run()) before asking for the result"
            )
        return self._execution

    # ------------------------------------------------------------------
    def events(self):
        """Produce (and thereby execute) the campaign's event stream.

        Lazy and single-shot: each ``next()`` advances the campaign, and
        every yielded event has already been delivered to all subscribed
        consumers.  On termination — clean, consumer error, or the
        caller abandoning the iterator — every consumer is closed
        exactly once (:meth:`~repro.sim.events.EventConsumer.close`).
        """
        if self._state != "open":
            raise ParameterError(
                "a session's event stream can be consumed once: open a "
                "new CampaignSession to run the campaign again"
            )
        self._state = "running"
        error: BaseException | None = None
        try:
            yield from self._produce()
            self._state = "finished"
        except BaseException as exc:
            error = exc
            self._state = (
                "cancelled" if isinstance(exc, CampaignCancelled)
                else "failed"
            )
            raise
        finally:
            self.bus.close(error)

    def run(self) -> CampaignExecution:
        """Drain the event stream and return the execution."""
        for _ in self.events():
            pass
        return self.result()

    # ------------------------------------------------------------------
    def _finish_cell(self, plan, results, source) -> CellFinished:
        """Build one cell and publish its ``CellFinished``; the ``cell``
        span covers the aggregation and the synchronous consumer fan-out
        (sink append, store publish)."""
        self._check_cancel()
        tracer = current_tracer()
        cell_span = nullcontext() if tracer is None else tracer.span(
            "cell", "executor", index=plan.index, protocol=plan.protocol,
            M=plan.M, phi=plan.phi, source=source,
        )
        with cell_span:
            results = tuple(results)
            cell = make_cell(plan, results)
            done = self._done_cells if source == "resume" else self._fresh
            done[plan.index] = cell
            return self.bus.publish(CellFinished(
                plan=plan, cell=cell, results=results, source=source,
            ))

    def _produce(self):
        tracer = current_tracer()
        campaign_span = nullcontext() if tracer is None else tracer.span(
            "campaign", "executor", cells=len(self._plans),
            sink=self._policy.sink, backend=self._policy.backend,
        )
        with campaign_span:
            yield from self._produce_events()

    def _produce_events(self):
        emit = self.bus.publish
        yield emit(CampaignStarted(
            spec=self.spec, plans=tuple(self._plans),
            resumed=tuple(sorted(self._done_results)),
        ))

        def cells():
            # Every cell as (plan, results, source).  Recovered cells
            # first, in grid order, so consumers replay to the campaign's
            # full state (the sink writer skips them — their bytes are
            # already in the file).  Then store hits in grid order — what
            # makes a fully-warm serial run byte-identical to its cold
            # twin under the framed sink — then backend cells in
            # completion order.
            for index in sorted(self._done_results):
                yield self._plans[index], self._done_results[index], "resume"
            cached = self._cached_results
            for plan in self._todo:
                if plan.index in cached:
                    yield plan, cached.pop(plan.index), "store"
            if not self._chunks:
                return
            for index, results, sources in self._backend.execute(
                self._config, self._chunks, self._controller
            ):
                self._check_cancel()
                yield from zip(self._chunks[index], results, sources)

        stream = cells()
        if self._sink.ordered:
            # The results file stays an exact prefix of the serial file.
            stream = _in_grid_order(stream, self._plans)
        for plan, results, source in stream:
            yield self._finish_cell(plan, results, source)

        progress = self._tracker.snapshot()
        if self._distributed:
            # Other workers' cells live in their shards, not here:
            # report what this worker ran (grid order); merge_shards has
            # the grid.
            cells = tuple(
                self._fresh[index] for index in sorted(self._fresh)
            )
        else:
            cells = tuple(
                (self._done_cells | self._fresh)[plan.index]
                for plan in self._plans
            )
        # The final report is assembled from the progress consumer's
        # totals — the metrics path observes exactly what was executed.
        elapsed = time.perf_counter() - self._start
        if self._metrics is not None:
            self._metrics.finalize(
                elapsed=elapsed, replicas_run=progress.replicas_run)
        report = ExecutionReport(
            cells_total=len(self._plans),
            cells_skipped=(
                len(self._plans)
                - progress.cells_cached - progress.cells_run
            ),
            cells_run=progress.cells_run,
            workers=self._backend.workers,
            chunk_size=self._chunk_size,
            elapsed=elapsed,
            replicas_run=progress.replicas_run,
            sink=self._policy.sink,
            cells_cached=progress.cells_cached,
            metrics=(None if self._metrics is None
                     else self._metrics.snapshot()),
        )
        self._execution = CampaignExecution(cells=cells, report=report)
        yield emit(CampaignFinished(report=report))


def _in_grid_order(cells, plans):
    """Re-sequence a ``(plan, results, source)`` stream to ``plans``
    order, holding each cell until every earlier one has passed."""
    ready: dict[int, tuple] = {}
    pending = iter(plans)
    want = next(pending, None)
    for cell in cells:
        ready[cell[0].index] = cell
        while want is not None and want.index in ready:
            yield ready.pop(want.index)
            want = next(pending, None)


def execute_spec(
    spec: CampaignSpec,
    *,
    results_path: str | pathlib.Path | None = None,
    resume: bool = False,
    on_cell: Callable[[CampaignCell], None] | None = None,
    backend: CampaignBackend | None = None,
    store=None,
) -> CampaignExecution:
    """Run (or finish) a campaign spec; the engine behind every campaign API.

    A thin wrapper over :class:`CampaignSession`: opens the session,
    drains its event stream, returns the execution.  Callers that want
    to observe the run — stream events, poll progress, attach consumers
    — open the session themselves.

    Parameters
    ----------
    spec:
        The campaign: grid ⊕ execution policy.  All policy validation
        (worker counts, sink/queue compatibility, controller budget)
        already happened when the spec was built — by the time execution
        starts, an invalid combination cannot cost an existing results
        file.
    results_path:
        JSON Lines sink for every raw run (``None`` = no persistence).
        This is per-execution state, deliberately not part of the spec.
        Must be ``None`` for queue workers (they stream to per-worker
        shards inside the queue directory; merge afterwards with
        :meth:`~repro.sim.spec.Campaign.merge`).
    resume:
        Recover completed cells from ``results_path`` instead of
        truncating it.  Not meaningful with a queue policy — a queue
        directory is always resumable: rejoining it *is* the resume.
    on_cell:
        Optional progress callback, invoked per fresh cell in emission
        order: grid order under the ordered sink, completion order under
        the framed sink.
    backend:
        Explicit :class:`~repro.sim.backends.CampaignBackend` (tests,
        experiments); default is built from the policy.  Mutually
        exclusive with a queue policy.
    store:
        A :class:`~repro.store.CampaignStore` (or a store directory
        path) overriding ``policy.store``.  With an active store in a
        read mode, every planned cell is resolved from the store before
        anything reaches the backend; in ``"read-write"`` mode fresh
        cells are published right after their sink append.  Like the
        policy fields it mirrors, this argument is volatile per-execution
        state — it cannot change output bytes.
    """
    session = CampaignSession(
        spec, results_path=results_path, resume=resume, on_cell=on_cell,
        backend=backend, store=store,
    )
    return session.run()
