"""Campaign execution backends: where grid cells actually run.

Backends are the *producers* of the result-event pipeline
(:mod:`repro.sim.events`): they compute replica results and nothing
else — no file writes, no store publishes, no progress bookkeeping.
:mod:`repro.sim.executor` plans a campaign as chunks of grid cells,
delegates the raw computation to a :class:`CampaignBackend`, and turns
each finished cell into the typed events every consumer (sink writer,
store publisher, progress tracker) subscribes to:

* :class:`SerialBackend` — in-process, one :func:`run_chunks` call
  across the whole grid; reproduces the historical serial execution
  exactly.
* :class:`ProcessPoolBackend` — chunks across worker processes, yielded
  in *completion* order so a slow cell never blocks downstream handling
  of finished ones (the session re-sequences them for a grid-order sink).
Every backend accepts an ``engine`` — the policy's backend, ``"des"``
or ``"vectorized"`` — and runs every cell of the campaign on it: the
*backend* decides where cells run, the *engine* how and in what
batches (:func:`run_chunks`).  The vectorized engine
(:mod:`repro.sim.vectorized`) runs whole cells as numpy batches via the
renewal closed forms instead of per-event simulation; shared failure
traces become common random-number streams per (M, replica).

The interface is deliberately narrow — ``execute(config, chunks,
controller)`` yielding ``(chunk_index, per-cell blocks, per-cell
sources)``, each cell one :class:`~repro.sim.results.CellBlock` —
which is what lets the multi-machine work-stealing backend
(:class:`repro.sim.distributed.DistributedBackend`) slot in without
touching the executor, the sinks or any caller: every replica seed and
shared failure trace is derived from the campaign seed and the cell's
grid coordinates alone (:func:`replica_seed`, :func:`trace_seed`), never
from execution order or worker identity, which makes any chunk
executable by any worker at any time with identical output.
"""

from __future__ import annotations

import concurrent.futures
import os
from abc import ABC, abstractmethod
from typing import Callable, Iterator, Sequence

from ..errors import ParameterError
from .adaptive import ReplicaController
from .campaign import CampaignConfig
from .des import DesConfig, buddy_protocol, run_des
from .failures import FailureInjector, TraceSchedule
from .results import CellBlock, DesResult
from .rng import RngFactory

__all__ = [
    "CampaignBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "replica_seed",
    "trace_seed",
    "run_cell",
    "run_chunk_for_engine",
    "run_chunks",
]

#: Seed stride between replicas (kept identical to the historical serial
#: path so old campaigns replay bit-for-bit).
_REPLICA_SEED_STRIDE = 1000003
#: Seed offsets of the shared-trace streams: seed + 7919·r + 104729·mi.
_TRACE_REPLICA_STRIDE = 7919
_TRACE_M_STRIDE = 104729


def replica_seed(config: CampaignConfig, replica: int) -> int:
    """The DES seed of replica ``replica`` in any cell of ``config``."""
    # int() so numpy-integer campaign seeds work with RngFactory.
    return int(config.seed) + _REPLICA_SEED_STRIDE * replica


def trace_seed(config: CampaignConfig, m_index: int, replica: int) -> int:
    """The shared-failure-trace seed of grid row ``m_index``."""
    return (int(config.seed) + _TRACE_REPLICA_STRIDE * replica
            + _TRACE_M_STRIDE * m_index)


def _horizon(config: CampaignConfig) -> float:
    return config.max_time or 200.0 * config.work_target


def _cell_trace(config: CampaignConfig, plan, replica: int) -> TraceSchedule:
    """The shared failure schedule of (m_index, replica), drawn on demand.

    The trace is a pure function of the campaign seed and the grid
    coordinates, so workers rebuild it locally instead of shipping
    arrays through the process pool; each node's stream is drawn only
    as far as some replay reads it (:meth:`TraceSchedule.generate`).
    """
    params = config.base_params.with_updates(M=plan.M)
    factory = RngFactory(trace_seed(config, plan.m_index, replica))
    injector = FailureInjector.from_platform_mtbf(
        params.n, params.M, factory, config.distribution
    )
    return TraceSchedule.generate(injector, _horizon(config))


def run_cell(
    config: CampaignConfig,
    plan,
    controller: ReplicaController,
    trace_cache: dict | None = None,
    heartbeat: Callable[[], None] | None = None,
) -> CellBlock:
    """Execute one grid cell's replicas (any process, any order), as
    the block of their DES rows.

    Replicas run in seed order; after each one the ``controller``'s
    incremental :class:`~repro.sim.adaptive.StopCursor` is pushed the new
    waste sample and the first stop ends the cell — the same cursor
    resume scans replay, so live and recovered decisions agree
    bit-for-bit.  A :class:`~repro.sim.adaptive.FixedReplicas` controller
    makes this exactly the historical fixed-count loop.

    ``heartbeat`` (optional) is invoked after every replica: liveness
    hooks such as the distributed backend's lease refresh need to fire
    *within* long cells, not just between them.

    The cell's simulation model (period, phase plan, stall, risk window,
    re-execution terms) is resolved once and shared by every replica.
    Shared failure traces are one
    :class:`~repro.sim.failures.TraceSchedule` per (m_index, replica),
    cached in ``trace_cache``: each replay walks it with its own cursors,
    draws a node's next failure only when it is the first to read past
    the drawn ones, and never alters a drawn value.
    """
    params = config.base_params.with_updates(M=plan.M)
    model = buddy_protocol(plan.protocol, params, plan.phi)
    results: list[DesResult] = []
    cursor = controller.cursor()
    for r in range(controller.max_replicas):
        trace = None
        if config.share_traces:
            key = (plan.m_index, r)
            if trace_cache is not None and key in trace_cache:
                trace = trace_cache[key]
            else:
                trace = _cell_trace(config, plan, r)
                if trace_cache is not None:
                    trace_cache[key] = trace
        cfg = DesConfig(
            protocol=model,
            params=params,
            phi=plan.phi,
            work_target=config.work_target,
            seed=replica_seed(config, r),
            trace=trace,
            distribution=config.distribution,
            max_time=config.max_time,
        )
        result = run_des(cfg)
        results.append(result)
        if heartbeat is not None:
            heartbeat()
        if cursor.push(result.waste):
            break
    return CellBlock.from_rows(results)


def run_chunks(engine: str, config: CampaignConfig, chunks: Sequence[list],
               controller: ReplicaController,
               heartbeat: Callable[[], None] | None = None,
               ) -> Iterator[list[CellBlock]]:
    """Each chunk's blocks (one per plan) on ``engine``, in chunk order.

    The engine decides the batching grain: the DES yields each chunk as
    soon as its :func:`run_cell` calls finish, over one trace cache; the
    vectorized engine runs each grid row once across every chunk and
    yields a chunk once its rows are done
    (:func:`repro.sim.vectorized.run_chunks_vectorized`)."""
    if engine == "vectorized":
        from .vectorized import run_chunks_vectorized

        yield from run_chunks_vectorized(config, chunks, controller, heartbeat)
        return
    trace_cache: dict = {}
    for plans in chunks:
        yield [run_cell(config, plan, controller, trace_cache, heartbeat)
               for plan in plans]


def run_chunk_for_engine(engine, config, plans, controller,
                         heartbeat=None) -> list[CellBlock]:
    """The one-chunk :func:`run_chunks` (a pool task)."""
    return next(run_chunks(engine, config, [plans], controller, heartbeat))


class CampaignBackend(ABC):
    """Executes planned chunks of grid cells and streams their results.

    Implementations yield ``(chunk_index, results, sources)`` triples
    where ``results[i]`` holds the replica results of
    ``chunks[chunk_index][i]`` and ``sources[i]`` says where they came
    from: ``"backend"`` (simulated) or ``"store"`` (served from a results
    store, as a queue worker does inside its claimed chunks).  Triples
    may arrive in **any order** — the session re-sequences them for a
    sink that needs grid order.  Every chunk must be yielded exactly
    once.
    """

    #: Processes running cells (reported as ``ExecutionReport.workers``).
    workers: int = 1

    @abstractmethod
    def execute(
        self,
        config: CampaignConfig,
        chunks: Sequence[list],
        controller: ReplicaController,
    ) -> Iterator[tuple[int, list[CellBlock], list[str]]]:
        """Run every chunk, yielding per-chunk results as they complete.

        Each cell's results are one :class:`~repro.sim.results.CellBlock`
        (``len`` is its replica count): the vectorized engine fills its
        columns from arrays, the DES and a store hit pass rows, and
        :class:`~repro.sim.results.DesResult` objects are built only
        when a caller reads a cell's ``results``.  A plain sequence of
        results is wrapped into a block.
        """


class SerialBackend(CampaignBackend):
    """In-process execution: every chunk in one :func:`run_chunks` call
    (the engine picks the batching grain), yielded in submission order.

    Under the DES one trace cache spans the whole campaign, so each
    shared (m_index, replica) failure schedule is built once and every
    failure in it is drawn at most once, however many cells replay it;
    each chunk streams out as soon as its cells finish.  The vectorized
    engine runs each grid row once, in the order the chunks first need
    them, so a chunk (hence its sink write, store publish and resume
    point) waits for every row it spans, and the rows it runs early
    for later chunks wait in memory.
    """

    def __init__(self, engine: str = "des"):
        self.engine = engine

    def execute(self, config, chunks, controller):
        for index, blocks in enumerate(
                run_chunks(self.engine, config, chunks, controller)):
            yield index, blocks, ["backend"] * len(blocks)


def _resolve_workers(workers: int | None) -> int:
    """``None``/``0`` mean every core; anything else passes through."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    return int(workers)


class ProcessPoolBackend(CampaignBackend):
    """Chunks across worker processes, yielded in completion order.

    Workers rebuild shared failure schedules locally (one trace cache
    per chunk), trading a little recomputation for never pickling them;
    the values are the same wherever they are drawn.  Because results carry
    their chunk index, consumers needing grid order can re-sequence them,
    while out-of-order sinks stream a slow chunk's neighbours immediately.
    """

    def __init__(self, workers: int | None = None, engine: str = "des"):
        workers = _resolve_workers(workers)
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.engine = engine

    def execute(self, config, chunks, controller):
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers
        ) as pool:
            futures = {
                pool.submit(
                    run_chunk_for_engine, self.engine, config, chunk, controller
                ): index
                for index, chunk in enumerate(chunks)
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                yield index, future.result(), ["backend"] * len(chunks[index])


def make_backend(
    workers: int | None, engine: str = "des"
) -> CampaignBackend:
    """The backend for a worker count (``1`` = in-process serial;
    ``None``/``0`` = every core, in-process if that resolves to one).

    ``engine`` selects the per-replica simulation
    (:data:`repro.sim.spec.CAMPAIGN_BACKENDS`).
    """
    from .spec import CAMPAIGN_BACKENDS

    if engine not in CAMPAIGN_BACKENDS:
        raise ParameterError(
            f"unknown backend {engine!r}; expected one of {CAMPAIGN_BACKENDS}"
        )
    if workers is not None and workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    backend = ProcessPoolBackend(workers, engine)  # single resolution site
    if backend.workers == 1:
        return SerialBackend(engine)
    return backend
