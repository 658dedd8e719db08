"""Vectorized cell execution: chunks of cells as numpy lane batches.

The DES pays interpreter overhead for every failure, recovery block and
risk window of every replica, and for every period phase it walks
(``benchmarks/PROFILE_high_churn.md``).  This module replaces the
per-event loop with the protocols' renewal closed forms — the same
kernel (:func:`repro.sim.renewal.failure_blocks`) that
:func:`repro.sim.renewal.run_renewal` runs for one replica — applied to
every cell it is handed at once (:func:`run_chunks_vectorized`; a serial
campaign hands it every chunk): a grid row's cells are one batch whose
*lanes* are their (cell, replica) pairs.  One mask selects every lane's
failure prefix, one array expression bins every strike into its cell's
phases and charges its ``RE`` formula, one ``bincount`` sums blocks per
lane, and one success-probability pass covers every lane.  Cost becomes
O(failures) array math instead of O(events) Python dispatch.  The cell's
model (period, phase lengths, stall, risk window, re-execution terms) is
the DES's own, resolved once by :func:`repro.sim.des.buddy_protocol`,
and each lane's arithmetic is elementwise over its own cell and replica,
so bytes depend on neither the chunk layout nor the batch's composition.

The engine is the campaign policy's backend: under
``backend="vectorized"`` every cell runs here, shared-trace cells
included.  A cell leaves the engine as one
:class:`~repro.sim.results.CellBlock`, its columns filled straight from
the batch's arrays; the session summarises the ``waste`` column, the
sink and the store write the block's per-cell-template record lines,
and :class:`~repro.sim.results.DesResult` objects are built only if a
caller reads the cell's ``results``.

Identity / equivalence contract
-------------------------------
The vectorized engine is **deterministic** but **not byte-identical**
to the DES:

* Each replica draws from its *own* stream seeded with the cell's
  :func:`~repro.sim.backends.replica_seed` — results are pure functions
  of the cell's store key (protocol, M, φ, workload, failure law, seed)
  and the replica index alone, never of batch shape, chunk layout,
  worker or execution order.  Re-running a cell anywhere reproduces its
  bytes exactly, which is what the content-addressed store's convergent
  publish requires; the store keys vectorized cells separately from DES
  cells (the ``engine`` key field), so the two engines can never serve
  each other's results.
* Shared failure traces (``share_traces``) are common random numbers:
  every protocol and φ at the same (M, replica) sees the same failure
  stream.  Replica ``r`` of grid row ``m_index`` samples its failure
  instants and its two fatality uniforms from one stream seeded with
  :func:`~repro.sim.backends.trace_seed`, over the wall-clock horizon
  (``max_time``, else ``200·work_target``: the DES's shared-trace
  horizon, a function of the config alone).  A row batch samples the
  row once, and each cell consumes its prefix ``[0, productive)``: the
  batch sorts only the instants below its longest productive time.
  Restricting a Poisson or per-node renewal process to a prefix leaves
  its law unchanged, so every cell that can complete sees exactly the
  non-shared failure process and the contract below carries over; only
  the pairing across cells is new.  (A cell whose productive time
  passes the horizon can only time out or die, and its failures past
  the horizon are not sampled.)  Seed, horizon and law are all store-key
  fields, so the bytes stay pure functions of the key, and any worker
  regenerates identical streams whichever cells it claims.
* Against the DES the contract is *distribution-level*: completed-
  replica waste agrees to the first order at which the paper's formulas
  operate — the renewal estimator thins failures arriving during
  recovery blocks, a relative bias of order ``(F/M)²``
  (:mod:`repro.sim.renewal`), and the tests gate
  ``|mean_vec − mean_des|`` by the summed confidence intervals plus
  that bias allowance (``tests/test_vectorized.py``,
  mirroring ``experiments/validation.py``).
* Fatality is sampled from the paper's success-probability model
  (Eq. 11/16 via the exact-exponential variant of
  :func:`repro.core.risk.success_probability`) rather than from event
  interleavings; ``status``/``waste`` are the contract-bearing fields,
  while the event counters (``failures``, ``rollbacks``, ``work_lost``,
  ``commits``, ``risk_time``) are first-order renewal estimates.
  Success-*rate* agreement with the DES is claimed only for the
  exponential platform: the model's rate ``λ = 1/(nM)`` understates
  group chains under bursty heavy-tailed laws (Weibull ``k<1``,
  mixtures), where the DES sees clustered strikes.  Waste equivalence
  holds for every law — it is conditioned on completion.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from ..core.risk import chain_success, fatal_rate
from ..errors import ParameterError
from .adaptive import ReplicaController, stop_count
from .backends import _horizon, replica_seed, trace_seed
from .campaign import CampaignConfig
from .des import buddy_protocol
from .renewal import failure_blocks
from .results import NAN, CellBlock
from .rng import replica_streams

__all__ = [
    "plan_engine",
    "run_cell_vectorized",
    "run_chunk_vectorized",
    "run_chunks_vectorized",
]

#: Safety valve for pathological failure laws whose draws never advance
#: the renewal clock (e.g. an empirical law containing zeros).
_MAX_SAMPLING_ROUNDS = 10_000


def plan_engine(backend: str, config: CampaignConfig, plan) -> str:
    """The engine of any cell under ``backend``: the backend itself."""
    return backend


def _sample(config: CampaignConfig, M: float, n_nodes: int, horizon: float,
            seeds: list[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Each seed's failure instants in ``[0, horizon)`` of productive
    time, in draw order, and its two fatality uniforms (``(seeds, 2)``).

    Seed ``s`` draws from ``RngFactory(s).replica(0)`` (seeded in one
    batch): instants, then the uniforms.  Exponential platform: the
    superposition is Poisson with rate ``1/M``, so draw the count and
    place it uniformly, as :func:`repro.sim.renewal.run_renewal` does.
    General laws: per-node renewal processes with inter-arrivals from
    ``distribution.rescale(n·M)``, drawn as ``(n_nodes, batch)``
    matrices and advanced with ``cumsum`` until every node's clock passes
    the horizon (the first round stacked over the streams).  This keeps
    the law's dispersion; it is distribution-equal, not stream-equal, to
    the DES's per-node streams.
    """
    rngs = replica_streams(seeds)
    if config.distribution is None:
        streams = [rng.uniform(0.0, horizon, size=int(rng.poisson(horizon / M)))
                   for rng in rngs]
        return streams, np.array([rng.uniform(size=2) for rng in rngs])
    node_dist = config.distribution.rescale(M * n_nodes)
    lam = horizon / (M * n_nodes)  # expected failures per node
    batch = max(4, int(np.ceil(lam + 6.0 * np.sqrt(max(lam, 1.0)) + 4.0)))

    def advance(clocks, draws: np.ndarray) -> np.ndarray:
        if not np.all(draws >= 0.0) or np.any(
                draws.max(axis=(-2, -1), initial=0.0) <= 0.0):
            raise ParameterError(
                "failure distribution produced non-advancing inter-arrival "
                "times; cannot sample a renewal process from it")
        return clocks + np.cumsum(draws, axis=-1)

    times = advance(0.0, np.array(
        [node_dist.sample(rng, size=(n_nodes, batch)) for rng in rngs],
        dtype=float))
    inside = times < horizon
    collected = [[first] for first in np.split(
        times[inside], np.cumsum(inside.sum(axis=(1, 2)))[:-1])]
    for rng, stream, clocks in zip(rngs, collected, times[:, :, -1].copy()):
        active = np.flatnonzero(clocks < horizon)
        for _ in range(_MAX_SAMPLING_ROUNDS - 1):
            if active.size == 0:
                break
            more = advance(clocks[active, None], np.asarray(
                node_dist.sample(rng, size=(active.size, batch)), dtype=float))
            stream.append(more[more < horizon])
            clocks[active] = more[:, -1]
            active = active[more[:, -1] < horizon]
        else:
            raise ParameterError(
                "failure sampling did not converge; distribution "
                "inter-arrivals are too small relative to the horizon")
    return ([np.concatenate(stream) for stream in collected],
            np.array([rng.uniform(size=2) for rng in rngs]))


def _lane_draws(config: CampaignConfig, m_index: int, params,
                productive: np.ndarray, n_replicas: int):
    """Every lane's failure instants in ``[0, productive)`` (lane
    ``c·n_replicas + r`` is replica ``r`` of cell ``c``), the per-lane
    counts and the ``(lanes, 2)`` fatality uniforms.

    Each cell draws its own streams (store purity), or grid row
    ``m_index`` samples its shared streams once, in draw order.  The
    call keeps only the instants below its longest productive time and
    sorts those, replica by replica (``+inf``-padded): each lane reads
    the same values, in the same order, as the prefix of its fully
    sorted stream, without sorting what no lane reads.
    """
    if not config.share_traces:
        seeds = [replica_seed(config, r) for r in range(n_replicas)]
        cells = [_sample(config, params.M, params.n, horizon, seeds)
                 for horizon in productive.tolist()]
        streams = [stream for times, _ in cells for stream in times]
        return (np.concatenate(streams), np.array([s.size for s in streams]),
                np.concatenate([uniforms for _, uniforms in cells]))
    streams, uniforms = _sample(
        config, params.M, params.n, _horizon(config),
        [trace_seed(config, m_index, r) for r in range(n_replicas)])
    bound = productive.max()
    kept = [stream[stream < bound] for stream in streams]
    counts = np.array([stream.size for stream in kept])
    row = np.full((n_replicas, counts.max()), np.inf)
    row[np.arange(counts.max()) < counts[:, None]] = np.concatenate(kept)
    row.sort(axis=1)
    inside = row < productive[:, None, None]
    return (np.broadcast_to(row, inside.shape)[inside],
            inside.sum(axis=2).ravel(), np.tile(uniforms, (productive.size, 1)))


def _lane_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each lane's run of ``values`` summed bit for bit as ``np.sum``
    sums it (``bincount`` and ``add.reduceat`` round differently): up to
    128 values in 8 accumulators over whole blocks of 8, combined in
    pairs, then the rest one by one.  A zero-padded row of each lane's
    whole blocks sums the same way, ``cumsum`` adds the rest in order,
    and a longer run sums alone."""
    starts = np.cumsum(counts) - counts
    whole, small = counts // 8 * 8, counts <= 128
    padded = np.append(values, 0.0)

    def gather(offsets, lengths, width):
        column = np.arange(width)
        return padded[np.where(column < lengths[:, None],
                               offsets[:, None] + column, values.size)]

    rows = gather(starts, np.where(small, whole, 0),
                  max(8, int(whole[small].max(initial=0))))
    rest = gather(starts + whole, np.where(small, counts - whole, 0), 7)
    sums = np.cumsum(np.column_stack([rows.sum(axis=1), rest]), axis=1)[:, -1]
    for lane in np.flatnonzero(~small):
        sums[lane] = values[starts[lane]:starts[lane] + counts[lane]].sum()
    return sums


def _run_row(config: CampaignConfig, plans: list,
             controller: ReplicaController) -> list[CellBlock]:
    """The cells of one grid row (one ``m_index``), as one lane batch."""
    params = config.base_params.with_updates(M=plans[0].M)
    models = [buddy_protocol(plan.protocol, params, plan.phi)
              for plan in plans]
    period = np.array([model.period for model in models])
    per_work = np.array([model.work_per_period for model in models])
    # Productive time needed for the target work: the pattern delivers
    # work_per_period seconds of work every `period` seconds it runs.
    productive = period * config.work_target / per_work
    n_replicas = controller.max_replicas
    times, counts, uniforms = _lane_draws(
        config, plans[0].m_index, params, productive, n_replicas)
    lanes = counts.size
    cell = np.arange(lanes) // n_replicas
    lane_of = np.repeat(np.arange(lanes), counts)
    cell_of = cell[lane_of]

    # One batch over every failure of every lane: pattern offset →
    # phase → its phase's RE formula; block sums per lane.
    offsets = times % period[cell_of]
    _, blocks = failure_blocks(models, cell_of, offsets)
    lane_productive = productive[cell]
    total_time = lane_productive + np.bincount(
        lane_of, weights=blocks, minlength=lanes)
    # Fatality from the success-probability model (exact-exponential
    # variant: stays a probability in saturated regimes, agrees with the
    # paper's Eq. 11/16 to first order), over every lane at once.
    rate = np.array([fatal_rate(model.spec, params, plan.phi)
                     for model, plan in zip(models, plans)])
    n_groups = np.array([params.n / model.group_size for model in models])
    p_succ = chain_success(rate[cell], n_groups[cell], total_time)
    horizon_wall = _horizon(config)
    u_fatal, u_when = uniforms.T
    fatal_at = u_when * total_time
    fatal = (u_fatal >= p_succ) & (fatal_at <= horizon_wall)
    timeout = ~fatal & (total_time > horizon_wall)
    completed = ~(fatal | timeout)
    makespan = np.where(fatal, fatal_at,
                        np.where(timeout, horizon_wall, total_time))
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(completed, 1.0, np.where(
            total_time > 0, makespan / total_time, 0.0))
        dilation = np.where(lane_productive > 0,
                            total_time / lane_productive, 1.0)
    # A failure counts when its wall-clock position, to first order
    # (blocks assumed spread uniformly over the run), is at or before
    # the end: every one of a completed run, and the fatal strike.
    failures = counts
    if not completed.all():
        struck = times * dilation[lane_of] <= makespan[lane_of]
        failures = np.where(
            completed, failures,
            np.bincount(lane_of[struck], minlength=lanes) + fatal)
    lost = _lane_sums(offsets / period[cell_of], counts)

    # First-order renewal estimates: ``failures`` is exact for
    # completed runs and ``rollbacks`` equals it (every strike rolls
    # back once in these protocols); ``work_lost`` charges each strike
    # the work accrued since its period began; ``commits`` counts
    # completed patterns; ``risk_time`` opens one risk window per
    # strike.  Only ``status``/``makespan`` (hence ``waste``) are
    # covered by the equivalence contract.
    work_target = config.work_target
    fatal_col, makespan_col = fatal.tolist(), makespan.tolist()
    columns = {
        "status": ["fatal" if is_fatal else "timeout" if is_timeout
                   else "completed" for is_fatal, is_timeout
                   in zip(fatal_col, timeout.tolist())],
        "makespan": makespan_col,
        "work_done": (work_target * frac).tolist(),
        "failures": failures.tolist(),
        "work_lost": (lost * per_work[cell] * frac).tolist(),
        "risk_time": (failures * np.array(
            [model.risk for model in models])[cell]).tolist(),
        "fatal_time": [time if is_fatal else NAN
                       for time, is_fatal in zip(makespan_col, fatal_col)],
    }
    seeds = [replica_seed(config, r) for r in range(n_replicas)]
    out = []
    for index, model in enumerate(models):
        lane = slice(index * n_replicas, (index + 1) * n_replicas)
        cut = {name: column[lane] for name, column in columns.items()}
        cut.update(
            rollbacks=cut["failures"], fatal_group=[()] * n_replicas,
            seed=seeds, commits=[int(done // model.work_per_period)
                                 for done in cut["work_done"]])
        block = CellBlock(
            {"protocol": model.key, "period": model.period, "phi": model.phi,
             "n": params.n, "M": params.M, "engine": "vectorized"},
            work_target, cut)
        kept = stop_count(controller, block.waste) or n_replicas
        if kept < n_replicas:
            block = CellBlock(block.meta, work_target, {
                name: column[:kept] for name, column in cut.items()})
        out.append(block)
    return out


def run_chunks_vectorized(
    config: CampaignConfig,
    chunks: Sequence[list],
    controller: ReplicaController,
    heartbeat: Callable[[], None] | None = None,
) -> Iterator[list[CellBlock]]:
    """Each chunk's blocks (one per plan), in chunk order.

    Each grid row runs once, as one lane batch over its cells in every
    chunk; ``heartbeat`` fires after each.  Rows run in the order the
    chunks first need them, and a chunk is yielded as soon as its rows
    are done.  As in :func:`repro.sim.backends.run_cell`, the
    controller's stop cursor is replayed over each cell's waste samples
    in seed order and the first stop truncates the cell (replicas past
    it are computed and discarded).  Each
    :class:`~repro.sim.results.CellBlock` is filled from the batch's
    arrays.
    """
    rows: dict[int, list[tuple[int, int]]] = {}
    for c, plans in enumerate(chunks):
        for p, plan in enumerate(plans):
            rows.setdefault(plan.m_index, []).append((c, p))
    blocks: list = [[None] * len(plans) for plans in chunks]
    for c, plans in enumerate(chunks):
        for slots in filter(None, (rows.pop(plan.m_index, None)
                                   for plan in plans)):
            for (i, p), block in zip(slots, _run_row(
                    config, [chunks[i][p] for i, p in slots], controller)):
                blocks[i][p] = block
            if heartbeat is not None:
                heartbeat()
        yield blocks[c]
        blocks[c] = None


def run_chunk_vectorized(config: CampaignConfig, plans: list,
                         controller: ReplicaController,
                         heartbeat: Callable[[], None] | None = None,
                         ) -> list[CellBlock]:
    """One chunk: the one-chunk :func:`run_chunks_vectorized`."""
    return next(run_chunks_vectorized(config, [plans], controller, heartbeat))


def run_cell_vectorized(config: CampaignConfig, plan,
                        controller: ReplicaController,
                        heartbeat: Callable[[], None] | None = None):
    """One cell: the one-plan :func:`run_chunk_vectorized`."""
    return run_chunk_vectorized(config, [plan], controller, heartbeat)[0]
