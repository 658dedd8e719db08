"""Vectorized cell execution: whole cells as numpy batches.

The DES pays interpreter overhead for every failure, recovery block and
risk window of every replica, and for every period phase it walks
(``benchmarks/PROFILE_high_churn.md``).  This module replaces the
per-event loop with the protocols' renewal closed forms — the same
kernel (:func:`repro.sim.renewal.failure_blocks`) that
:func:`repro.sim.renewal.run_renewal` runs for one replica — applied to
every replica of a campaign cell as one batch of array operations:
sample all failure times, bin all pattern offsets into phases with one
``searchsorted``, evaluate every strike's ``RE`` formula in one array
expression across all replicas, and reduce block sums per replica with
one ``bincount``.  Cost becomes O(failures) array
math instead of O(events) Python dispatch.  The cell's model (period,
phase lengths, stall, risk window, re-execution terms) is the DES's
own, resolved once by :func:`repro.sim.des.buddy_protocol`.

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
  and the replica index alone, never of batch shape, worker identity or
  execution order.  Re-running a cell anywhere reproduces its bytes
  exactly, which is what the content-addressed store's convergent
  publish requires; the store keys vectorized cells separately from DES
  cells (the ``engine`` key field), so the two engines can never serve
  each other's results.
* Shared failure traces (``share_traces``) are common random numbers:
  every protocol and φ at the same (M, replica) sees the same failure
  stream.  Replica ``r`` of grid row ``m_index`` samples its failure
  instants and its two fatality uniforms from one stream seeded with
  :func:`~repro.sim.backends.trace_seed`, over the wall-clock horizon
  (``max_time``, else ``200·work_target``: the DES's shared-trace
  horizon, a function of the config alone).  The stream is sampled
  once, sorted, and each cell consumes its prefix ``[0, productive)``.
  Restricting a Poisson or per-node renewal process to a prefix leaves
  its law unchanged, so every cell that can complete sees exactly the
  non-shared failure process and the contract below carries over; only
  the pairing across cells is new.  (A cell whose productive time
  passes the horizon can only time out or die, and its failures past
  the horizon are not sampled.)  Seed, horizon and law are all store-key
  fields, so the bytes stay pure functions of the key.  Streams live in
  the backends' ``trace_cache`` under keys distinct from the DES
  traces, so any worker regenerates identical streams whichever cells
  it claims.
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

from itertools import accumulate
from typing import Callable

import numpy as np

from ..core.risk import success_probability
from ..errors import ParameterError
from .adaptive import ReplicaController, stop_count
from .backends import _horizon, replica_seed, trace_seed
from .campaign import CampaignConfig
from .des import buddy_protocol
from .renewal import failure_blocks
from .results import NAN, CellBlock
from .rng import RngFactory

__all__ = [
    "plan_engine",
    "run_cell_vectorized",
]

#: Safety valve for pathological failure laws whose draws never advance
#: the renewal clock (e.g. an empirical law containing zeros).
_MAX_SAMPLING_ROUNDS = 10_000


def plan_engine(backend: str, config: CampaignConfig, plan) -> str:
    """The engine of any cell under ``backend``: the backend itself."""
    return backend


def _sample_failure_times(
    rng: np.random.Generator, config: CampaignConfig, M: float,
    n_nodes: int, horizon: float,
) -> np.ndarray:
    """All failure instants in ``[0, horizon)`` of productive time.

    Exponential platform (``distribution is None``): the platform
    superposition is Poisson with rate ``1/M``, so draw the count and
    place it uniformly — exactly :func:`repro.sim.renewal.run_renewal`.

    General laws: per-node renewal processes with inter-arrivals from
    ``distribution.rescale(n·M)`` (the same construction as
    :func:`repro.sim.failures.FailureInjector.from_platform_mtbf`),
    sampled as batched matrices via ``sample(rng, size)`` and advanced
    with ``cumsum`` until every node's clock passes the horizon.  This
    captures the law's dispersion (a Weibull platform is burstier than
    Poisson); it is distribution-equal, not stream-equal, to the DES's
    per-node streams.
    """
    if config.distribution is None:
        n_fail = int(rng.poisson(horizon / M))
        return rng.uniform(0.0, horizon, size=n_fail)
    node_dist = config.distribution.rescale(M * n_nodes)
    lam = horizon / (M * n_nodes)  # expected failures per node
    batch = max(4, int(np.ceil(lam + 6.0 * np.sqrt(max(lam, 1.0)) + 4.0)))
    clocks = np.zeros(n_nodes)
    active = np.arange(n_nodes)
    collected: list[np.ndarray] = []
    for _ in range(_MAX_SAMPLING_ROUNDS):
        if active.size == 0:
            break
        draws = np.asarray(
            node_dist.sample(rng, size=(active.size, batch)), dtype=float
        )
        if not np.all(draws >= 0.0) or float(draws.max(initial=0.0)) <= 0.0:
            raise ParameterError(
                "failure distribution produced non-advancing inter-arrival "
                "times; cannot sample a renewal process from it"
            )
        times = clocks[active, None] + np.cumsum(draws, axis=1)
        collected.append(times[times < horizon])
        clocks[active] = times[:, -1]
        active = active[times[:, -1] < horizon]
    else:
        raise ParameterError(
            "failure sampling did not converge; distribution inter-arrivals "
            "are too small relative to the horizon"
        )
    if not collected:
        return np.empty(0)
    return np.concatenate(collected)


def _sample_replicas(config: CampaignConfig, params, seeds: list[int],
                     horizon: float) -> tuple[list[np.ndarray], np.ndarray,
                                              np.ndarray]:
    """Each seed's failure instants in ``[0, horizon)`` and its two
    fatality uniforms.

    The draw order inside a stream is fixed — count/offsets, then the
    two fatality uniforms — so outcomes never perturb downstream draws.
    """
    times = []
    u_fatal = np.empty(len(seeds))
    u_when = np.empty(len(seeds))
    for r, seed in enumerate(seeds):
        rng = RngFactory(seed).replica(0)
        times.append(_sample_failure_times(
            rng, config, params.M, params.n, horizon))
        u_fatal[r] = rng.uniform()
        u_when[r] = rng.uniform()
    return times, u_fatal, u_when


def _shared_row(config: CampaignConfig, m_index: int, params,
                n_replicas: int, horizon: float,
                cache: dict) -> tuple[list[np.ndarray], np.ndarray,
                                      np.ndarray]:
    """``(sorted failure instants per replica, u_fatal, u_when)`` of
    grid row ``m_index``.

    Replica ``r`` samples once per ``cache`` from its shared-trace seed
    over the wall-clock horizon, a function of the config alone — the
    general-law sampler's batch shape depends on its horizon, so a
    per-cell horizon would break the pairing.  Every cell of the row
    takes a prefix of each replica's instants and the same two
    fatality uniforms.
    """
    key = ("vectorized", m_index, n_replicas)
    if key not in cache:
        streams, u_fatal, u_when = _sample_replicas(
            config, params,
            [trace_seed(config, m_index, r) for r in range(n_replicas)],
            horizon)
        cache[key] = ([np.sort(stream) for stream in streams],
                      u_fatal, u_when)
    return cache[key]


def _draws(config: CampaignConfig, plan, params, n_replicas: int,
           productive: float, horizon: float,
           cache: dict) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Per-replica failure instants in ``[0, productive)`` and the two
    fatality uniforms.

    Without shared traces each replica samples its own stream (store
    purity).  With shared traces each replica takes the prefix of its
    row's common stream (:func:`_shared_row`).
    """
    if config.share_traces:
        streams, u_fatal, u_when = _shared_row(
            config, plan.m_index, params, n_replicas, horizon, cache)
        return ([stream[:stream.searchsorted(productive)]
                 for stream in streams], u_fatal, u_when)
    return _sample_replicas(
        config, params, [replica_seed(config, r) for r in range(n_replicas)],
        productive)


def run_cell_vectorized(
    config: CampaignConfig,
    plan,
    controller: ReplicaController,
    trace_cache: dict | None = None,
    heartbeat: Callable[[], None] | None = None,
) -> CellBlock:
    """Execute one grid cell's replicas as a numpy batch.

    The control flow mirrors :func:`repro.sim.backends.run_cell`
    observably: replicas exist in seed order, the controller's
    :class:`~repro.sim.adaptive.StopCursor` is replayed over their waste
    samples and the first stop truncates the cell — so adaptive
    controllers, resume scans and store cursor replays see exactly the
    sequence a scalar run would produce.  Replicas past the stop are
    computed speculatively (array work is cheap) and discarded.

    The cell comes back as one :class:`~repro.sim.results.CellBlock`
    filled straight from the batch's arrays (one ``tolist()`` per
    column); its :class:`~repro.sim.results.DesResult` rows are built
    only if a caller reads them.  ``heartbeat`` fires once, after the
    batch.

    ``trace_cache`` holds the shared-trace streams across the cells of
    one backend run (like :func:`~repro.sim.backends.run_cell`'s DES
    traces); it only saves work, never changes bytes.
    """
    params = config.base_params.with_updates(M=plan.M)
    model = buddy_protocol(plan.protocol, params, plan.phi)
    period = model.period
    work_per_period = model.work_per_period
    horizon_wall = _horizon(config)
    # Productive time needed for the target work: the pattern delivers
    # work_per_period seconds of work every `period` seconds it runs.
    productive = period * config.work_target / work_per_period

    n_replicas = controller.max_replicas
    times_per_replica, u_fatal, u_when = _draws(
        config, plan, params, n_replicas, productive, horizon_wall,
        {} if trace_cache is None else trace_cache,
    )
    counts = [times.size for times in times_per_replica]
    all_times = np.concatenate(times_per_replica)
    rep_ids = np.repeat(np.arange(n_replicas), counts)

    # One batch over every failure of every replica: pattern offset →
    # phase bin → its phase's RE formula, over all strikes at once.
    offsets = all_times % period
    _, blocks = failure_blocks(model, offsets)
    block_sum = np.bincount(rep_ids, weights=blocks, minlength=n_replicas)
    total_time = productive + block_sum
    # Fatality from the success-probability model (exact-exponential
    # variant: stays a probability in saturated regimes, agrees with the
    # paper's Eq. 11/16 to first order), over every replica at once.
    p_succ = success_probability(model.spec, params, plan.phi, total_time,
                                 method="exponential")
    fatal_at = u_when * total_time
    fatal = (u_fatal >= p_succ) & (fatal_at <= horizon_wall)
    timeout = ~fatal & (total_time > horizon_wall)
    completed = ~(fatal | timeout)
    makespan = np.where(fatal, fatal_at,
                        np.where(timeout, horizon_wall, total_time))
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(completed, 1.0, np.where(
            total_time > 0, makespan / total_time, 0.0))
    # A failure counts when its wall-clock position, to first order
    # (blocks assumed spread uniformly over the run), is at or before
    # the end: every one of a completed run, and the fatal strike.
    failures = np.array(counts)
    if not completed.all():
        dilation = total_time / productive if productive > 0 else \
            np.ones(n_replicas)
        struck = all_times * dilation[rep_ids] <= makespan[rep_ids]
        failures = np.where(
            completed, failures,
            np.bincount(rep_ids[struck], minlength=n_replicas) + fatal)
    # One np.sum per replica slice, exactly as a scalar run sums it:
    # numpy's pairwise summation rounds differently from a batched
    # bincount(weights=...) or add.reduceat over the same values, and
    # the pinned vectorized bytes hold the slice sums.
    fractions = offsets / period
    ends = list(accumulate(counts))
    lost = np.array([fractions[end - count:end].sum()
                     for end, count in zip(ends, counts)])

    # First-order renewal estimates: ``failures`` is exact for
    # completed runs and ``rollbacks`` equals it (every strike rolls
    # back once in these protocols); ``work_lost`` charges each strike
    # the work accrued since its period began; ``commits`` counts
    # completed patterns; ``risk_time`` opens one risk window per
    # strike.  Only ``status``/``makespan`` (hence ``waste``) are
    # covered by the equivalence contract.
    work_target = config.work_target
    work_done = (work_target * frac).tolist()
    failures_col = failures.tolist()
    fatal_col = fatal.tolist()
    makespan_col = makespan.tolist()
    block = CellBlock(
        {"protocol": model.key, "period": period, "phi": model.phi,
         "n": params.n, "M": params.M, "engine": "vectorized"},
        work_target,
        {
            "status": ["fatal" if is_fatal else "timeout" if is_timeout
                       else "completed" for is_fatal, is_timeout
                       in zip(fatal_col, timeout.tolist())],
            "makespan": makespan_col,
            "work_done": work_done,
            "failures": failures_col,
            "rollbacks": failures_col,
            "work_lost": (lost * work_per_period * frac).tolist(),
            "commits": [int(done // work_per_period) for done in work_done],
            "risk_time": (failures * model.risk).tolist(),
            "fatal_time": [time if is_fatal else NAN
                           for time, is_fatal in zip(makespan_col, fatal_col)],
            "fatal_group": [()] * n_replicas,
            "seed": [replica_seed(config, r) for r in range(n_replicas)],
        },
    )
    if heartbeat is not None:
        heartbeat()
    kept = stop_count(controller, block.waste) or n_replicas
    if kept == n_replicas:
        return block
    return CellBlock(block.meta, work_target, {
        name: column[:kept] for name, column in block.columns.items()})
