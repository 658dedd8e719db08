"""Vectorized cell execution: whole cells as numpy batches.

The DES pays ~45 µs of interpreter overhead per *event*
(``benchmarks/PROFILE_high_churn.md``); a high-churn cell is hundreds of
thousands of events.  This module replaces the per-event loop with the
protocols' renewal closed forms — the same kernel
(:func:`repro.sim.renewal.failure_blocks`) that
:func:`repro.sim.renewal.run_renewal` runs for one replica — applied to
every replica of a campaign cell as one batch of array operations:
sample all failure times, bin all pattern offsets into phases with one
``searchsorted``, evaluate each phase's ``RE`` formula once over all its
strikes across all replicas, and reduce block sums per replica with one
``bincount``.  Cost becomes O(failures) array
math instead of O(events) Python dispatch.

Identity / equivalence contract
-------------------------------
The vectorized engine is **deterministic** but **not byte-identical**
to the DES:

* Each replica draws from its *own* stream seeded with the cell's
  :func:`~repro.sim.backends.replica_seed` — results are pure functions
  of the replica key (protocol, M, φ, workload, failure law, seed)
  alone, never of batch shape, worker identity or execution order.
  Re-running a cell anywhere reproduces its bytes exactly, which is
  what the content-addressed store's convergent publish requires; the
  store keys vectorized replicas separately from DES replicas (the
  ``engine`` key field), so the two engines can never serve each
  other's results.
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

from typing import Callable

import numpy as np

from ..core.period import optimal_period
from ..core.protocols import get_protocol
from ..core.risk import risk_window, success_probability
from ..errors import InfeasibleModelError, ParameterError
from .adaptive import ReplicaController
from .backends import SerialBackend, replica_seed, trace_seed
from .campaign import CampaignConfig
from .renewal import failure_blocks
from .results import DesResult
from .rng import RngFactory

__all__ = [
    "VectorizedBackend",
    "cell_engine",
    "plan_engine",
    "run_cell_vectorized",
]

#: Safety valve for pathological failure laws whose draws never advance
#: the renewal clock (e.g. an empirical law containing zeros).
_MAX_SAMPLING_ROUNDS = 10_000


def cell_engine(config: CampaignConfig, plan) -> str:
    """Which engine actually simulates this cell under ``backend="vectorized"``.

    Pure in ``(config, plan)`` — every worker, the executor and the
    store key the same decision.  Only a protocol lacking the renewal
    interface (phase lengths / RE times) needs the DES, though every
    registered protocol provides it.
    """
    spec = get_protocol(plan.protocol)
    needed = ("phase_lengths", "work_per_period", "recovery_constant",
              "re_time", "effective_phi")
    if not all(hasattr(spec, a) for a in needed):
        return "des"
    return "vectorized"


def plan_engine(backend: str, config: CampaignConfig, plan) -> str:
    """Resolve a policy-level backend selector to this cell's engine."""
    if backend == "des":
        return "des"
    return cell_engine(config, plan)


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


def _shared_stream(config: CampaignConfig, m_index: int, params,
                   replica: int, horizon: float,
                   cache: dict) -> tuple[np.ndarray, float, float]:
    """``(sorted failure instants, u_fatal, u_when)`` of (row, replica).

    Sampled once per ``cache`` from the replica's shared-trace seed over
    the wall-clock horizon, a function of the config alone — the
    general-law sampler's batch shape depends on its horizon, so a
    per-cell horizon would break the pairing.  Every cell of the row
    takes a prefix of the same instants and the same two fatality
    uniforms.
    """
    key = ("vectorized", m_index, replica)
    if key not in cache:
        rng = RngFactory(trace_seed(config, m_index, replica)).replica(0)
        times = np.sort(_sample_failure_times(
            rng, config, params.M, params.n, horizon
        ))
        cache[key] = (times, rng.uniform(), rng.uniform())
    return cache[key]


def _draws(config: CampaignConfig, plan, params, n_replicas: int,
           productive: float, horizon: float,
           cache: dict) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Per-replica failure instants in ``[0, productive)`` and the two
    fatality uniforms.

    Without shared traces each replica samples its own stream (store
    purity); the draw order inside a stream is fixed — count/offsets,
    then the two fatality uniforms — so outcomes never perturb
    downstream draws.  With shared traces each replica takes the prefix
    of its row's common stream (:func:`_shared_stream`).
    """
    times_per_replica: list[np.ndarray] = []
    u_fatal = np.empty(n_replicas)
    u_when = np.empty(n_replicas)
    for r in range(n_replicas):
        if config.share_traces:
            stream, u_fatal[r], u_when[r] = _shared_stream(
                config, plan.m_index, params, r, horizon, cache)
            times_per_replica.append(
                stream[:np.searchsorted(stream, productive)])
            continue
        rng = RngFactory(replica_seed(config, r)).replica(0)
        times_per_replica.append(_sample_failure_times(
            rng, config, params.M, params.n, productive
        ))
        u_fatal[r] = rng.uniform()
        u_when[r] = rng.uniform()
    return times_per_replica, u_fatal, u_when


def run_cell_vectorized(
    config: CampaignConfig,
    plan,
    controller: ReplicaController,
    trace_cache: dict | None = None,
    heartbeat: Callable[[], None] | None = None,
) -> list[DesResult]:
    """Execute one grid cell's replicas as a numpy batch.

    The control flow mirrors :func:`repro.sim.backends.run_cell`
    observably: replicas exist in seed order, the controller's
    :class:`~repro.sim.adaptive.StopCursor` is replayed over their waste
    samples and the first stop truncates the cell — so adaptive
    controllers, resume scans and store cursor replays see exactly the
    sequence a scalar run would produce.  Replicas past the stop are
    computed speculatively (array work is cheap) and discarded.

    ``trace_cache`` holds the shared-trace streams across the cells of
    one backend run (like :func:`~repro.sim.backends.run_cell`'s DES
    traces); it only saves work, never changes bytes.
    """
    spec = get_protocol(plan.protocol)
    params = config.base_params.with_updates(M=plan.M)
    phi = plan.phi

    period = optimal_period(spec, params, phi)
    if not np.isfinite(period):
        # Same failure surface (type and guidance) as the DES path.
        raise InfeasibleModelError(
            f"{spec.key}: no feasible period at M={params.M:g}s; "
            "pass an explicit period to simulate a saturated regime"
        )
    period = float(period)
    eff_phi = float(np.asarray(spec.effective_phi(params, phi)))
    work_per_period = float(np.asarray(spec.work_per_period(params, phi, period)))
    risk_win = float(np.asarray(risk_window(spec, params, phi)))
    horizon_wall = (config.max_time if config.max_time is not None
                    else 200.0 * config.work_target)
    # Productive time needed for the target work: the pattern delivers
    # work_per_period seconds of work every `period` seconds it runs.
    productive = period * config.work_target / work_per_period

    n_replicas = controller.max_replicas
    times_per_replica, u_fatal, u_when = _draws(
        config, plan, params, n_replicas, productive, horizon_wall,
        {} if trace_cache is None else trace_cache,
    )

    counts = np.array([t.size for t in times_per_replica], dtype=int)
    all_times = (np.concatenate(times_per_replica) if counts.sum()
                 else np.empty(0))
    rep_ids = np.repeat(np.arange(n_replicas), counts)

    # One batch over every failure of every replica: pattern offset →
    # phase bin → that phase's RE formula over all its strikes at once.
    offsets = all_times % period
    _, blocks = failure_blocks(spec, params, phi, period, offsets)
    block_sum = np.bincount(rep_ids, weights=blocks, minlength=n_replicas)
    total_time = productive + block_sum
    # Fatality from the success-probability model (exact-exponential
    # variant: stays a probability in saturated regimes, agrees with the
    # paper's Eq. 11/16 to first order), over every replica at once.
    p_succ = success_probability(spec, params, phi, total_time,
                                 method="exponential")
    is_fatal = u_fatal >= p_succ
    fatal_at = u_when * total_time
    offsets_per_replica = np.split(offsets, np.cumsum(counts)[:-1])

    results: list[DesResult] = []
    cursor = controller.cursor()
    for r in range(n_replicas):
        t_total = float(total_time[r])
        times = times_per_replica[r]
        n_fail = int(counts[r])
        # Wall-clock position of each failure, to first order (blocks
        # assumed spread uniformly over the run).
        dilation = t_total / productive if productive > 0 else 1.0
        meta = {
            "protocol": spec.key,
            "period": period,
            "phi": eff_phi,
            "seed": replica_seed(config, r),
            "n": params.n,
            "M": params.M,
            "engine": "vectorized",
        }
        if is_fatal[r] and fatal_at[r] <= horizon_wall:
            t_fatal = float(fatal_at[r])
            seen = int(np.count_nonzero(times * dilation <= t_fatal)) + 1
            frac = t_fatal / t_total if t_total > 0 else 0.0
            result = _assemble(
                status="fatal", makespan=t_fatal, config=config,
                work_done=config.work_target * frac,
                failures=seen, work_per_period=work_per_period,
                period=period, offsets=offsets_per_replica[r],
                frac=frac, risk_win=risk_win,
                fatal_time=t_fatal, meta=meta,
            )
        elif t_total > horizon_wall:
            frac = horizon_wall / t_total
            result = _assemble(
                status="timeout", makespan=horizon_wall, config=config,
                work_done=config.work_target * frac,
                failures=int(np.count_nonzero(
                    times * dilation <= horizon_wall
                )),
                work_per_period=work_per_period, period=period,
                offsets=offsets_per_replica[r], frac=frac,
                risk_win=risk_win, fatal_time=float("nan"), meta=meta,
            )
        else:
            result = _assemble(
                status="completed", makespan=t_total, config=config,
                work_done=config.work_target, failures=n_fail,
                work_per_period=work_per_period, period=period,
                offsets=offsets_per_replica[r], frac=1.0,
                risk_win=risk_win, fatal_time=float("nan"), meta=meta,
            )
        results.append(result)
        if heartbeat is not None:
            heartbeat()
        if cursor.push(result.waste):
            break
    return results


def _assemble(
    *, status: str, makespan: float, config: CampaignConfig,
    work_done: float, failures: int, work_per_period: float, period: float,
    offsets: np.ndarray, frac: float, risk_win: float, fatal_time: float,
    meta: dict,
) -> DesResult:
    """Fill a :class:`DesResult` with first-order renewal estimates.

    ``failures`` is exact for completed runs; ``rollbacks`` equals it
    (every strike rolls back once in these protocols); ``work_lost``
    charges each strike the work accrued since its period began;
    ``commits`` counts completed patterns; ``risk_time`` opens one risk
    window per strike.  Only ``status``/``makespan`` (hence ``waste``)
    are covered by the equivalence contract.
    """
    work_lost = float((offsets / period).sum() * work_per_period * frac)
    commits = int(work_done // work_per_period)
    return DesResult(
        status=status,
        makespan=float(makespan),
        work_target=config.work_target,
        work_done=float(work_done),
        failures=int(failures),
        rollbacks=int(failures),
        work_lost=work_lost,
        commits=commits,
        risk_time=float(failures) * risk_win,
        fatal_time=fatal_time,
        fatal_group=(),
        meta=meta,
    )


class VectorizedBackend(SerialBackend):
    """In-process backend running each cell as one numpy batch.

    A :class:`~repro.sim.backends.SerialBackend` whose engine is
    ``"vectorized"``: chunks execute in submission order and each cell
    runs through :func:`run_cell_vectorized`.  The inherited trace cache
    spans the campaign, so each shared (M, replica) stream is sampled
    once.
    """

    def __init__(self) -> None:
        super().__init__(engine="vectorized")
