"""Fast renewal-process Monte Carlo of the waste model.

Validates the expected-lost-time formulas (Eqs. 6–8, 13–14) and the waste
expressions in seconds instead of the minutes a full event simulation
takes, by exploiting the protocols' renewal structure:

* In *productive time* (failure handling excised), the periodic pattern
  runs uninterrupted, so the pattern offset at time ``s`` is simply
  ``s mod P``.
* Failures are Poisson with rate ``1/M``; conditioned on their count over
  a productive-time horizon ``H``, their positions are iid uniform — this
  is precisely the paper's "failures strike uniformly across the period"
  argument.
* Each failure at pattern offset ``x`` inserts a block of
  ``recovery_stall + RE(phase(x), offset(x))`` wall seconds, after which
  the platform state is exactly as at the failure instant.

Hence ``T = H + Σ blocks`` and ``work = H·W/P``, all vectorised.  The mean
block duration estimates ``F`` directly, so the test suite can assert
``F̂ ≈ A + P/2`` with a proper confidence interval.

Bias note: this estimator thins failures that would arrive during blocks,
giving waste ``1 − (1−c/P)/(1+F/M)``, which agrees with the paper's
``1 − (1−c/P)(1−F/M)`` to first order — the same order at which the
paper's own derivation operates.  The event simulator (no thinning) covers
the exact semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.parameters import Parameters
from ..core.period import optimal_period
from ..core.protocols import ProtocolSpec, get_protocol
from ..errors import InfeasibleModelError, ParameterError
from .results import MonteCarloSummary
from .rng import RngFactory

__all__ = [
    "RenewalConfig",
    "RenewalResult",
    "run_renewal",
    "run_renewal_batch",
    "mean_block_samples",
    "failure_blocks",
]


@dataclass(frozen=True)
class RenewalConfig:
    """Configuration of a renewal Monte Carlo estimate."""

    protocol: ProtocolSpec | str
    params: Parameters
    phi: float = 0.0
    period: float | None = None  #: None = model-optimal period
    n_periods: int = 10_000  #: productive-time horizon in periods
    seed: int | None = 2024

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ParameterError("n_periods must be >= 1")


@dataclass(frozen=True)
class RenewalResult:
    """One renewal Monte Carlo replica."""

    protocol: str
    period: float
    phi: float
    horizon: float  #: productive time simulated
    n_failures: int
    total_time: float  #: wall time = horizon + blocks
    work_done: float
    mean_block: float  #: empirical F̂ (nan if no failures)
    waste: float
    #: per-phase failure counts (validates the uniform-strike weights)
    phase_hits: tuple[int, int, int] = (0, 0, 0)
    meta: dict = field(default_factory=dict)


def failure_blocks(
    spec: ProtocolSpec, params: Parameters, phi: float, period: float,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each failure's phase and the wall seconds it costs.

    ``offsets`` are pattern offsets in ``[0, period)``.  Each is binned
    into its phase (the last phase absorbs any rounding slack between
    the summed phase lengths and the period), and its block is
    ``recovery_stall + RE(phase, offset into the phase)``, every phase's
    ``RE`` evaluated once over all its strikes.  Returns ``(phase_of,
    blocks)``.  The one kernel behind :func:`run_renewal` and the
    vectorized campaign engine (:mod:`repro.sim.vectorized`).
    """
    lengths = [float(np.asarray(x))
               for x in spec.phase_lengths(params, phi, period)]
    bounds = np.cumsum([0.0] + lengths)
    stall = float(np.asarray(spec.recovery_constant(params, phi)))
    phase_of = np.clip(
        np.searchsorted(bounds, offsets, side="right") - 1,
        0, len(lengths) - 1,
    )
    blocks = np.empty_like(offsets)
    for phase in range(len(lengths)):
        hit = phase_of == phase
        if not np.any(hit):
            continue
        local = offsets[hit] - bounds[phase]
        re = np.asarray(
            spec.re_time(params, phi, period, phase, local), dtype=float
        )
        blocks[hit] = stall + re
    return phase_of, blocks


def run_renewal(config: RenewalConfig) -> RenewalResult:
    """One vectorised renewal replica."""
    spec = get_protocol(config.protocol)
    params = config.params
    phi = config.phi
    period = config.period
    if period is None:
        period = optimal_period(spec, params, phi)
        if not np.isfinite(period):
            raise InfeasibleModelError(
                f"{spec.key}: no feasible period at M={params.M:g}s"
            )
    period = float(period)
    p_min = float(np.asarray(spec.min_period(params, phi)))
    if period < p_min - 1e-9:
        raise ParameterError(f"period {period} below minimum {p_min}")

    work_per_period = float(np.asarray(spec.work_per_period(params, phi, period)))

    rng = RngFactory(config.seed).replica(0)
    horizon = config.n_periods * period
    n_fail = int(rng.poisson(horizon / params.M))
    offsets = np.sort(rng.uniform(0.0, horizon, size=n_fail)) % period

    phase_of, blocks = failure_blocks(spec, params, phi, period, offsets)
    phase_hits = np.bincount(phase_of, minlength=3)

    total_time = horizon + float(blocks.sum())
    work_done = config.n_periods * work_per_period
    waste = 1.0 - work_done / total_time
    return RenewalResult(
        protocol=spec.key,
        period=period,
        phi=float(np.asarray(spec.effective_phi(params, phi))),
        horizon=horizon,
        n_failures=n_fail,
        total_time=total_time,
        work_done=work_done,
        mean_block=float(blocks.mean()) if n_fail else float("nan"),
        waste=waste,
        phase_hits=tuple(int(h) for h in phase_hits),
        meta={"M": params.M, "seed": config.seed},
    )


def mean_block_samples(results: "list[RenewalResult]") -> list[float]:
    """The finite per-replica F̂ samples of a batch.

    ``mean_block`` is NaN for a replica that saw no failures (an empty
    mean has no value, and any sentinel would bias F̂ low), and a single
    NaN poisons ``np.mean``/CI aggregation over replicas.  Every
    aggregation over ``mean_block`` must therefore go through this
    helper, which drops the no-failure replicas; callers decide what an
    all-empty batch means (usually "too few failures to estimate F —
    report NaN, don't assert").
    """
    return [
        float(r.mean_block) for r in results if np.isfinite(r.mean_block)
    ]


def run_renewal_batch(
    config: RenewalConfig, replicas: int, confidence: float = 0.95
) -> tuple[list[RenewalResult], MonteCarloSummary]:
    """Independent replicas plus a CI summary of the waste estimates."""
    if replicas < 1:
        raise ParameterError("replicas must be >= 1")
    base_seed = config.seed if config.seed is not None else 0
    results = []
    for r in range(replicas):
        cfg = RenewalConfig(
            protocol=config.protocol,
            params=config.params,
            phi=config.phi,
            period=config.period,
            n_periods=config.n_periods,
            seed=base_seed + 7919 * r,
        )
        results.append(run_renewal(cfg))
    summary = MonteCarloSummary.from_samples(
        [r.waste for r in results],
        confidence=confidence,
        meta={"protocol": results[0].protocol, "period": results[0].period},
    )
    return results, summary
