"""Top-level discrete-event simulation runner.

Wires a protocol configuration into the platform machine
(:mod:`repro.sim.protocols.base`) with failure injection, buddy groups and
an application, runs it, and returns a :class:`~repro.sim.results.DesResult`.

Example
-------
>>> from repro import DOUBLE_NBL, scenarios
>>> from repro.sim import DesConfig, run_des
>>> params = scenarios.BASE.parameters(M=120, n=64)
>>> cfg = DesConfig(protocol=DOUBLE_NBL, params=params, phi=2.0,
...                 work_target=3600.0, seed=7)
>>> result = run_des(cfg)
>>> result.status in ("completed", "fatal")
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core.parameters import Parameters
from ..core.period import optimal_period
from ..core.protocols import ProtocolSpec, get_protocol
from ..errors import InfeasibleModelError, ParameterError
from .application import Application
from .cluster import Cluster
from .distributions import FailureDistribution
from .engine import Engine
from .failures import FailureInjector, TraceInjector, TraceSchedule
from .protocols.base import PlatformSim, SimProtocol
from .protocols.buddy import BuddySimProtocol
from .results import DesResult, MonteCarloSummary
from .rng import RngFactory
from .topology import GroupAssignment, contiguous_groups, random_groups, strided_groups

__all__ = ["DesConfig", "buddy_protocol", "run_des", "run_des_batch",
           "summarize_waste"]

_GROUPINGS = ("contiguous", "strided", "random")


@dataclass(frozen=True)
class DesConfig:
    """Configuration of one event-simulation run.

    Parameters
    ----------
    protocol:
        A :class:`~repro.core.protocols.ProtocolSpec` (or key) to run via
        the buddy adapter, or a ready-made
        :class:`~repro.sim.protocols.base.SimProtocol` (e.g. the
        centralised or no-checkpoint baselines).
    params:
        Platform parameters.  ``params.n`` is the simulated node count —
        event simulation is practical up to ~10⁴ nodes; use the risk Monte
        Carlo for the 10⁶-node Exa risk studies.
    phi:
        Overhead choice (ignored for non-buddy protocols).
    period:
        Checkpointing period; ``None`` = the model-optimal period.
    work_target:
        Application work (T_base) in seconds of compute.
    distribution:
        Node failure law; ``None`` = exponential at the node MTBF ``n·M``.
    trace:
        Optional recorded failure trace (``failures.generate_trace``
        output, ``(time, node)`` pairs, or a
        :class:`~repro.sim.failures.TraceSchedule`).  Raw traces are
        parsed into a schedule on construction.  Replayed verbatim —
        ``distribution`` is then ignored; two protocols run on the same
        trace see the identical failure history (common random numbers).
    grouping:
        ``"contiguous"`` | ``"strided"`` | ``"random"`` or an explicit
        :class:`~repro.sim.topology.GroupAssignment`.
    max_time:
        Wall-clock simulation horizon; ``None`` = ``200 × work_target``.
    """

    protocol: ProtocolSpec | SimProtocol | str
    params: Parameters
    work_target: float
    phi: float = 0.0
    period: float | None = None
    distribution: FailureDistribution | None = None
    trace: object | None = None
    grouping: str | GroupAssignment = "contiguous"
    seed: int | None = 12345
    max_time: float | None = None
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.work_target <= 0:
            raise ParameterError("work_target must be > 0")
        if isinstance(self.grouping, str) and self.grouping not in _GROUPINGS:
            raise ParameterError(
                f"grouping must be one of {_GROUPINGS} or a GroupAssignment"
            )
        if self.seed is not None and (
                not isinstance(self.seed, int) or self.seed < 0):
            raise ParameterError(
                f"seed must be a non-negative int, got {self.seed!r}")
        if self.trace is not None and not isinstance(self.trace, TraceSchedule):
            object.__setattr__(
                self, "trace", TraceSchedule(self.params.n, self.trace))


def buddy_protocol(
    protocol: ProtocolSpec | str,
    params: Parameters,
    phi: float,
    period: float | None = None,
) -> BuddySimProtocol:
    """The resolved model of one (protocol, params, φ) cell.

    ``period=None`` picks the model-optimal period.  The one place any
    engine resolves a cell: the DES takes it as :attr:`DesConfig.protocol`
    for every replica, the vectorized engine and the renewal Monte Carlo
    read its floats (:func:`repro.sim.renewal.failure_blocks`).
    """
    spec = get_protocol(protocol)
    if period is None:
        period = optimal_period(spec, params, phi)
        if not np.isfinite(period):
            raise InfeasibleModelError(
                f"{spec.key}: no feasible period at M={params.M:g}s; "
                "pass an explicit period to simulate a saturated regime"
            )
    return BuddySimProtocol(spec, params, phi, float(period))


def _build_cluster(
    sim_protocol: SimProtocol, config: DesConfig, rng_factory: RngFactory | None
) -> Cluster | None:
    g = sim_protocol.group_size
    if g == 0:
        return None
    n = config.params.n
    if n % g != 0:
        raise ParameterError(
            f"params.n={n} must be a multiple of the group size {g}"
        )
    if isinstance(config.grouping, GroupAssignment):
        assignment = config.grouping
        if assignment.n_nodes != n or assignment.group_size != g:
            raise ParameterError("GroupAssignment does not match (n, group size)")
    elif config.grouping == "contiguous":
        assignment = contiguous_groups(n, g)
    elif config.grouping == "strided":
        assignment = strided_groups(n, g)
    else:
        assignment = random_groups(n, g, rng_factory.component(0))
    return Cluster(assignment)


def run_des(config: DesConfig) -> DesResult:
    """Run one event simulation to completion / fatal failure / timeout.

    A finished run holds no queued event or event handle (the engine is
    cleared, the platform finalized), so no reference cycle is left and
    all it built is freed by refcount when this returns, not by the
    garbage collector."""
    # The seed's streams feed the failure injector and random groupings
    # only; a replayed trace with fixed groups never reads them.
    rng_factory = None
    if config.trace is None or config.grouping == "random":
        rng_factory = RngFactory(config.seed)
    sim_protocol = config.protocol
    if not isinstance(sim_protocol, SimProtocol):
        sim_protocol = buddy_protocol(
            sim_protocol, config.params, config.phi, config.period)
    cluster = _build_cluster(sim_protocol, config, rng_factory)
    if config.trace is not None:
        injector = TraceInjector(config.params.n, config.trace)
    else:
        injector = FailureInjector.from_platform_mtbf(
            config.params.n, config.params.M, rng_factory, config.distribution
        )
    app = Application(work_target=config.work_target)
    engine = Engine()
    platform = PlatformSim(sim_protocol, injector, app, engine, cluster)
    platform.start()
    horizon = (
        config.max_time if config.max_time is not None else 200.0 * config.work_target
    )
    engine.run(until=horizon, max_events=config.max_events)
    status = platform.finalize()
    engine.clear()
    return DesResult(
        status=status,
        makespan=engine.now,
        work_target=config.work_target,
        work_done=app.work_done,
        failures=platform.failures_seen,
        rollbacks=app.rollbacks,
        work_lost=app.work_lost,
        commits=len(app.commits),
        risk_time=sum(g.risk_time for g in cluster.groups) if cluster else 0.0,
        fatal_time=platform.fatal_time,
        fatal_group=platform.fatal_group,
        meta={
            "protocol": sim_protocol.key,
            "period": getattr(sim_protocol, "period", None),
            "phi": getattr(sim_protocol, "phi", None),
            "seed": config.seed,
            "n": config.params.n,
            "M": config.params.M,
        },
    )


def run_des_batch(config: DesConfig, replicas: int) -> list[DesResult]:
    """Run independent replicas (seeds derived from ``config.seed``)."""
    if replicas < 1:
        raise ParameterError("replicas must be >= 1")
    base_seed = config.seed if config.seed is not None else 0
    out = []
    for r in range(replicas):
        out.append(run_des(replace(config, seed=base_seed + 1000003 * r)))
    return out


def summarize_waste(
    results: Sequence[DesResult], confidence: float = 0.95
) -> MonteCarloSummary:
    """Aggregate measured waste over completed replicas (CI included)."""
    wastes = [r.waste for r in results]
    successes = sum(1 for r in results if r.succeeded)
    return MonteCarloSummary.from_samples(
        wastes,
        successes=successes,
        confidence=confidence,
        meta={"protocol": results[0].meta.get("protocol") if results else None},
    )
