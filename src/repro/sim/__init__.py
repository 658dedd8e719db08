"""Simulation substrate: event-level and Monte Carlo checkpointing simulators.

Three tiers, by increasing speed and decreasing granularity:

``repro.sim.des``
    Full discrete-event simulation: per-node failure processes, buddy
    groups, phase-by-phase protocol state machines, risk windows and fatal
    failures.  The reference implementation of the protocols' semantics.
``repro.sim.renewal``
    Fast period-level Monte Carlo of the waste renewal process; validates
    the expected-lost-time formulas (Eqs. 6–8, 13–14) in seconds.
``repro.sim.riskmc``
    Vectorised Monte Carlo of pair/triple fatal failures; validates the
    success-probability formulas (Eqs. 11, 16).

Campaign architecture
---------------------
Protocol × M × φ sweeps are *described* by one serializable value and
*executed* by a layered subsystem, each layer replaceable without
touching the others:

``spec``  (the description, and the public API)
    :class:`~repro.sim.spec.CampaignSpec` = grid ⊕
    :class:`~repro.sim.spec.ExecutionPolicy` — frozen, versioned,
    JSON-round-trippable; manifests and queue directories store its
    fingerprint verbatim, so drift detection is spec inequality.
    :class:`~repro.sim.spec.Campaign` is the façade:
    ``Campaign(spec).run(path)/resume(path)/report()/merge(out)``.
``campaign``  (the grid)
    :class:`~repro.sim.campaign.CampaignConfig` and validation.
``executor``  (orchestration: the event producer)
    :class:`~repro.sim.executor.CampaignSession` plans the grid into
    deterministic cell chunks, recovers finished cells on resume
    (manifest + per-record identity checks), then *produces* the typed
    event stream of ``events`` — every cell (recovered, store-served or
    freshly simulated) as exactly one ``CellFinished`` — and aggregates
    :class:`~repro.sim.campaign.CampaignCell` summaries.
    :func:`~repro.sim.executor.execute_spec` is the drain-it-all
    wrapper.
``events``  (the pipeline: bus + consumers)
    Typed events on one synchronous in-process
    :class:`~repro.sim.events.EventBus` with deterministic
    subscription-order fan-out.  Persistence and observation are
    independent consumers — :class:`~repro.sim.events.SinkWriter`,
    :class:`~repro.sim.events.StorePublisher`,
    :class:`~repro.sim.events.ControllerReplay`,
    :class:`~repro.sim.events.ProgressTracker` — so a service or
    metrics layer subscribes without owning (or perturbing) the
    execution loop.
``backends``  (where cells run: the producers' engine)
    :class:`~repro.sim.backends.CampaignBackend` implementations —
    in-process :class:`~repro.sim.backends.SerialBackend`, multi-process
    :class:`~repro.sim.backends.ProcessPoolBackend` — yield chunk results
    in *completion* order.  All seeds derive from grid coordinates, so any
    backend produces identical results; the multi-machine work-stealing
    backend (``distributed``) builds on the same contract.
``sinks``  (how results persist)
    :class:`~repro.sim.sinks.OrderedJsonlSink` keeps the results file a
    byte-exact prefix of the serial file; the out-of-order
    :class:`~repro.sim.sinks.FramedJsonlSink` appends each cell the
    moment it completes (per-record cell/replica/sequence framing —
    no head-of-line blocking) and still resumes from arbitrary
    truncation.  Both are driven by the ``events`` sink-writer consumer.
``repro.store``  (what never re-runs)
    The content-addressed results warehouse: the executor consults it
    per cell before dispatching to any backend and publishes fresh
    cells after their sink append, so identical (and overlapping)
    campaigns stop paying simulation cost — a warm re-run is
    byte-identical with zero simulations.  Volatile policy: the store
    can never change output bytes.
``adaptive``  (how many replicas)
    :class:`~repro.sim.adaptive.ReplicaController` stopping rules:
    :class:`~repro.sim.adaptive.FixedReplicas` (default, bit-identical to
    serial), :class:`~repro.sim.adaptive.AdaptiveCI` (stop once the
    mean-waste CI half-width meets a tolerance) or
    :class:`~repro.sim.adaptive.WilsonSuccessRate` (stop once the
    success-rate Wilson interval is narrow).  The two adaptive rules
    share one batched core and one O(1) cursor over running moments;
    every rule is deterministic given the seed schedule, so adaptive
    campaigns resume exactly.

Supporting modules: ``engine`` (event queue), ``rng`` (reproducible
streams), ``distributions`` (failure laws), ``failures`` (injection),
``cluster``/``topology`` (nodes and buddy groups), ``network``/``storage``
(parameter derivation from hardware characteristics), ``application``
(workload model), ``results`` (result containers and statistics).
"""

from .distributions import (
    Deterministic,
    Empirical,
    Exponential,
    FailureDistribution,
    Gamma,
    LogNormal,
    Mixture,
    Weibull,
)
from .rng import RngFactory
from .results import DesResult, MonteCarloSummary
from .des import DesConfig, run_des, run_des_batch
from .renewal import RenewalConfig, run_renewal, run_renewal_batch
from .riskmc import RiskMcConfig, run_risk_mc
from .campaign import CampaignCell, CampaignConfig
from .adaptive import (
    AdaptiveCI,
    FixedReplicas,
    ReplicaController,
    WilsonSuccessRate,
)
from .backends import CampaignBackend, ProcessPoolBackend, SerialBackend
from .sinks import FramedJsonlSink, OrderedJsonlSink, ResultSink
from .spec import Campaign, CampaignSpec, ExecutionPolicy
from .events import (
    CampaignFinished,
    CampaignProgress,
    CampaignStarted,
    CellFinished,
    EventBus,
    EventConsumer,
    ProgressTracker,
)
from .executor import (
    CampaignExecution,
    CampaignSession,
    ExecutionReport,
    execute_spec,
)

__all__ = [
    "FailureDistribution",
    "Exponential",
    "Weibull",
    "LogNormal",
    "Gamma",
    "Deterministic",
    "Empirical",
    "Mixture",
    "RngFactory",
    "DesResult",
    "MonteCarloSummary",
    "DesConfig",
    "run_des",
    "run_des_batch",
    "RenewalConfig",
    "run_renewal",
    "run_renewal_batch",
    "RiskMcConfig",
    "run_risk_mc",
    "CampaignConfig",
    "CampaignCell",
    "CampaignSpec",
    "ExecutionPolicy",
    "Campaign",
    "ReplicaController",
    "FixedReplicas",
    "AdaptiveCI",
    "WilsonSuccessRate",
    "CampaignBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ResultSink",
    "OrderedJsonlSink",
    "FramedJsonlSink",
    "CampaignExecution",
    "CampaignSession",
    "ExecutionReport",
    "execute_spec",
    "EventBus",
    "EventConsumer",
    "CampaignStarted",
    "CellFinished",
    "CampaignProgress",
    "CampaignFinished",
    "ProgressTracker",
]
