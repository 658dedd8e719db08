"""The paper's evaluation scenarios (Table I) plus derivation helpers.

========  ====  =====  ===========  ====  =====  ========
Scenario  D     δ      φ            R     α      n
========  ====  =====  ===========  ====  =====  ========
Base      0     2 s    0 ≤ φ ≤ 4    4 s   10     324×32
Exa       60 s  30 s   0 ≤ φ ≤ 60   60 s  10     10⁶
========  ====  =====  ===========  ====  =====  ========

*Base* reuses the values of Ni et al. [2]: checkpointing 512 MB to a local
SSD takes ≈2 s, uploading it to the buddy at network speed ≈4 s, and node
allocation time is ignored (D = 0).  *Exa* models the IESP exascale
projection: 10⁶ nodes, 64 GB/core memory, 1 TB/s/node network and
500 Gb/s/node local storage — giving δ = 30 s, R = 60 s, D = 60 s.

A :class:`Scenario` fixes everything except the MTBF ``M`` (which the
figures sweep) and the overhead ``φ`` (a protocol tuning choice), so
``scenario.parameters(M=...)`` is the entry point everywhere.

Beyond the paper's rows, this module also registers **campaign presets**
(:class:`CampaignPreset`, ``CAMPAIGN_PRESETS``): named, fully specified
protocol × M × φ sweeps — exascale-Weibull clustering, minutes-MTBF
churn, slow-storage/large-φ, Weibull wear-out, heterogeneous-MTBF
mixtures — that feed the parallel campaign engine
(``repro.sim.executor``), the ``campaign`` CLI subcommand and the
failure-scenario test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.parameters import Parameters
from ..errors import ParameterError
from ..units import DAY, HOUR, MINUTE, parse_time

__all__ = [
    "Scenario",
    "BASE",
    "EXA",
    "SCENARIOS",
    "get_scenario",
    "CampaignPreset",
    "CAMPAIGN_PRESETS",
    "TRACE_INTERARRIVALS",
    "get_campaign_preset",
]


@dataclass(frozen=True)
class Scenario:
    """A named, fully specified platform configuration (one Table I row)."""

    key: str
    description: str
    D: float
    delta: float
    R: float
    alpha: float
    n: int
    #: Default M-grid for waste surfaces (Figs. 4/7): log-spaced seconds.
    m_grid_bounds: tuple[float, float] = (15.0, DAY)
    #: The fixed MTBF used by the waste-ratio cuts (Figs. 5/8).
    m_ratio_cut: float = 7 * HOUR
    #: (max M [s], max platform life [s]) for risk surfaces (Figs. 6/9).
    risk_grid_bounds: tuple[float, float] = (30 * MINUTE, 30 * DAY)
    #: Extra context recorded in reports.
    notes: dict[str, Any] = field(default_factory=dict)

    def parameters(self, M: float | str, n: int | None = None) -> Parameters:
        """Instantiate model :class:`~repro.core.parameters.Parameters`.

        ``M`` accepts seconds or a human string (``"7h"``).
        """
        return Parameters(
            D=self.D,
            delta=self.delta,
            R=self.R,
            alpha=self.alpha,
            M=parse_time(M),
            n=self.n if n is None else n,
        )

    # ------------------------------------------------------------------
    # Figure grids
    # ------------------------------------------------------------------
    def phi_grid(self, num: int = 41) -> np.ndarray:
        """Overhead grid ``φ ∈ [0, R]`` (x-axis of the waste figures)."""
        if num < 2:
            raise ParameterError("need at least 2 grid points")
        return np.linspace(0.0, self.R, num)

    def m_grid(self, num: int = 49) -> np.ndarray:
        """Log-spaced MTBF grid (seconds) for the waste surfaces."""
        lo, hi = self.m_grid_bounds
        return np.logspace(np.log10(lo), np.log10(hi), num)

    def risk_grids(
        self, num_m: int = 31, num_t: int = 30
    ) -> tuple[np.ndarray, np.ndarray]:
        """(M grid, platform-life grid) in seconds for the risk surfaces.

        The M axis starts strictly above zero (the paper's axes display 0
        but λ diverges there).
        """
        m_max, t_max = self.risk_grid_bounds
        m_grid = np.linspace(m_max / num_m, m_max, num_m)
        t_grid = np.linspace(t_max / num_t, t_max, num_t)
        return m_grid, t_grid

    def table_row(self) -> dict[str, Any]:
        """The scenario as a Table I row (for the table1 experiment)."""
        return {
            "Scenario": self.key,
            "D": self.D,
            "delta": self.delta,
            "phi": f"0 <= phi <= {self.R:g}",
            "R": self.R,
            "alpha": self.alpha,
            "n": self.n,
        }


#: The Base scenario of §VI-A (values from Ni et al. [2]).
BASE = Scenario(
    key="base",
    description=(
        "Cluster scenario of Ni et al. [2]: 512MB checkpoints, SSD local "
        "writes (2s), buddy upload 4s, no allocation downtime"
    ),
    D=0.0,
    delta=2.0,
    R=4.0,
    alpha=10.0,
    n=324 * 32,
    m_grid_bounds=(15.0, DAY),
    m_ratio_cut=7 * HOUR,
    risk_grid_bounds=(30 * MINUTE, 30 * DAY),
    notes={
        "checkpoint_size": "512MB",
        "source": "Ni, Meneses, Kale, Cluster'12",
    },
)

#: The Exa scenario of §VI-B (IESP exascale projection [3,4]).
EXA = Scenario(
    key="exa",
    description=(
        "IESP 'slim' exascale projection: 1e6 nodes, 1000 cores/node, "
        "64GB/core, 1TB/s/node network, 500Gb/s/node local storage"
    ),
    D=60.0,
    delta=30.0,
    R=60.0,
    alpha=10.0,
    n=10**6,
    m_grid_bounds=(15.0, DAY),
    m_ratio_cut=7 * HOUR,
    risk_grid_bounds=(60 * MINUTE, 60 * 7 * DAY),
    notes={"source": "IESP roadmap [3,4]"},
)

#: Registry of the paper's scenarios by key.
SCENARIOS: dict[str, Scenario] = {s.key: s for s in (BASE, EXA)}


def get_scenario(key: str | Scenario) -> Scenario:
    """Look up a scenario by key (idempotent on instances)."""
    if isinstance(key, Scenario):
        return key
    try:
        return SCENARIOS[key]
    except KeyError:
        raise ParameterError(
            f"unknown scenario {key!r}; known: {sorted(SCENARIOS)}"
        ) from None


# ======================================================================
# Campaign presets
# ======================================================================
@dataclass(frozen=True)
class CampaignPreset:
    """A named, ready-to-run campaign workload.

    Where a :class:`Scenario` is one of the paper's Table I platform rows,
    a preset is a complete *sweep*: platform parameters (possibly stressed
    away from the paper's values), a protocol set, the M × φ grid, the
    workload size, and optionally a non-exponential failure law.  Presets
    feed the parallel campaign engine (``repro.sim.executor``) via
    :meth:`campaign_config` and the ``campaign`` CLI subcommand, and the
    failure-scenario test suite parametrises over all of them.

    ``distribution`` carries only the *shape* of the failure law — its mean
    is rescaled to each grid cell's node MTBF ``n·M`` by the injector.
    """

    key: str
    description: str
    scenario: str
    protocols: tuple[str, ...]
    m_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    work_target: float
    #: Simulated node count (DES-practical; replaces the scenario's n).
    n: int
    replicas: int = 4
    share_traces: bool = True
    #: Platform parameter overrides applied on top of the scenario.
    param_overrides: dict[str, float] = field(default_factory=dict)
    #: Failure-law shape ("weibull:k" style spec), None = exponential.
    failure_law: str | None = None

    def parameters(self) -> Parameters:
        """Platform parameters at the first grid MTBF."""
        base = get_scenario(self.scenario).parameters(
            M=self.m_values[0], n=self.n
        )
        return base.with_updates(**self.param_overrides) if self.param_overrides else base

    def distribution(self):
        """Instantiate the failure law (None ⇒ exponential default).

        Three spec grammars are understood:

        * ``"<kind>:<shape>"`` — a shaped law (``"weibull:0.7"``,
          ``"lognormal:1.5"``, ``"gamma:2"``);
        * ``"hyperexp:<w>@<m>,<w>@<m>,..."`` — a mixture of exponentials
          with weights ``w`` and *relative* means ``m`` (heterogeneous-
          MTBF platform; the injector rescales the overall mean per cell,
          so only the ratios of the ``m`` matter);
        * ``"empirical:<t>,<t>,..."`` — bootstrap resampling of recorded
          inter-arrival times ``t`` (trace bootstrap; again only the
          *relative* spacings matter, since the injector rescales the
          mean to each grid cell's node MTBF).
        """
        if self.failure_law is None:
            return None
        from ..sim.distributions import (
            Empirical, Exponential, Gamma, LogNormal, Mixture, Weibull,
        )

        kind, _, arg = self.failure_law.partition(":")
        if kind == "empirical":
            try:
                times = [float(tok) for tok in arg.split(",") if tok.strip()]
            except ValueError:
                raise ParameterError(
                    f"failure_law {self.failure_law!r}: expected "
                    "'empirical:<t>,<t>,...' with numeric inter-arrival "
                    "times"
                ) from None
            # Empirical validates count/positivity; rescaled per cell.
            return Empirical(times)
        if kind == "hyperexp":
            pairs: list[tuple[float, float]] = []
            for token in arg.split(","):
                weight, sep, rel_mean = token.partition("@")
                try:
                    if not sep:
                        raise ValueError
                    pairs.append((float(weight), float(rel_mean)))
                except ValueError:
                    raise ParameterError(
                        f"failure_law {self.failure_law!r}: expected "
                        "'hyperexp:<weight>@<mean>,<weight>@<mean>,...' "
                        f"with numeric entries, got {token!r}"
                    ) from None
            # Mixture validates counts/positivity; rescaled to n·M per cell.
            return Mixture(
                [Exponential(mean) for _, mean in pairs],
                [weight for weight, _ in pairs],
            )
        laws = {"weibull": Weibull, "lognormal": LogNormal, "gamma": Gamma}
        if kind not in laws:
            raise ParameterError(
                f"unknown failure law {kind!r}; known: "
                f"{sorted(laws) + ['empirical', 'hyperexp']}"
            )
        try:
            shape = float(arg)
        except ValueError:
            raise ParameterError(
                f"failure_law {self.failure_law!r}: expected "
                f"'{kind}:<shape>' with a numeric shape, got {arg!r}"
            ) from None
        # Mean 1.0 is a placeholder: the injector rescales to n·M per cell.
        return laws[kind](1.0, shape)

    def campaign_config(self, **overrides: Any):
        """Build the :class:`repro.sim.campaign.CampaignConfig`.

        Keyword overrides replace any config field (``replicas=2``, a
        trimmed ``m_values`` for quick tests...).
        """
        from ..sim.campaign import CampaignConfig

        fields: dict[str, Any] = dict(
            protocols=self.protocols,
            base_params=self.parameters(),
            m_values=self.m_values,
            phi_values=self.phi_values,
            work_target=self.work_target,
            replicas=self.replicas,
            share_traces=self.share_traces,
            distribution=self.distribution(),
        )
        fields.update(overrides)
        return CampaignConfig(**fields)

    def spec(self, *, policy=None, **overrides: Any):
        """The preset as a :class:`~repro.sim.spec.CampaignSpec`.

        This is how presets are *named specs*: ``Campaign("smoke")``
        resolves here, and ``preset.spec().save(path)`` freezes the
        workload into a JSON file loadable by ``campaign --spec FILE``.
        ``policy`` supplies a non-default
        :class:`~repro.sim.spec.ExecutionPolicy`; grid ``overrides`` pass
        through to :meth:`campaign_config` (the results path is not a
        grid field — a spec describes the campaign, not one execution of
        it).
        """
        from ..sim.spec import CampaignSpec, ExecutionPolicy

        return CampaignSpec(
            grid=self.campaign_config(**overrides),
            policy=policy or ExecutionPolicy(),
        )


#: Exascale platform under a Weibull infant-mortality law (shape 0.7):
#: failures cluster, stressing the risk-window logic the paper's
#: exponential analysis cannot see.  DES-practical 240-node scale
#: (divisible by both buddy-group sizes).
EXA_WEIBULL = CampaignPreset(
    key="exa-weibull",
    description=(
        "Exa platform parameters at 240-node DES scale with Weibull "
        "k=0.7 (infant-mortality) failures - clustered-failure stress"
    ),
    scenario="exa",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(1800.0, 3600.0, 7200.0),
    phi_values=(15.0, 30.0, 60.0),
    work_target=3600.0,
    n=240,
    failure_law="weibull:0.7",
)

#: Small MTBF relative to the workload: every run sees many failures and
#: rollbacks, exercising recovery paths and fatal-failure accounting.
HIGH_CHURN = CampaignPreset(
    key="high-churn",
    description=(
        "Base platform at MTBFs of minutes: failure-dominated regime "
        "with frequent rollbacks and non-trivial fatal-failure rates"
    ),
    scenario="base",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(120.0, 300.0, 600.0),
    phi_values=(0.5, 2.0),
    work_target=1800.0,
    n=24,
)

#: Slow remote storage: δ and R inflated 4-7x over Base, swept up to the
#: largest sensible overhead φ = R (the large-φ corner of Figs. 4/5).
SLOW_STORAGE = CampaignPreset(
    key="slow-storage",
    description=(
        "Base platform with slow storage (delta=8s, R=30s) swept to "
        "phi=R - the large-overhead corner of the waste surfaces"
    ),
    scenario="base",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(900.0, 1800.0, 3600.0),
    phi_values=(7.5, 15.0, 30.0),
    work_target=3600.0,
    n=36,
    param_overrides={"delta": 8.0, "R": 30.0},
)

#: Weibull wear-out (k>1): an *increasing* hazard — the longer a node has
#: run since its last replacement, the likelier it fails.  Arrivals are
#: more regular than Poisson (CV < 1), the opposite stress to
#: ``exa-weibull``'s clustering, probing whether the paper's
#: exponential-based period tuning stays near-optimal under ageing fleets.
WEIBULL_WEAROUT = CampaignPreset(
    key="weibull-wearout",
    description=(
        "Base platform under Weibull k=2 (wear-out) failures - "
        "regular, ageing-driven arrivals (CV<1) instead of Poisson"
    ),
    scenario="base",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(600.0, 1800.0, 3600.0),
    phi_values=(1.0, 2.0),
    work_target=3600.0,
    n=24,
    failure_law="weibull:2.0",
)

#: Heterogeneous-MTBF platform: 20 % of failure draws come from a fragile
#: sub-population at a quarter of the average node MTBF (hyperexponential
#: mixture, CV > 1).  The platform MTBF the model sees is unchanged, but
#: failures concentrate — the regime where buddy protocols lose multiple
#: replicas of the same group in quick succession.
HETERO_MTBF = CampaignPreset(
    key="hetero-mtbf",
    description=(
        "Base platform with a heterogeneous-MTBF failure law: 20% of "
        "failure draws from a fragile sub-population at 1/4 the average "
        "MTBF (hyperexponential mixture, CV>1)"
    ),
    scenario="base",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(600.0, 1800.0, 3600.0),
    phi_values=(1.0, 2.0),
    work_target=3600.0,
    n=24,
    failure_law="hyperexp:0.2@0.25,0.8@1.1875",
)

#: A recorded failure trace's inter-arrival times, normalised to mean ≈ 1
#: (the injector rescales to each grid cell's node MTBF, so only the
#: relative spacings matter).  The shape is the standard HPC-log picture
#: the Weibull/lognormal fits in [8]–[11] approximate: bursts of short
#: gaps (cascading node failures after a shared-cause event) separated by
#: long quiet stretches — over-dispersed (CV > 1) like ``hetero-mtbf``,
#: but with the lumpy, multi-modal spacing no parametric law reproduces.
#: A literal tuple, not a seeded sample: presets must fingerprint
#: identically on every platform and numpy version.
TRACE_INTERARRIVALS: tuple[float, ...] = (
    0.04, 0.07, 0.05, 0.11, 0.09, 0.06, 0.13, 0.08, 2.9, 0.12, 0.05,
    0.1, 0.07, 0.15, 3.6, 0.09, 0.11, 0.06, 0.14, 0.08, 4.8, 0.1,
    0.05, 0.12, 0.07, 2.2, 0.13, 0.09, 0.06, 0.16, 5.4, 0.11, 0.08,
    0.1, 0.07, 3.1, 0.12, 0.09, 0.14, 0.06, 6.2, 0.1, 0.08, 0.11,
    2.7, 0.13, 0.07, 0.09,
)

#: Trace bootstrap: failures drawn by resampling the recorded
#: inter-arrival times above (``Empirical`` law) instead of any fitted
#: parametric shape — the distribution-free check that the paper's
#: period tuning survives *real* clustering, not just the Weibull/
#: hyperexponential idealisations of it.
TRACE_BOOTSTRAP = CampaignPreset(
    key="trace-bootstrap",
    description=(
        "Base platform replaying a recorded failure trace's shape via "
        "bootstrap resampling (Empirical law, bursty CV>1) - the "
        "distribution-free stress no parametric fit reproduces"
    ),
    scenario="base",
    protocols=("double-nbl", "double-bof", "triple"),
    m_values=(600.0, 1800.0, 3600.0),
    phi_values=(1.0, 2.0),
    work_target=3600.0,
    n=24,
    failure_law="empirical:" + ",".join(f"{t:g}" for t in TRACE_INTERARRIVALS),
)

#: Sub-second end-to-end grid: 2 protocols × 2 MTBFs × 1 φ at 12 nodes.
#: Exists so every execution path — serial, process pools, both sinks,
#: and multi-machine queues — has a named workload cheap enough for CI
#: smoke tests, demos, and "is my queue directory wired up?" checks.
SMOKE = CampaignPreset(
    key="smoke",
    description=(
        "Tiny base-platform grid (2 protocols x 2 MTBFs, 12 nodes, "
        "15min workload) - sub-second end-to-end smoke of the campaign "
        "engine and the distributed queue"
    ),
    scenario="base",
    protocols=("double-nbl", "triple"),
    m_values=(300.0, 600.0),
    phi_values=(1.0,),
    work_target=900.0,
    n=12,
    replicas=2,
)

#: Registry of named campaign workloads by key.
CAMPAIGN_PRESETS: dict[str, CampaignPreset] = {
    p.key: p for p in (
        EXA_WEIBULL, HIGH_CHURN, SLOW_STORAGE, WEIBULL_WEAROUT,
        HETERO_MTBF, TRACE_BOOTSTRAP, SMOKE,
    )
}


def get_campaign_preset(key: str | CampaignPreset) -> CampaignPreset:
    """Look up a campaign preset by key (idempotent on instances)."""
    if isinstance(key, CampaignPreset):
        return key
    try:
        return CAMPAIGN_PRESETS[key]
    except KeyError:
        raise ParameterError(
            f"unknown campaign preset {key!r}; known: "
            f"{sorted(CAMPAIGN_PRESETS)}"
        ) from None
