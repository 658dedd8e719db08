"""Simulation campaigns: protocol × parameter sweeps with persistence.

A *campaign* runs a grid of DES configurations — protocols × MTBFs ×
overheads × replicas — collects per-cell summaries, and (optionally)
persists every raw run as JSON Lines via :mod:`repro.io` so expensive
sweeps survive interruption and can be re-analysed offline.

This module defines the campaign *grid* (:class:`CampaignConfig`,
:class:`CampaignCell`, validation).  A grid plus an
:class:`~repro.sim.spec.ExecutionPolicy` forms a
:class:`~repro.sim.spec.CampaignSpec` — the one serializable campaign
description — and :class:`~repro.sim.spec.Campaign` is the public entry
point that runs/resumes/reports it (execution mechanism:
:mod:`repro.sim.executor`; live streaming/polling:
:meth:`~repro.sim.spec.Campaign.session` over the typed event pipeline
in :mod:`repro.sim.events`).  The grid carries no results path: where
one execution lands is an argument to :meth:`~repro.sim.spec.Campaign.run`.

Common-random-numbers support: with ``share_traces=True`` each
(M, replica) cell pre-generates one failure trace and replays it for
*every protocol*, so protocol differences are not drowned in sampling
noise — the standard variance-reduction technique for simulation
comparisons.  The vectorized engine does the same with one sampled
failure stream per (M, replica), of which every cell consumes a prefix
(:mod:`repro.sim.vectorized`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.parameters import Parameters
from ..core.protocols import ProtocolSpec, get_protocol
from ..errors import ParameterError
from .distributions import FailureDistribution
from .results import DesResult, MonteCarloSummary

__all__ = [
    "CampaignConfig",
    "CampaignCell",
    "validate_campaign",
    "cells_table",
]


@dataclass(frozen=True)
class CampaignConfig:
    """A protocol × M × φ sweep of event simulations."""

    protocols: tuple[ProtocolSpec | str, ...]
    base_params: Parameters
    m_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    work_target: float
    replicas: int = 5
    seed: int = 777
    #: Replay one failure trace per (M, replica) across all protocols.
    share_traces: bool = False
    max_time: float | None = None
    #: Node failure law; ``None`` = exponential at the node MTBF ``n·M``.
    distribution: FailureDistribution | None = None

    def __post_init__(self) -> None:
        validate_campaign(self)


def _check_axis(name: str, values: Sequence[float], *, positive: bool) -> None:
    if not values:
        raise ParameterError(f"need at least one {name} value")
    seen: set[float] = set()
    for v in values:
        v = float(v)
        if not math.isfinite(v) or v < 0 or (positive and v == 0):
            bound = "> 0" if positive else ">= 0"
            raise ParameterError(
                f"{name} values must be finite and {bound}, got {v!r}"
            )
        if v in seen:
            raise ParameterError(
                f"duplicate {name} value {v!r}: grid axes must be unique "
                "(duplicates would silently reuse one shared trace and "
                "waste replicas)"
            )
        seen.add(v)


def validate_campaign(config: CampaignConfig) -> None:
    """Reject ill-formed campaign grids with actionable messages.

    Called by :class:`CampaignConfig` on construction *and* by every
    execution entry point, so configs built through other paths (e.g.
    deserialised or duck-typed) fail loudly instead of producing an empty
    or half-meaningless sweep.
    """
    if not config.protocols:
        raise ParameterError("need at least one protocol")
    keys = [get_protocol(spec).key for spec in config.protocols]
    if len(set(keys)) != len(keys):
        raise ParameterError(f"duplicate protocols in campaign: {keys}")
    _check_axis("M", config.m_values, positive=True)
    _check_axis("phi", config.phi_values, positive=False)
    if (not isinstance(config.replicas, numbers.Integral)
            or isinstance(config.replicas, bool) or config.replicas < 1):
        raise ParameterError(
            f"replicas must be an integer >= 1, got {config.replicas!r} "
            "(a campaign with no replicas has no cells to run)"
        )
    if not math.isfinite(config.work_target) or config.work_target <= 0:
        raise ParameterError(
            f"work_target must be finite and > 0, got {config.work_target!r}"
        )
    if (not isinstance(config.seed, numbers.Integral)
            or isinstance(config.seed, bool) or config.seed < 0):
        raise ParameterError(
            f"seed must be a non-negative integer, got {config.seed!r}"
        )
    if config.max_time is not None and (
        not math.isfinite(config.max_time) or config.max_time <= 0
    ):
        raise ParameterError(
            f"max_time must be finite and > 0, got {config.max_time!r}"
        )


@dataclass(frozen=True)
class CampaignCell:
    """Aggregated outcome of one (protocol, M, φ) grid cell."""

    protocol: str
    M: float
    phi: float
    summary: MonteCarloSummary
    results: tuple[DesResult, ...] = field(repr=False, default=())

    @property
    def mean_waste(self) -> float:
        return self.summary.mean

    @property
    def success_rate(self) -> float:
        return self.summary.success_rate


def cells_table(cells: Sequence[CampaignCell]) -> str:
    """Render campaign cells as an ASCII table (CLI/report helper)."""
    from ..experiments import report

    rows = [
        [c.protocol, c.M, c.phi,
         c.mean_waste if np.isfinite(c.mean_waste) else float("nan"),
         c.success_rate]
        for c in cells
    ]
    return report.ascii_table(
        ["protocol", "M", "phi", "mean waste", "success rate"], rows,
        title="=== campaign results ===",
    )
