"""Validated parameter bundles for the unified model.

:class:`Parameters` collects every quantity of the paper's model (§II–§III
notation):

========  =============================================================
``D``     downtime: detect failure + allocate a replacement node [s]
``delta`` local checkpoint duration ``δ`` (blocking) [s]
``R``     blocking remote transfer time, ``R = θmin`` [s]
``alpha`` overlap speedup factor ``α`` (dimensionless)
``M``     platform MTBF [s]
``n``     number of platform nodes (for risk assessment)
========  =============================================================

The *choice* variables — the overhead ``φ`` (equivalently the window ``θ``)
and the period ``P`` — are **not** part of :class:`Parameters`; they are
passed to the evaluation functions, because sweeps vary them while the
platform stays fixed.

Construction accepts human-readable strings anywhere a duration is expected
(``Parameters(D=0, delta="2s", R="4s", alpha=10, M="7h", n=10368)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import ParameterError
from ..units import parse_time
from .overlap import OverlapModel

__all__ = ["Parameters"]


def _duration(name: str, value: Any, *, positive: bool = False) -> float:
    try:
        seconds = parse_time(value)
    except Exception as exc:  # UnitParseError or TypeError
        raise ParameterError(f"{name}: {exc}") from exc
    if positive and seconds <= 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return seconds


@dataclass(frozen=True)
class Parameters:
    """Platform/protocol parameter set (see module docstring).

    Instances are immutable; derive variants with :meth:`with_updates`.
    """

    D: float
    delta: float
    R: float
    alpha: float
    M: float
    n: int = 2

    #: Cached overlap model; built in ``__post_init__``.
    overlap: OverlapModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", _duration("D", self.D))
        object.__setattr__(self, "delta", _duration("delta", self.delta))
        object.__setattr__(self, "R", _duration("R", self.R, positive=True))
        if not isinstance(self.alpha, (int, float)) or isinstance(self.alpha, bool):
            raise ParameterError(f"alpha must be a number, got {self.alpha!r}")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha!r}")
        object.__setattr__(self, "M", _duration("M", self.M, positive=True))
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "overlap", OverlapModel(self.R, float(self.alpha)))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def theta_min(self) -> float:
        """Minimum exchange window; identical to ``R`` in the paper."""
        return self.R

    @property
    def theta_max(self) -> float:
        """Exchange window beyond which the transfer is fully hidden."""
        return self.overlap.theta_max

    @property
    def lam(self) -> float:
        """Instantaneous per-node failure rate ``λ = 1/(n·M)`` (§III-C)."""
        return 1.0 / (self.n * self.M)

    @property
    def node_mtbf(self) -> float:
        """Individual node MTBF ``M_ind = n·M``."""
        return self.n * self.M

    def theta(self, phi) -> Any:
        """Exchange window for overhead ``φ`` (delegates to the overlap model)."""
        return self.overlap.theta_of_phi(phi)

    def phi_for_theta(self, theta) -> Any:
        """Overhead for a chosen window ``θ`` (inverse of :meth:`theta`)."""
        return self.overlap.phi_of_theta(theta)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_updates(self, **changes: Any) -> "Parameters":
        """Return a copy with the given fields replaced.

        >>> base.with_updates(M="1h", n=1024)   # doctest: +SKIP
        """
        allowed = {"D", "delta", "R", "alpha", "M", "n"}
        unknown = set(changes) - allowed
        if unknown:
            raise ParameterError(f"unknown parameter(s): {sorted(unknown)}")
        if changes.keys() != {"M"}:
            return replace(self, **changes)
        # A per-cell M update: every other field is already normalised,
        # so only M is checked (exactly as the constructor checks it).
        updated = object.__new__(type(self))
        updated.__dict__.update(
            self.__dict__, M=_duration("M", changes["M"], positive=True))
        return updated

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Parameters":
        """Build from a plain dict (e.g. parsed from JSON/CLI)."""
        allowed = {"D", "delta", "R", "alpha", "M", "n"}
        unknown = set(mapping) - allowed
        if unknown:
            raise ParameterError(f"unknown parameter(s): {sorted(unknown)}")
        missing = {"D", "delta", "R", "alpha", "M"} - set(mapping)
        if missing:
            raise ParameterError(f"missing parameter(s): {sorted(missing)}")
        return cls(**dict(mapping))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        return {
            "D": self.D,
            "delta": self.delta,
            "R": self.R,
            "alpha": self.alpha,
            "M": self.M,
            "n": self.n,
        }

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human summary used by reports and the CLI."""
        return (
            f"D={self.D:g}s delta={self.delta:g}s R={self.R:g}s "
            f"alpha={self.alpha:g} M={self.M:g}s n={self.n}"
        )
