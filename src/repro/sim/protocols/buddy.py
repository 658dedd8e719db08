"""Adapter: run a :class:`~repro.core.protocols.ProtocolSpec` on the DES.

Turns the analytical spec (double/triple, blocking/NBL/BOF) into the
:class:`~repro.sim.protocols.base.SimProtocol` the platform machine
executes.  This is the *only* bridge between the model and the simulator,
so their agreement (checked by the validation experiments) genuinely tests
the formulas' derivations — phase structure, overlap slowdown, commit
points, recovery stalls and risk windows are all resolved here from the
spec, at scalar values of ``(φ, P)``.
"""

from __future__ import annotations

import numpy as np

from ...core.parameters import Parameters
from ...core.protocols import PhaseKind, ProtocolSpec, get_protocol
from ...errors import ParameterError
from .base import PhasePlan, SimProtocol

__all__ = ["BuddySimProtocol"]


class BuddySimProtocol(SimProtocol):
    """One (spec, params, φ, P) configuration ready for event simulation."""

    def __init__(
        self,
        spec: ProtocolSpec | str,
        params: Parameters,
        phi: float,
        period: float,
    ):
        spec = get_protocol(spec)
        self.spec = spec
        self.params = params
        self.key = spec.key
        self.group_size = spec.group_size
        self.phi = float(np.asarray(spec.effective_phi(params, phi)))
        self.period = float(period)
        p_min = float(np.asarray(spec.min_period(params, phi)))
        if self.period < p_min - 1e-9:
            raise ParameterError(
                f"period {period} below minimum {p_min} for {spec.key}"
            )
        self.theta = float(np.asarray(spec.theta(params, phi)))
        lengths = spec.phase_lengths(params, phi, self.period)
        self._lengths = tuple(float(np.asarray(x)) for x in lengths)
        self._plan = tuple(
            PhasePlan(kind.value, length, self._rate_for(kind))
            for kind, length in zip(spec.phase_kinds(), self._lengths)
        )
        # The per-failure model, resolved once: every event then costs an
        # attribute read (plus one add and one max for re-execution).
        self._commit_phase = spec.commit_phase()
        self._stall = float(np.asarray(spec.recovery_constant(params, self.phi)))
        self._risk = float(np.asarray(spec.risk_window(params, self.phi)))
        bases, shift = spec.re_terms(params, self.phi, self.period)
        self._re_bases = tuple(float(np.asarray(b)) for b in bases)
        self._re_shift = float(np.asarray(shift))

    def _rate_for(self, kind: PhaseKind) -> float:
        if kind is PhaseKind.LOCAL_CHECKPOINT:
            return 0.0
        if kind is PhaseKind.EXCHANGE:
            return (self.theta - self.phi) / self.theta
        return 1.0

    # ------------------------------------------------------------------
    def phase_plan(self) -> tuple[PhasePlan, ...]:
        return self._plan

    def commit_phase(self) -> int | None:
        return self._commit_phase

    def recovery_stall(self) -> float:
        return self._stall

    def risk_duration(self) -> float | None:
        return self._risk

    def re_exec_time(self, phase: int, offset: float, lost_work: float) -> float:
        # Same evaluation order as ProtocolSpec.re_time, so bit-identical.
        return max(self._re_bases[phase] + offset - self._re_shift, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BuddySimProtocol({self.key}, phi={self.phi:g}, "
            f"P={self.period:g}, theta={self.theta:g})"
        )
