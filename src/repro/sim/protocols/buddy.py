"""Adapter: run a :class:`~repro.core.protocols.ProtocolSpec` on the DES.

Turns the analytical spec (double/triple, blocking/NBL/BOF) into the
:class:`~repro.sim.protocols.base.SimProtocol` the platform machine
executes.  This is the *only* bridge between the model and the simulator,
so their agreement (checked by the validation experiments) genuinely tests
the formulas' derivations — phase structure, overlap slowdown, commit
points, recovery stalls and risk windows are all resolved here from the
spec, at scalar values of ``(φ, P)``.

The same resolved cell model drives the vectorized campaign engine and
the renewal Monte Carlo (:func:`repro.sim.renewal.failure_blocks`), so
every engine reads one set of per-cell floats.
"""

from __future__ import annotations

import numpy as np

from ...core.parameters import Parameters
from ...core.protocols import PhaseKind, ProtocolSpec, get_protocol
from ...errors import ParameterError
from .base import PhasePlan, SimProtocol

__all__ = ["BuddySimProtocol"]


class BuddySimProtocol(SimProtocol):
    """One (spec, params, φ, P) cell's model, resolved once and frozen.

    Every per-cell constant of the paper's model is evaluated once, at
    scalar ``(φ, P)``, into a read-only float: ``period``, ``phi`` (the
    effective overhead), ``theta``, the phase ``lengths``, the recovery
    ``stall``, the ``risk`` window, the re-execution terms ``re_bases``
    and ``re_shift`` (:meth:`~repro.core.protocols.ProtocolSpec.re_terms`)
    and ``work_per_period``.  Each equals the spec's own evaluation
    bit for bit.
    """

    def __init__(
        self,
        spec: ProtocolSpec | str,
        params: Parameters,
        phi: float,
        period: float,
    ):
        spec = get_protocol(spec)
        eff_phi = float(np.asarray(spec.effective_phi(params, phi)))
        period = float(period)
        p_min = float(np.asarray(spec.min_period(params, phi)))
        if period < p_min - 1e-9:
            raise ParameterError(
                f"period {period} below minimum {p_min} for {spec.key}"
            )
        theta = float(np.asarray(spec.theta(params, phi)))
        lengths = tuple(float(np.asarray(x))
                        for x in spec.phase_lengths(params, phi, period))
        bases, shift = spec.re_terms(params, eff_phi, period)
        rates = {PhaseKind.LOCAL_CHECKPOINT: 0.0,
                 PhaseKind.EXCHANGE: (theta - eff_phi) / theta}
        vars(self).update(
            spec=spec,
            params=params,
            key=spec.key,
            group_size=spec.group_size,
            phi=eff_phi,
            period=period,
            theta=theta,
            lengths=lengths,
            stall=float(np.asarray(spec.recovery_constant(params, eff_phi))),
            risk=float(np.asarray(spec.risk_window(params, eff_phi))),
            re_bases=tuple(float(np.asarray(b)) for b in bases),
            re_shift=float(np.asarray(shift)),
            work_per_period=float(np.asarray(
                spec.work_per_period(params, phi, period))),
            _commit_phase=spec.commit_phase(),
            _plan=tuple(
                PhasePlan(kind.value, length, rates.get(kind, 1.0))
                for kind, length in zip(spec.phase_kinds(), lengths)
            ),
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen")

    # ------------------------------------------------------------------
    def phase_plan(self) -> tuple[PhasePlan, ...]:
        return self._plan

    def commit_phase(self) -> int | None:
        return self._commit_phase

    def recovery_stall(self) -> float:
        return self.stall

    def risk_duration(self) -> float | None:
        return self.risk

    def re_exec_time(self, phase: int, offset: float, lost_work: float) -> float:
        # Same evaluation order as ProtocolSpec.re_time, so bit-identical.
        return max(self.re_bases[phase] + offset - self.re_shift, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BuddySimProtocol({self.key}, phi={self.phi:g}, "
            f"P={self.period:g}, theta={self.theta:g})"
        )
