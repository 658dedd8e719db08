"""SimProtocol adapters: phase plans, rates, recovery parameters."""

from __future__ import annotations

import math

import pytest

from repro import DOUBLE_BLOCKING, DOUBLE_BOF, DOUBLE_NBL, TRIPLE, TRIPLE_BOF, Parameters
from repro.core.protocols import PROTOCOLS
from repro.errors import ParameterError, SimulationError
from repro.sim.protocols.base import PhasePlan
from repro.sim.protocols.buddy import BuddySimProtocol
from repro.sim.protocols.coordinated import CoordinatedSimProtocol
from repro.sim.protocols.none import NoCheckpointSimProtocol

PARAMS = Parameters(D=0, delta=2, R=4, alpha=10, M=10_000, n=4)


class TestBuddyAdapter:
    def test_double_nbl_plan(self):
        proto = BuddySimProtocol(DOUBLE_NBL, PARAMS, phi=1.0, period=100.0)
        plan = proto.phase_plan()
        assert [p.name for p in plan] == ["local-checkpoint", "exchange", "compute"]
        assert [p.length for p in plan] == [2.0, 34.0, 64.0]
        assert plan[0].rate == 0.0
        assert plan[1].rate == pytest.approx(33.0 / 34.0)
        assert plan[2].rate == 1.0

    def test_triple_plan(self):
        proto = BuddySimProtocol(TRIPLE, PARAMS, phi=1.0, period=100.0)
        plan = proto.phase_plan()
        assert [p.name for p in plan] == ["exchange", "exchange", "compute"]
        assert [p.length for p in plan] == [34.0, 34.0, 32.0]

    def test_blocking_double_exchange_rate_zero(self):
        proto = BuddySimProtocol(DOUBLE_BLOCKING, PARAMS, phi=0.0, period=100.0)
        plan = proto.phase_plan()
        assert plan[1].rate == 0.0  # φ pinned to θmin ⇒ no overlap at all
        assert plan[1].length == 4.0

    def test_recovery_and_risk(self):
        nbl = BuddySimProtocol(DOUBLE_NBL, PARAMS, phi=1.0, period=100.0)
        bof = BuddySimProtocol(DOUBLE_BOF, PARAMS, phi=1.0, period=100.0)
        assert nbl.recovery_stall() == pytest.approx(4.0)       # D + R
        assert bof.recovery_stall() == pytest.approx(8.0)       # D + 2R
        assert nbl.risk_duration() == pytest.approx(38.0)       # D + R + θ
        assert bof.risk_duration() == pytest.approx(8.0)        # D + 2R

    def test_re_exec_scalar(self):
        proto = BuddySimProtocol(DOUBLE_NBL, PARAMS, phi=1.0, period=100.0)
        assert proto.re_exec_time(2, 14.0, 0.0) == pytest.approx(48.0)

    def test_rejects_period_below_min(self):
        with pytest.raises(ParameterError):
            BuddySimProtocol(DOUBLE_NBL, PARAMS, phi=1.0, period=20.0)

    def test_group_size_forwarded(self):
        assert BuddySimProtocol(TRIPLE, PARAMS, 1.0, 100.0).group_size == 3


class TestResolvedBuddyModel:
    """The adapter resolves the per-failure model once per cell; every
    value must equal the spec's own (numpy) evaluation exactly."""

    PERIOD = 120.0
    #: Non-round values, so a reordered float expression changes bits.
    ODD = Parameters(D=1.3, delta=2.7, R=4.1, alpha=7.3, M=10_000, n=6)

    @pytest.mark.parametrize("params, period", [(PARAMS, PERIOD), (ODD, 123.456)],
                             ids=["round", "odd"])
    @pytest.mark.parametrize("phi_frac", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("spec", list(PROTOCOLS.values()),
                             ids=list(PROTOCOLS))
    def test_bit_exact_against_spec(self, spec, phi_frac, params, period):
        phi = phi_frac * params.theta_min
        proto = BuddySimProtocol(spec, params, phi=phi, period=period)
        assert proto.commit_phase() == spec.commit_phase()
        assert proto.recovery_stall() == float(spec.recovery_constant(params, phi))
        assert proto.risk_duration() == float(spec.risk_window(params, phi))
        for phase, plan in enumerate(proto.phase_plan()):
            for offset in (0.0, plan.length / 2.0, plan.length):
                expected = float(spec.re_time(params, phi, period, phase, offset))
                assert proto.re_exec_time(phase, offset, 0.0) == expected

    def test_bof_clamp_at_zero(self):
        # TRIPLE-BOF at phi = theta_min: phase 1 re-executes theta + offset
        # minus 2*phi, negative early in the phase, so the clamp applies.
        phi = PARAMS.theta_min
        proto = BuddySimProtocol(TRIPLE_BOF, PARAMS, phi=phi, period=self.PERIOD)
        bases, shift = TRIPLE_BOF.re_terms(PARAMS, phi, self.PERIOD)
        assert float(bases[1]) - float(shift) < 0.0
        assert proto.re_exec_time(1, 0.0, 0.0) == 0.0
        assert float(TRIPLE_BOF.re_time(PARAMS, phi, self.PERIOD, 1, 0.0)) == 0.0


class TestCoordinatedAdapter:
    def test_plan(self):
        proto = CoordinatedSimProtocol(10.0, 5.0, 20.0, 100.0)
        plan = proto.phase_plan()
        assert plan == (
            PhasePlan("global-checkpoint", 10.0, 0.0),
            PhasePlan("compute", 90.0, 1.0),
        )
        assert proto.commit_phase() == 0
        assert proto.recovery_stall() == 25.0
        assert proto.risk_duration() is None

    def test_re_exec(self):
        proto = CoordinatedSimProtocol(10.0, 5.0, 20.0, 100.0)
        assert proto.re_exec_time(1, 30.0, lost_work=30.0) == 30.0
        assert proto.re_exec_time(0, 4.0, lost_work=90.0) == 94.0

    @pytest.mark.parametrize(
        "args",
        [(0.0, 0, 0, 10.0), (10.0, -1, 0, 20.0), (10.0, 0, -1, 20.0), (10.0, 0, 0, 5.0)],
    )
    def test_validation(self, args):
        with pytest.raises(ParameterError):
            CoordinatedSimProtocol(*args)


class TestNoCheckpointAdapter:
    def test_plan(self):
        proto = NoCheckpointSimProtocol(downtime=3.0)
        (phase,) = proto.phase_plan()
        assert math.isinf(phase.length)
        assert phase.rate == 1.0
        assert proto.commit_phase() is None
        assert proto.recovery_stall() == 3.0
        assert proto.risk_duration() is None
        assert proto.re_exec_time(0, 123.0, lost_work=55.0) == 55.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            NoCheckpointSimProtocol(downtime=-1.0)


class TestPhasePlanValidation:
    def test_rejects_negative_length(self):
        with pytest.raises(SimulationError):
            PhasePlan("x", -1.0, 0.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(SimulationError):
            PhasePlan("x", 1.0, 1.5)
