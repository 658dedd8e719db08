"""Protocol specs vs the paper's printed formulas (Eqs. 7, 8, 14)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    DOUBLE_BLOCKING,
    DOUBLE_BOF,
    DOUBLE_NBL,
    TRIPLE,
    TRIPLE_BOF,
    PROTOCOLS,
    Parameters,
    get_protocol,
)
from repro.core.protocols import PhaseKind
from repro.errors import ParameterError
from tests.conftest import ALL_PROTOCOLS


@pytest.fixture
def params() -> Parameters:
    return Parameters(D=0, delta=2, R=4, alpha=10, M=25200, n=10368)


@pytest.fixture
def exa() -> Parameters:
    return Parameters(D=60, delta=30, R=60, alpha=10, M=25200, n=10**6)


class TestRegistry:
    def test_all_registered(self):
        assert set(PROTOCOLS) == {
            "double-blocking", "double-nbl", "double-bof", "triple", "triple-bof",
        }

    def test_lookup_by_key_and_instance(self):
        assert get_protocol("triple") is TRIPLE
        assert get_protocol(TRIPLE) is TRIPLE

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            get_protocol("quadruple")

    def test_group_sizes(self):
        assert DOUBLE_NBL.group_size == 2
        assert DOUBLE_BOF.group_size == 2
        assert DOUBLE_BLOCKING.group_size == 2
        assert TRIPLE.group_size == 3
        assert TRIPLE_BOF.group_size == 3


class TestLostTimeFormulas:
    """F = A + P/2 against Eqs. (7), (8), (14)."""

    def test_eq7_double_nbl(self, params):
        phi, P = 1.0, 300.0
        theta = 4 + 10 * (4 - phi)
        expected = params.D + params.R + theta + P / 2
        got = float(np.asarray(DOUBLE_NBL.expected_lost_time(params, phi, P)))
        assert got == pytest.approx(expected)

    def test_eq8_double_bof(self, params):
        phi, P = 1.0, 300.0
        f_nbl = float(np.asarray(DOUBLE_NBL.expected_lost_time(params, phi, P)))
        f_bof = float(np.asarray(DOUBLE_BOF.expected_lost_time(params, phi, P)))
        assert f_bof == pytest.approx(f_nbl + params.R - phi)

    def test_eq14_triple_equals_nbl(self, params):
        # F_tri = F_nbl = D + R + θ + P/2 (§V-A observation).
        phi, P = 1.0, 300.0
        f_nbl = float(np.asarray(DOUBLE_NBL.expected_lost_time(params, phi, P)))
        f_tri = float(np.asarray(TRIPLE.expected_lost_time(params, phi, P)))
        assert f_tri == pytest.approx(f_nbl)

    def test_blocking_double_pins_phi(self, params):
        # F for the original blocking algorithm: D + 2R + P/2.
        P = 300.0
        got = float(np.asarray(DOUBLE_BLOCKING.expected_lost_time(params, 0.0, P)))
        assert got == pytest.approx(params.D + 2 * params.R + P / 2)


class TestReExpectationConsistency:
    """F = recovery + Σ (l_i/P)·RE_i must reproduce A + P/2 exactly."""

    @pytest.mark.parametrize("spec", ALL_PROTOCOLS, ids=lambda s: s.key)
    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("P", [120.0, 300.0, 1000.0])
    def test_weighted_re_equals_f(self, spec, phi, P, params):
        lengths = [float(np.asarray(x)) for x in spec.phase_lengths(params, phi, P)]
        if lengths[2] < 0:
            pytest.skip("period below minimum for this phi")
        res = spec.re_expectations(params, phi, P)
        recovery = float(np.asarray(spec.recovery_constant(params, phi)))
        f_weighted = recovery + sum(
            (l / P) * float(np.asarray(re)) for l, re in zip(lengths, res)
        )
        f_formula = float(np.asarray(spec.expected_lost_time(params, phi, P)))
        if spec.blocking_on_failure and spec.group_size == 3 and phi > 0:
            # TRIPLE-BOF's RE clamp at 0 may bite at extreme phi.
            assert f_weighted == pytest.approx(f_formula, rel=0.05)
        else:
            assert f_weighted == pytest.approx(f_formula, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_PROTOCOLS, ids=lambda s: s.key)
    def test_re_time_expectation_matches_re_expectations(self, spec, params):
        """Uniform-offset average of re_time == RE_i (numerical quadrature)."""
        phi, P = 1.0, 400.0
        lengths = [float(np.asarray(x)) for x in spec.phase_lengths(params, phi, P)]
        res = spec.re_expectations(params, phi, P)
        for phase, (length, re_expected) in enumerate(zip(lengths, res)):
            if length <= 0:
                continue
            offsets = np.linspace(0, length, 20001)[:-1] + length / 40000
            mean_re = float(
                np.mean(np.asarray(spec.re_time(params, phi, P, phase, offsets)))
            )
            assert mean_re == pytest.approx(float(np.asarray(re_expected)), rel=1e-6)

    def test_re_time_rejects_bad_phase(self, params):
        with pytest.raises(ParameterError):
            DOUBLE_NBL.re_time(params, 1.0, 300.0, 3, 0.0)


class TestPhaseStructure:
    def test_double_phases(self, params):
        kinds = DOUBLE_NBL.phase_kinds()
        assert kinds == (
            PhaseKind.LOCAL_CHECKPOINT, PhaseKind.EXCHANGE, PhaseKind.COMPUTE,
        )
        l1, l2, sigma = DOUBLE_NBL.phase_lengths(params, 1.0, 300.0)
        assert float(l1) == pytest.approx(2.0)  # δ
        assert float(l2) == pytest.approx(34.0)  # θ(1) = 4 + 30
        assert float(sigma) == pytest.approx(300.0 - 2.0 - 34.0)

    def test_triple_phases(self, params):
        kinds = TRIPLE.phase_kinds()
        assert kinds == (PhaseKind.EXCHANGE, PhaseKind.EXCHANGE, PhaseKind.COMPUTE)
        l1, l2, sigma = TRIPLE.phase_lengths(params, 1.0, 300.0)
        assert float(l1) == float(l2) == pytest.approx(34.0)
        assert float(sigma) == pytest.approx(300.0 - 68.0)

    def test_work_per_period(self, params):
        # W = P − δ − φ (doubles), P − 2φ (triple).
        assert float(np.asarray(
            DOUBLE_NBL.work_per_period(params, 1.0, 300.0))) == pytest.approx(297.0)
        assert float(np.asarray(
            TRIPLE.work_per_period(params, 1.0, 300.0))) == pytest.approx(298.0)

    def test_min_period(self, params):
        assert float(np.asarray(DOUBLE_NBL.min_period(params, 1.0))) == pytest.approx(36.0)
        assert float(np.asarray(TRIPLE.min_period(params, 1.0))) == pytest.approx(68.0)

    def test_commit_phase(self):
        assert DOUBLE_NBL.commit_phase() == 1
        assert DOUBLE_BOF.commit_phase() == 1
        assert TRIPLE.commit_phase() == 0

    def test_blocking_forces_phi(self, params):
        # DOUBLE-BLOCKING ignores the requested phi.
        assert float(np.asarray(DOUBLE_BLOCKING.effective_phi(params, 0.0))) == 4.0
        assert float(np.asarray(DOUBLE_BLOCKING.theta(params, 0.0))) == 4.0


class TestRiskWindows:
    """§III-C / §V-C risk windows."""

    def test_windows_base(self, params):
        phi = 0.0  # θ = 44
        assert float(np.asarray(DOUBLE_NBL.risk_window(params, phi))) == pytest.approx(48.0)
        assert float(np.asarray(DOUBLE_BOF.risk_window(params, phi))) == pytest.approx(8.0)
        assert float(np.asarray(DOUBLE_BLOCKING.risk_window(params, phi))) == pytest.approx(8.0)
        assert float(np.asarray(TRIPLE.risk_window(params, phi))) == pytest.approx(92.0)
        assert float(np.asarray(TRIPLE_BOF.risk_window(params, phi))) == pytest.approx(12.0)

    def test_windows_exa(self, exa):
        phi = 0.0  # θ = 660
        assert float(np.asarray(DOUBLE_NBL.risk_window(exa, phi))) == pytest.approx(780.0)
        assert float(np.asarray(DOUBLE_BOF.risk_window(exa, phi))) == pytest.approx(180.0)
        assert float(np.asarray(TRIPLE.risk_window(exa, phi))) == pytest.approx(1440.0)
        assert float(np.asarray(TRIPLE_BOF.risk_window(exa, phi))) == pytest.approx(240.0)

    @given(phi=st.floats(min_value=0.0, max_value=4.0))
    def test_bof_window_never_longer(self, phi):
        params = Parameters(D=0, delta=2, R=4, alpha=10, M=25200, n=10368)
        w_nbl = float(np.asarray(DOUBLE_NBL.risk_window(params, phi)))
        w_bof = float(np.asarray(DOUBLE_BOF.risk_window(params, phi)))
        assert w_bof <= w_nbl + 1e-12


class TestMemoryClaim:
    def test_all_protocols_hold_two_images(self, any_protocol):
        # §IV: TRIPLE is "equally memory-demanding".
        assert any_protocol.checkpoint_images_held() == 2

    def test_phi_validation(self, params, any_protocol):
        with pytest.raises(ParameterError):
            any_protocol.effective_phi(params, -1.0)
        with pytest.raises(ParameterError):
            any_protocol.effective_phi(params, 5.0)


class TestScalarPhi:
    """A scalar φ is validated once and its value reused; the reused
    values are the array evaluation's, bit for bit."""

    ODD = Parameters(D=1.3, delta=2.7, R=4.1, alpha=7.3, M=10_000, n=6)

    @pytest.mark.parametrize("phi_frac", [0.0, 0.37, 1.0])
    def test_scalar_equals_array_path(self, any_protocol, phi_frac):
        phi = phi_frac * self.ODD.theta_min
        arr = np.array([phi])
        for _ in range(2):  # first call fills the memo, second reads it
            eff = any_protocol.effective_phi(self.ODD, phi)
            assert float(eff) == float(
                any_protocol.effective_phi(self.ODD, arr)[0])
            assert float(any_protocol.theta(self.ODD, phi)) == float(
                any_protocol.theta(self.ODD, arr)[0])
            assert float(any_protocol.risk_window(self.ODD, phi)) == float(
                any_protocol.risk_window(self.ODD, arr)[0])

    def test_int_and_numpy_scalars_share_the_value(self, any_protocol):
        base = any_protocol.effective_phi(self.ODD, 1.0)
        assert any_protocol.effective_phi(self.ODD, 1) == base
        assert any_protocol.effective_phi(self.ODD, np.float64(1.0)) == base
        assert any_protocol.theta(self.ODD, 1) \
            == any_protocol.theta(self.ODD, 1.0)

    def test_values_are_not_shared_across_platforms(self, any_protocol):
        other = Parameters(D=1.3, delta=2.7, R=8.2, alpha=7.3, M=10_000, n=6)
        assert any_protocol.theta(self.ODD, 1.0) \
            != any_protocol.theta(other, 1.0)

    def test_refused_phi_is_refused_every_time(self, any_protocol):
        for _ in range(2):
            with pytest.raises(ParameterError):
                any_protocol.effective_phi(self.ODD, 5.0)
            with pytest.raises(ParameterError):
                any_protocol.theta(self.ODD, -1.0)
