"""Renewal Monte Carlo vs the expected-lost-time formulas (Eqs. 7/8/14)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import DOUBLE_BLOCKING, DOUBLE_BOF, DOUBLE_NBL, TRIPLE, scenarios
from repro.core.period import optimal_period
from repro.errors import InfeasibleModelError, ParameterError
from repro.sim.renewal import (
    RenewalConfig,
    mean_block_samples,
    run_renewal,
    run_renewal_batch,
)
from tests.conftest import ALL_PROTOCOLS


@pytest.fixture
def params():
    return scenarios.BASE.parameters(M=600.0)


class TestMechanics:
    def test_reproducible(self, params):
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=params, phi=1.0,
                            n_periods=5000, seed=1)
        assert run_renewal(cfg).waste == run_renewal(cfg).waste

    def test_default_period_is_optimal(self, params):
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=params, phi=1.0,
                            n_periods=100, seed=1)
        r = run_renewal(cfg)
        assert r.period == pytest.approx(optimal_period(DOUBLE_NBL, params, 1.0))

    def test_infeasible_raises(self):
        params = scenarios.BASE.parameters(M=15.0)
        with pytest.raises(InfeasibleModelError):
            run_renewal(RenewalConfig(protocol=DOUBLE_NBL, params=params,
                                      phi=0.0, n_periods=100))

    def test_period_below_min_rejected(self, params):
        with pytest.raises(ParameterError):
            run_renewal(RenewalConfig(protocol=DOUBLE_NBL, params=params,
                                      phi=1.0, period=10.0, n_periods=10))

    def test_config_validation(self, params):
        with pytest.raises(ParameterError):
            RenewalConfig(protocol=DOUBLE_NBL, params=params, n_periods=0)

    def test_no_failures_waste_is_ff_only(self):
        quiet = scenarios.BASE.parameters(M=1e12)
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=quiet, phi=1.0,
                            period=300.0, n_periods=100, seed=1)
        r = run_renewal(cfg)
        assert r.n_failures == 0
        assert np.isnan(r.mean_block)
        assert r.waste == pytest.approx(1.0 - 297.0 / 300.0)


class TestFormulaValidation:
    @pytest.mark.parametrize("spec", ALL_PROTOCOLS, ids=lambda s: s.key)
    @pytest.mark.parametrize("phi", [0.5, 2.0])
    def test_f_hat_matches_formula(self, spec, phi, params):
        period = optimal_period(spec, params, phi)
        cfg = RenewalConfig(protocol=spec, params=params, phi=phi,
                            period=float(period), n_periods=150_000, seed=9)
        r = run_renewal(cfg)
        f_model = float(np.asarray(spec.expected_lost_time(params, phi, period)))
        assert r.mean_block == pytest.approx(f_model, rel=0.02)

    def test_phase_hits_proportional_to_lengths(self, params):
        # Failures strike uniformly: hits ∝ phase lengths.
        period = 300.0
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=params, phi=1.0,
                            period=period, n_periods=200_000, seed=2)
        r = run_renewal(cfg)
        lengths = np.array([2.0, 34.0, 264.0])
        expected = lengths / period
        observed = np.asarray(r.phase_hits) / r.n_failures
        np.testing.assert_allclose(observed, expected, atol=0.01)

    def test_waste_close_to_model(self, params):
        from repro.core.waste import waste

        cfg = RenewalConfig(protocol=DOUBLE_BOF, params=params, phi=1.0,
                            n_periods=100_000, seed=3)
        r = run_renewal(cfg)
        w_model = float(waste(DOUBLE_BOF, params, 1.0, r.period))
        # Documented O((F/M)^2) thinning bias ⇒ generous tolerance.
        assert r.waste == pytest.approx(w_model, rel=0.12)

    def test_batch_summary(self, params):
        cfg = RenewalConfig(protocol=TRIPLE, params=params, phi=1.0,
                            n_periods=20_000, seed=4)
        results, summary = run_renewal_batch(cfg, replicas=8)
        assert len(results) == 8
        assert summary.n_replicas == 8
        assert summary.ci_low < summary.mean < summary.ci_high
        assert len({r.waste for r in results}) == 8  # distinct seeds

    def test_batch_validation(self, params):
        cfg = RenewalConfig(protocol=TRIPLE, params=params, phi=1.0,
                            n_periods=100)
        with pytest.raises(ParameterError):
            run_renewal_batch(cfg, replicas=0)

    def test_mean_block_aggregation_survives_no_failure_replicas(self):
        """Near-zero failure rates: some replicas see no failures and
        carry ``mean_block = NaN``.  A raw ``np.mean`` over the batch is
        poisoned by a single such replica — the bug that blanked F̂ in
        the validation report whenever M was large.  Aggregate through
        ``mean_block_samples`` instead."""
        quiet = scenarios.BASE.parameters(M=2e5)  # ~0.3 failures/replica
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=quiet, phi=1.0,
                            period=300.0, n_periods=200, seed=11)
        results, _ = run_renewal_batch(cfg, replicas=24)
        raw = [r.mean_block for r in results]
        assert any(np.isnan(x) for x in raw)  # the hazard is present...
        assert np.isnan(np.mean(raw))  # ...and it poisons a raw mean
        clean = mean_block_samples(results)
        assert 0 < len(clean) < len(results)
        assert np.isfinite(np.mean(clean))
        # The surviving samples are exactly the finite ones, unreordered.
        assert clean == [x for x in raw if np.isfinite(x)]

    def test_mean_block_samples_of_an_all_quiet_batch_is_empty(self):
        """Callers get an empty list (not NaN, not a crash) when no
        replica saw a failure — 'too few failures to estimate F'."""
        silent = scenarios.BASE.parameters(M=1e12)
        cfg = RenewalConfig(protocol=DOUBLE_NBL, params=silent, phi=1.0,
                            period=300.0, n_periods=50, seed=12)
        results, _ = run_renewal_batch(cfg, replicas=4)
        assert mean_block_samples(results) == []

    def test_blocking_protocol_runs(self, params):
        cfg = RenewalConfig(protocol=DOUBLE_BLOCKING, params=params, phi=0.0,
                            n_periods=50_000, seed=5)
        r = run_renewal(cfg)
        f_model = float(np.asarray(
            DOUBLE_BLOCKING.expected_lost_time(params, 0.0, r.period)))
        assert r.mean_block == pytest.approx(f_model, rel=0.05)


class TestSharedKernel:
    """``run_renewal`` bins failures through the vectorized engine's
    kernel (``failure_blocks``); the bytes it produces must not move."""

    #: sha256 of the grid's per-run fields, recorded before the summary
    #: moved to the moments kernel (they never read it).
    RUNS_DIGEST = (
        "c056a9ef79ea0ff0474ae8a301d32645f1006b60e81e9d055265683de49409c8")
    #: sha256 of the grid's summaries, as the moments kernel gives them.
    SUMMARY_DIGEST = (
        "fac6e8c8a8b5b7752b90579c39c042a936931a00479fb1bab371f9aa5c1c6fe7")

    @staticmethod
    def batches():
        for spec in ALL_PROTOCOLS:
            for M in (300.0, 600.0, 3600.0):
                params = scenarios.BASE.parameters(M=M)
                for phi in (0.0, 0.37, 1.0):
                    yield run_renewal_batch(RenewalConfig(
                        protocol=spec, params=params, phi=phi,
                        n_periods=200, seed=5,
                    ), replicas=3)

    def test_batch_output_is_pinned(self):
        digest = hashlib.sha256()
        for results, _ in self.batches():
            for r in results:
                digest.update(repr((
                    r.protocol, r.period, r.phi, r.horizon,
                    r.n_failures, r.total_time, r.work_done,
                    r.mean_block, r.waste, r.phase_hits,
                )).encode())
        assert digest.hexdigest() == self.RUNS_DIGEST

    def test_batch_summary_is_pinned(self):
        digest = hashlib.sha256()
        for _, summary in self.batches():
            digest.update(repr((
                summary.mean, summary.ci_low, summary.ci_high,
            )).encode())
        assert digest.hexdigest() == self.SUMMARY_DIGEST
