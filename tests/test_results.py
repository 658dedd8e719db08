"""Result containers: waste computation, Wilson/t intervals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sim.results import (DesResult, MonteCarloSummary, RunningMoments,
                               _z_quantile, t_quantile, wilson_interval)


def make_result(**kw) -> DesResult:
    defaults = dict(
        status="completed", makespan=1100.0, work_target=1000.0,
        work_done=1000.0, failures=3, rollbacks=3, work_lost=42.0,
        commits=10, risk_time=12.0,
    )
    defaults.update(kw)
    return DesResult(**defaults)


class TestDesResult:
    def test_waste(self):
        assert make_result().waste == pytest.approx(1 - 1000.0 / 1100.0)

    def test_waste_nan_when_not_completed(self):
        assert np.isnan(make_result(status="fatal").waste)
        assert np.isnan(make_result(status="timeout").waste)

    def test_succeeded(self):
        assert make_result().succeeded
        assert not make_result(status="fatal").succeeded


class TestWilson:
    def test_symmetric_midpoint(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert lo == pytest.approx(1 - hi, abs=1e-9)

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.1

    def test_all_successes(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    def test_narrower_with_more_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(1, 0)
        with pytest.raises(ParameterError):
            wilson_interval(5, 3)


class TestSummary:
    def test_from_samples(self):
        s = MonteCarloSummary.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.ci_low < 2.5 < s.ci_high
        assert s.success_rate == 1.0

    def test_ci_contains_true_mean_mostly(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(100):
            samples = rng.normal(10.0, 2.0, size=30)
            s = MonteCarloSummary.from_samples(samples)
            hits += s.contains(10.0)
        assert hits >= 85  # 95% CI

    def test_nans_count_as_failures(self):
        s = MonteCarloSummary.from_samples([1.0, float("nan"), 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.success_rate == pytest.approx(2 / 3)

    def test_explicit_successes(self):
        s = MonteCarloSummary.from_samples([1.0, 2.0], successes=1)
        assert s.success_rate == 0.5

    def test_single_sample(self):
        s = MonteCarloSummary.from_samples([5.0])
        assert s.mean == 5.0
        assert s.ci_low == s.ci_high == 5.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            MonteCarloSummary.from_samples([])
        with pytest.raises(ParameterError):
            MonteCarloSummary.from_samples([1.0], confidence=2.0)


class TestExtremeSamples:
    """Extreme but finite wastes must not overflow the summary."""

    def test_extreme_finite_batch_gives_a_finite_std(self):
        import warnings

        from repro.sim.results import ci_half_width

        samples = [1e200, -1e200, 3e199]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails
            summary = MonteCarloSummary.from_samples(samples)
            half = ci_half_width(samples)
        expected = 1e200 * float(np.std([1.0, -1.0, 0.3], ddof=1))
        assert np.isfinite(summary.std) and np.isfinite(half)
        assert summary.std == pytest.approx(expected, rel=1e-12)
        assert summary.mean == pytest.approx(1e199, rel=1e-12)

    def test_ordinary_batches_keep_the_moments_bits(self):
        """The scaled fallback only runs when the moments overflow:
        otherwise the summary is the streaming one, bit for bit."""
        rng = np.random.default_rng(7)
        for values in (rng.random(40), rng.normal(0.3, 1e-9, 17),
                       np.array([0.25, 0.75])):
            moments = RunningMoments.of(values.tolist())
            summary = MonteCarloSummary.from_samples(values)
            assert summary.mean == moments.mean
            assert summary.std == moments.std()
            assert summary == MonteCarloSummary.from_moments(
                moments, successes=len(values))



_confidence = st.floats(min_value=0.0, max_value=1.0,
                        exclude_min=True, exclude_max=True)


class TestQuantileKernels:
    """The quantiles come from the scipy.special kernels that
    scipy.stats' ``t.ppf`` and ``norm.ppf`` call; these pin them to
    scipy.stats value for value (``repr`` tells NaN and ``-0.0`` apart),
    so a scipy whose ppf stops calling them fails here.  The explicit
    examples are the levels campaigns use and confidences next to 0 and
    1, where the tails are steepest."""

    @settings(max_examples=300, deadline=None)
    @given(confidence=_confidence,
           df=st.integers(min_value=1, max_value=10**6))
    @example(confidence=0.95, df=2)
    @example(confidence=0.99, df=30)
    @example(confidence=5e-324, df=1)
    @example(confidence=1e-12, df=10**6)
    @example(confidence=1.0 - 1e-12, df=1)
    @example(confidence=1.0 - 2.0 ** -53, df=10**6)
    def test_t_quantile_is_stats_t_ppf(self, confidence, df):
        from scipy import stats

        assert repr(t_quantile(confidence, df)) == repr(
            float(stats.t.ppf(0.5 + confidence / 2, df=df)))

    @settings(max_examples=300, deadline=None)
    @given(confidence=_confidence)
    @example(confidence=0.95)
    @example(confidence=0.99)
    @example(confidence=5e-324)
    @example(confidence=1.0 - 2.0 ** -53)
    def test_z_quantile_is_stats_norm_ppf(self, confidence):
        from scipy import stats

        assert repr(_z_quantile(confidence)) == repr(
            float(stats.norm.ppf(0.5 + confidence / 2)))
