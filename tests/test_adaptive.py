"""Adaptive replica control: stopping rules, determinism, budget savings.

The controller's contract: never stop before ``min_replicas``, always
stop at ``max_replicas``, stop in between exactly when the mean-waste CI
half-width meets the tolerance at a batch boundary — and decide all of it
purely from the waste samples, so parallel/resumed runs agree
(:func:`repro.sim.adaptive.stop_count` replays decisions bit-for-bit).
"""

from __future__ import annotations

import math

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim.adaptive import (
    AdaptiveCI,
    FixedReplicas,
    WilsonSuccessRate,
    ci_half_width,
    stop_count,
)
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec
from repro.sim.spec import CampaignSpec, ExecutionPolicy


class TestCiHalfWidth:
    def test_undetermined_until_two_finite_samples(self):
        assert ci_half_width([]) == math.inf
        assert ci_half_width([0.3]) == math.inf
        assert ci_half_width([0.3, float("nan")]) == math.inf

    def test_zero_variance(self):
        assert ci_half_width([0.25, 0.25, 0.25]) == 0.0

    def test_matches_summary_interval(self):
        from repro.sim.results import MonteCarloSummary

        samples = [0.10, 0.14, 0.12, 0.11]
        summary = MonteCarloSummary.from_samples(samples)
        half = (summary.ci_high - summary.ci_low) / 2.0
        assert ci_half_width(samples) == pytest.approx(half)

    def test_nans_excluded_like_summary_mean(self):
        assert ci_half_width([0.1, 0.2, float("nan"), 0.15]) == \
            pytest.approx(ci_half_width([0.1, 0.2, 0.15]))

    def test_shrinks_with_samples(self):
        wide = ci_half_width([0.1, 0.2])
        narrow = ci_half_width([0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2])
        assert narrow < wide


class TestFixedReplicas:
    def test_runs_exactly_max(self):
        ctl = FixedReplicas(3)
        assert not ctl.should_stop([0.1])
        assert not ctl.should_stop([0.1, 0.2])
        assert ctl.should_stop([0.1, 0.2, 0.3])
        assert ctl.fingerprint() is None

    def test_rejects_zero(self):
        with pytest.raises(ParameterError, match="max_replicas"):
            FixedReplicas(0)


class TestAdaptiveCI:
    def test_never_stops_before_min(self):
        ctl = AdaptiveCI(max_replicas=10, tolerance=100.0, min_replicas=4)
        assert not ctl.should_stop([0.1])
        assert not ctl.should_stop([0.1, 0.1])
        assert not ctl.should_stop([0.1, 0.1, 0.1])
        assert ctl.should_stop([0.1, 0.1, 0.1, 0.1])

    def test_always_stops_at_max(self):
        ctl = AdaptiveCI(max_replicas=4, tolerance=1e-12)
        spread = [0.0, 1.0, 0.0, 1.0]
        assert ctl.should_stop(spread)  # ceiling, tolerance never met

    def test_checks_only_batch_boundaries(self):
        ctl = AdaptiveCI(
            max_replicas=20, tolerance=100.0, min_replicas=3, batch=4
        )
        tight = [0.1, 0.1, 0.1]
        assert ctl.should_stop(tight)            # n=3: boundary
        assert not ctl.should_stop(tight + [0.1])        # n=4
        assert not ctl.should_stop(tight + [0.1] * 3)    # n=6
        assert ctl.should_stop(tight + [0.1] * 4)        # n=7: boundary

    def test_tolerance_gates_the_stop(self):
        loose = AdaptiveCI(max_replicas=10, tolerance=0.5, min_replicas=3)
        tight = AdaptiveCI(max_replicas=10, tolerance=1e-6, min_replicas=3)
        samples = [0.10, 0.12, 0.11]
        assert ci_half_width(samples) < 0.5
        assert loose.should_stop(samples)
        assert not tight.should_stop(samples)

    def test_all_nan_never_satisfies_tolerance_early(self):
        ctl = AdaptiveCI(max_replicas=6, tolerance=100.0, min_replicas=3)
        nan = float("nan")
        assert not ctl.should_stop([nan, nan, nan])
        assert ctl.should_stop([nan] * 6)  # ceiling still applies

    @pytest.mark.parametrize("bad", [
        dict(max_replicas=0, tolerance=0.1),
        dict(max_replicas=4, tolerance=0.0),
        dict(max_replicas=4, tolerance=float("nan")),
        dict(max_replicas=4, tolerance=0.1, min_replicas=1),
        dict(max_replicas=4, tolerance=0.1, batch=0),
        dict(max_replicas=4, tolerance=0.1, confidence=1.0),
    ], ids=lambda d: [k for k, v in d.items()][-1])
    def test_validation(self, bad):
        with pytest.raises(ParameterError):
            AdaptiveCI(**bad)

    def test_fingerprint_identifies_settings(self):
        a = AdaptiveCI(max_replicas=8, tolerance=0.02)
        b = AdaptiveCI(max_replicas=8, tolerance=0.03)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint()["kind"] == "AdaptiveCI"


class TestStopCount:
    def test_replays_fixed(self):
        assert stop_count(FixedReplicas(3), [0.1, 0.2, 0.3]) == 3
        assert stop_count(FixedReplicas(3), [0.1, 0.2]) is None
        assert stop_count(FixedReplicas(2), [0.1, 0.2, 0.3]) == 2

    def test_replays_adaptive(self):
        ctl = AdaptiveCI(max_replicas=10, tolerance=0.5, min_replicas=3)
        converged = [0.10, 0.12, 0.11, 0.13, 0.12]
        assert stop_count(ctl, converged) == 3  # would have stopped early
        assert stop_count(ctl, converged[:2]) is None  # interrupted


class TestCursor:
    """The incremental cursor must decide exactly like should_stop."""

    SEQUENCES = [
        [0.1, 0.2, 0.3, 0.4, 0.5],
        [0.10, 0.12, 0.11, 0.13, 0.12, 0.11],
        [0.25] * 8,                                   # zero variance
        [float("nan")] * 6,                           # never finite
        [0.1, float("nan"), 0.11, 0.1, float("nan"), 0.12],
        [0.0, 1.0] * 5,                               # never converges
        [float("nan"), 0.2, float("nan"), 0.3] * 2,   # half succeed
    ]
    RULES = [
        FixedReplicas(4),
        AdaptiveCI(max_replicas=10, tolerance=0.5, min_replicas=3),
        AdaptiveCI(max_replicas=10, tolerance=1e-9, min_replicas=3),
        AdaptiveCI(max_replicas=6, tolerance=0.05, min_replicas=4, batch=3),
        AdaptiveCI(max_replicas=10, tolerance=0.02, min_replicas=2, batch=1),
        WilsonSuccessRate(max_replicas=10, tolerance=0.75, min_replicas=1,
                          batch=1),
        WilsonSuccessRate(max_replicas=10, tolerance=0.7, min_replicas=3),
        WilsonSuccessRate(max_replicas=6, tolerance=1e-9, min_replicas=2,
                          batch=3),
        WilsonSuccessRate(max_replicas=8, tolerance=0.6, min_replicas=2,
                          batch=1),
    ]

    def test_cursor_matches_prefix_replay(self):
        for rule in self.RULES:
            for seq in self.SEQUENCES:
                cursor = rule.cursor()
                for n in range(1, len(seq) + 1):
                    assert cursor.push(seq[n - 1]) == \
                        rule.should_stop(seq[:n]), (rule, seq, n)

    def test_adaptive_cursor_half_width_matches_ci(self):
        """The Welford running half-width is numerically the reference
        ci_half_width (same formula, ulp-level accumulation differences
        at most)."""
        rule = AdaptiveCI(max_replicas=100, tolerance=1e-12, min_replicas=2,
                          batch=1)
        cursor = rule.cursor()
        samples = [0.1 + 0.01 * ((i * 7919) % 13) for i in range(50)]
        for n, s in enumerate(samples, 1):
            cursor.push(s)
            half = rule._moments_width(cursor.moments)
            assert half == \
                pytest.approx(ci_half_width(samples[:n]), rel=1e-12, abs=0.0) \
                or (math.isinf(half)
                    and math.isinf(ci_half_width(samples[:n])))

    def test_replay_is_linear_in_ci_evaluations(self, monkeypatch):
        """stop_count must not recompute the half-width over every prefix:
        one evaluation per batch boundary, each O(1)."""
        from repro.sim import adaptive as adaptive_mod

        calls = {"n": 0}
        original = adaptive_mod.AdaptiveCI._moments_width

        def counting(self, moments):
            calls["n"] += 1
            return original(self, moments)

        monkeypatch.setattr(
            adaptive_mod.AdaptiveCI, "_moments_width", counting
        )
        n = 500
        rule = AdaptiveCI(max_replicas=n + 1, tolerance=1e-30,
                          min_replicas=2, batch=1)
        wastes = [0.1 + (i % 7) * 0.01 for i in range(n)]
        assert stop_count(rule, wastes) is None
        # One O(1) evaluation per boundary — not one per (boundary, prefix).
        assert calls["n"] == n - 1


def adaptive_spec(policy: ExecutionPolicy = ExecutionPolicy()) -> CampaignSpec:
    """A grid with a converged low-churn cell (M=3600: few failures)."""
    return CampaignSpec(grid=CampaignConfig(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0, 3600.0),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=8,
        seed=2026,
        share_traces=True,
    ), policy=policy)


class TestExecutorIntegration:
    TOLERANCE = 0.03

    def controller(self) -> AdaptiveCI:
        return AdaptiveCI(
            max_replicas=8, tolerance=self.TOLERANCE, min_replicas=3, batch=1
        )

    def adaptive(self, **policy) -> CampaignSpec:
        """The grid under this class's adaptive controller."""
        return adaptive_spec(
            ExecutionPolicy(controller=self.controller(), **policy)
        )

    def test_adaptive_spends_fewer_replicas_and_keeps_ci(self):
        """The acceptance criterion: a converged cell stops early, the
        budget shrinks, and every early-stopped cell's CI half-width meets
        the tolerance."""
        fixed = execute_spec(adaptive_spec())
        adaptive = execute_spec(self.adaptive())
        assert fixed.report.replicas_run == 4 * 8
        assert adaptive.report.replicas_run < fixed.report.replicas_run

        stopped_early = 0
        for cell in adaptive.cells:
            n = len(cell.results)
            if n < 8:
                stopped_early += 1
                half = (cell.summary.ci_high - cell.summary.ci_low) / 2.0
                assert half <= self.TOLERANCE
        assert stopped_early >= 1

    def test_adaptive_prefix_matches_fixed_replicas(self):
        """Early stopping only truncates the replica schedule — the
        replicas that do run are bit-identical to the fixed path's."""
        fixed = execute_spec(adaptive_spec())
        adaptive = execute_spec(self.adaptive())
        for f_cell, a_cell in zip(fixed.cells, adaptive.cells):
            n = len(a_cell.results)
            assert [repro_io.dump_result(r) for r in a_cell.results] == \
                [repro_io.dump_result(r) for r in f_cell.results[:n]]

    def test_adaptive_is_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        execute_spec(self.adaptive(sink="framed"), results_path=a)
        execute_spec(self.adaptive(sink="framed"), results_path=b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.campaign
    def test_adaptive_parallel_matches_serial(self, tmp_path):
        serial = execute_spec(self.adaptive(sink="framed"),
                              results_path=tmp_path / "s.jsonl")
        parallel = execute_spec(
            self.adaptive(sink="framed", workers=2, chunk_size=1),
            results_path=tmp_path / "p.jsonl",
        )
        assert [repro_io.dump_result(c.summary) for c in serial.cells] == \
            [repro_io.dump_result(c.summary) for c in parallel.cells]
        assert serial.report.replicas_run == parallel.report.replicas_run

    def test_adaptive_resume_completes_interrupted_cells(self, tmp_path):
        path = tmp_path / "adaptive.jsonl"
        full_exec = execute_spec(self.adaptive(sink="framed"),
                                 results_path=path)
        full = path.read_bytes()
        lines = full.split(b"\n")
        path.write_bytes(b"\n".join(lines[:5]) + b"\n")
        resumed = execute_spec(self.adaptive(sink="framed"),
                               results_path=path, resume=True)
        assert path.read_bytes() == full
        assert [repro_io.dump_result(c.summary) for c in resumed.cells] == \
            [repro_io.dump_result(c.summary) for c in full_exec.cells]
