"""Trace replay (common random numbers) and campaign orchestration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DOUBLE_BOF, DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import ParameterError
from repro.io import load_results
from repro.sim.campaign import CampaignCell, CampaignConfig, cells_table
from repro.sim.des import DesConfig, run_des
from repro.io import dump_result
from repro.sim.failures import (
    FailureInjector,
    TraceInjector,
    TraceSchedule,
    generate_trace,
)
from repro.sim.rng import RngFactory
from repro.sim.spec import Campaign, CampaignSpec


def run_grid(config: CampaignConfig, results_path=None):
    """Run a grid under the default policy; returns its cells."""
    return Campaign(CampaignSpec(grid=config)).run(results_path).cells


class TestTraceInjector:
    def test_replays_exact_times(self):
        inj = TraceInjector(4, [(5.0, 0), (9.0, 2), (12.0, 0)])
        assert inj.next_failure_delay(0) == 5.0
        assert inj.next_failure_delay(0) == 7.0  # 12 − 5
        assert inj.next_failure_delay(2) == 9.0
        assert inj.next_failure_delay(1) == TraceInjector.NEVER
        assert inj.next_failure_delay(0) == TraceInjector.NEVER

    def test_accepts_structured_trace(self):
        real = FailureInjector.from_platform_mtbf(8, 50.0, RngFactory(3))
        trace = generate_trace(real, horizon=500.0)
        inj = TraceInjector(8, trace)
        assert inj.total_events == trace.shape[0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            TraceInjector(0, [])
        with pytest.raises(ParameterError):
            TraceInjector(2, [(1.0, 5)])  # node out of range
        with pytest.raises(ParameterError):
            TraceInjector(2, [(2.0, 0), (1.0, 1)])  # unsorted
        inj = TraceInjector(2, [(1.0, 0)])
        with pytest.raises(ParameterError):
            inj.next_failure_delay(9)

    @pytest.mark.parametrize("trace, message", [
        ([(1.0, 0), (float("nan"), 1), (0.5, 0)], "finite"),
        ([(1.0, 0), (float("inf"), 1)], "finite"),
        ([(-0.5, 0), (1.0, 1)], ">= 0"),
    ])
    def test_refuses_non_finite_and_negative_times(self, trace, message):
        # A NaN used to slip through every sorted-order comparison and
        # yield node-0 delays [1.0, -0.5]; a negative time was refused only
        # as "unsorted".
        with pytest.raises(ParameterError, match=message):
            TraceInjector(2, trace)

    def test_des_replay_reproduces_run(self):
        """Replaying the trace of a sampled run reproduces its makespan."""
        params = scenarios.BASE.parameters(M=600.0, n=16)
        sampled_cfg = DesConfig(protocol=DOUBLE_NBL, params=params, phi=1.0,
                                work_target=2 * 3600.0, seed=13)
        sampled = run_des(sampled_cfg)

        factory = RngFactory(13)
        injector = FailureInjector.from_platform_mtbf(16, 600.0, factory)
        trace = generate_trace(injector, horizon=sampled.makespan + 1.0)
        replayed = run_des(DesConfig(
            protocol=DOUBLE_NBL, params=params, phi=1.0,
            work_target=2 * 3600.0, seed=13, trace=trace,
        ))
        assert replayed.makespan == pytest.approx(sampled.makespan)
        assert replayed.failures >= sampled.failures - 1

    def test_common_random_numbers_across_protocols(self):
        """Under an identical trace *and* an identical period, NBL and BOF
        share the failure history; their makespans differ only by the
        recovery-policy deltas (≈ ±(R − φ) + RE drift per failure), far
        less than independent sampling would produce."""
        params = scenarios.BASE.parameters(M=400.0, n=12)
        inj = FailureInjector.from_platform_mtbf(12, 400.0, RngFactory(5))
        trace = generate_trace(inj, horizon=4 * 3600.0 * 10)
        runs = {}
        for spec in (DOUBLE_NBL, DOUBLE_BOF):
            runs[spec.key] = run_des(DesConfig(
                protocol=spec, params=params, phi=1.0, period=120.0,
                work_target=2 * 3600.0, trace=trace, seed=1,
            ))
        nbl, bof = runs["double-nbl"], runs["double-bof"]
        assert nbl.succeeded and bof.succeeded
        assert abs(nbl.failures - bof.failures) <= 2
        assert abs(nbl.makespan - bof.makespan) < 0.15 * nbl.makespan


class TestTraceSchedule:
    @pytest.fixture(scope="class")
    def trace(self):
        real = FailureInjector.from_platform_mtbf(8, 50.0, RngFactory(11))
        return generate_trace(real, horizon=2000.0)

    def test_delays_match_per_node_differences(self, trace):
        schedule = TraceSchedule(8, trace)
        for node in range(8):
            times = [float(t) for t, v in zip(trace["time"], trace["node"])
                     if v == node]
            expected = [t - prev for prev, t in zip([0.0] + times, times)]
            lo, hi = schedule.bounds[node], schedule.bounds[node + 1]
            assert schedule.delays[lo:hi].tolist() == expected
        assert schedule.total_events == trace.shape[0]

    def test_injectors_share_a_schedule_without_mutating_it(self, trace):
        schedule = TraceSchedule(8, trace)
        before = schedule.delays.copy()

        def replay(injector):
            return [[injector.next_failure_delay(node)
                     for _ in range(schedule.total_events + 1)]
                    for node in range(8)]

        first, second = TraceInjector(8, schedule), TraceInjector(8, schedule)
        assert replay(first) == replay(second)
        assert np.array_equal(schedule.delays, before)

    def test_exhausted_node_returns_never(self):
        injector = TraceInjector(3, TraceSchedule(3, [(2.0, 1)]))
        assert injector.next_failure_delay(1) == 2.0
        assert injector.next_failure_delay(1) == TraceInjector.NEVER
        assert injector.next_failure_delay(0) == TraceInjector.NEVER

    def test_refuses_schedule_for_other_node_count(self, trace):
        with pytest.raises(ParameterError, match="n_nodes=8"):
            TraceInjector(4, TraceSchedule(8, trace))

    def test_raw_and_parsed_traces_give_identical_runs(self):
        params = scenarios.BASE.parameters(M=120.0, n=12)
        inj = FailureInjector.from_platform_mtbf(12, 120.0, RngFactory(4))
        trace = generate_trace(inj, horizon=40 * 3600.0)

        def run(replayed):
            return dump_result(run_des(DesConfig(
                protocol=TRIPLE, params=params, phi=1.0,
                work_target=3600.0, trace=replayed, seed=3,
            )))

        assert run(trace) == run(TraceSchedule(12, trace))
        pairs = list(zip(trace["time"].tolist(), trace["node"].tolist()))
        assert run(pairs) == run(trace)


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        return CampaignConfig(
            protocols=(DOUBLE_NBL, TRIPLE),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(600.0, 1200.0),
            phi_values=(0.5, 2.0),
            work_target=1800.0,
            replicas=3,
            seed=2025,
        )

    def test_grid_coverage(self, small_campaign):
        cells = run_grid(small_campaign)
        assert len(cells) == 2 * 2 * 2  # protocols × M × phi
        keys = {(c.protocol, c.M, c.phi) for c in cells}
        assert ("triple", 1200.0, 0.5) in keys

    def test_cells_have_replicas(self, small_campaign):
        cells = run_grid(small_campaign)
        assert all(len(c.results) == 3 for c in cells)
        assert all(0.0 <= c.success_rate <= 1.0 for c in cells)

    def test_waste_improves_with_m(self, small_campaign):
        cells = run_grid(small_campaign)
        by_key = {(c.protocol, c.M, c.phi): c for c in cells}
        for proto in ("double-nbl", "triple"):
            lo = by_key[(proto, 600.0, 0.5)].mean_waste
            hi = by_key[(proto, 1200.0, 0.5)].mean_waste
            assert hi < lo + 0.05  # better MTBF, less (or equal) waste

    def test_persistence(self, tmp_path):
        cfg = CampaignConfig(
            protocols=(DOUBLE_NBL,),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(600.0,),
            phi_values=(1.0,),
            work_target=900.0,
            replicas=2,
        )
        cells = run_grid(cfg, tmp_path / "campaign.jsonl")
        stored = list(load_results(tmp_path / "campaign.jsonl"))
        assert len(stored) == 2
        assert stored[0].meta["protocol"] == "double-nbl"
        assert cells[0].results[0].makespan == stored[0].makespan

    def test_shared_traces_align_failures(self):
        cfg = CampaignConfig(
            protocols=(DOUBLE_NBL, DOUBLE_BOF),
            base_params=scenarios.BASE.parameters(M=300.0, n=12),
            m_values=(300.0,),
            phi_values=(1.0,),
            work_target=1800.0,
            replicas=2,
            share_traces=True,
            seed=31,
        )
        cells = run_grid(cfg)
        by_proto = {c.protocol: c for c in cells}
        nbl = by_proto["double-nbl"].results
        bof = by_proto["double-bof"].results
        # Same trace ⇒ at least the first failure strikes both protocols.
        for a, b in zip(nbl, bof):
            if a.succeeded and b.succeeded and a.failures and b.failures:
                assert b.makespan >= a.makespan - 1e-6

    def test_rendering(self, small_campaign):
        cells = run_grid(small_campaign)
        text = cells_table(cells)
        assert "campaign results" in text and "triple" in text

    @pytest.mark.parametrize(
        "override",
        [
            dict(protocols=()),
            dict(protocols=(DOUBLE_NBL, "double-nbl")),  # duplicate protocol
            dict(m_values=()),
            dict(m_values=(600.0, 600.0)),  # duplicate grid point
            dict(m_values=(float("nan"),)),
            dict(m_values=(-600.0,)),
            dict(m_values=(0.0,)),
            dict(phi_values=()),
            dict(phi_values=(1.0, 1.0)),
            dict(phi_values=(-1.0,)),
            dict(phi_values=(float("inf"),)),
            dict(replicas=0),
            dict(replicas=-3),
            dict(work_target=0.0),
            dict(work_target=float("inf")),
            dict(seed=-1),
            dict(max_time=0.0),
        ],
    )
    def test_validation(self, override):
        base = dict(
            protocols=(DOUBLE_NBL,),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(600.0,),
            phi_values=(1.0,),
            work_target=900.0,
        )
        base.update(override)
        with pytest.raises(ParameterError):
            CampaignConfig(**base)

    def test_numpy_integers_accepted(self, tmp_path):
        """Grid scalars routinely come from numpy; integral numpy types
        must validate and run (seeds are coerced for the RNG)."""
        cfg = CampaignConfig(
            protocols=(DOUBLE_NBL,),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(600.0,),
            phi_values=(1.0,),
            work_target=900.0,
            replicas=np.int64(2),
            seed=np.int64(11),
        )
        cells = run_grid(cfg, tmp_path / "np.jsonl")
        assert len(cells) == 1 and len(cells[0].results) == 2
        assert cells[0].results[0].meta["seed"] == 11

    def test_spec_revalidates_duck_typed_config(self):
        """Configs built around __post_init__ (object.__new__, stubs...)
        must still fail loudly at execution time, not run a zero-replica
        sweep to an empty answer."""
        config = object.__new__(CampaignConfig)
        for name, value in dict(
            protocols=(DOUBLE_NBL,),
            base_params=scenarios.BASE.parameters(M=600.0, n=12),
            m_values=(600.0,),
            phi_values=(1.0,),
            work_target=900.0,
            replicas=0,  # invalid, snuck past construction
            seed=7,
            share_traces=False,
            max_time=None,
            distribution=None,
        ).items():
            object.__setattr__(config, name, value)
        with pytest.raises(ParameterError, match="replicas"):
            run_grid(config)

    def test_campaign_with_failure_distribution(self):
        """The distribution field reaches every injector (incl. traces)."""
        from repro.sim.distributions import Weibull

        cfg = CampaignConfig(
            protocols=(DOUBLE_NBL,),
            base_params=scenarios.BASE.parameters(M=300.0, n=12),
            m_values=(300.0,),
            phi_values=(1.0,),
            work_target=900.0,
            replicas=2,
            share_traces=True,
            distribution=Weibull(1.0, 0.7),
            seed=11,
        )
        cells = run_grid(cfg)
        assert len(cells) == 1
        exp_cells = run_grid(
            CampaignConfig(
                protocols=(DOUBLE_NBL,),
                base_params=scenarios.BASE.parameters(M=300.0, n=12),
                m_values=(300.0,),
                phi_values=(1.0,),
                work_target=900.0,
                replicas=2,
                share_traces=True,
                seed=11,
            )
        )
        # A different law must change the sampled failure history.
        weibull_ms = [r.makespan for r in cells[0].results]
        exp_ms = [r.makespan for r in exp_cells[0].results]
        assert weibull_ms != exp_ms
