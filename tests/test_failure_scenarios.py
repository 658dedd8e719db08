"""Scenario-parametrised failure-injection suite.

In the style of platform-failure resiliency suites (parametrise the fault
model, assert the invariants every scenario must satisfy), each campaign
preset — exascale-Weibull clustering, minutes-scale MTBF churn, slow
storage at large φ — is run through the campaign engine once, and every
cross-protocol invariant is checked over all of its cells:

* probabilities live in [0, 1] (success rates and their Wilson CIs);
* measured waste is non-negative: a run can never beat the failure-free
  makespan;
* failure accounting is conserved (rollbacks ≤ failures, lost work ≥ 0,
  completed runs did all their work);
* where the paper says model and simulation agree (exponential failures,
  the largest-MTBF column, no fatal failures), the DES waste lands within
  tolerance of the first-order prediction.

The grid-running invariants are marked ``campaign`` (they run full
sweeps), so tier-1 skips them and ``pytest --run-slow`` exercises them;
the preset-registry definition checks are cheap and stay in tier-1.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.protocols import get_protocol
from repro.core.waste import waste_at_optimum
from repro.experiments.scenarios import CAMPAIGN_PRESETS, get_campaign_preset
from repro.sim.executor import execute_spec

#: |DES waste − first-order waste| bound where the regimes agree.
MODEL_TOLERANCE = 0.10


@pytest.fixture(scope="module", params=sorted(CAMPAIGN_PRESETS))
def preset_run(request):
    """One full (replica-trimmed) campaign per preset, shared module-wide."""
    preset = get_campaign_preset(request.param)
    spec = preset.spec(replicas=3)
    execution = execute_spec(spec)
    return preset, spec.grid, list(execution.cells)


@pytest.mark.campaign
class TestScenarioInvariants:
    def test_grid_is_fully_covered(self, preset_run):
        preset, config, cells = preset_run
        expected = (len(config.protocols) * len(config.m_values)
                    * len(config.phi_values))
        assert len(cells) == expected
        keys = {(c.protocol, c.M, c.phi) for c in cells}
        assert len(keys) == expected

    def test_success_probabilities_are_probabilities(self, preset_run):
        _, _, cells = preset_run
        for cell in cells:
            assert 0.0 <= cell.success_rate <= 1.0
            lo, hi = cell.summary.success_ci
            assert 0.0 <= lo <= hi <= 1.0
            assert lo <= cell.success_rate <= hi

    def test_waste_is_nonnegative(self, preset_run):
        _, _, cells = preset_run
        for cell in cells:
            for res in cell.results:
                if res.succeeded:
                    assert res.waste >= 0.0
                else:
                    assert math.isnan(res.waste)
            if np.isfinite(cell.mean_waste):
                assert cell.mean_waste >= 0.0

    def test_failure_accounting_is_conserved(self, preset_run):
        _, config, cells = preset_run
        for cell in cells:
            for res in cell.results:
                assert res.rollbacks <= res.failures
                assert res.work_lost >= 0.0
                assert res.risk_time >= 0.0
                if res.succeeded:
                    assert res.work_done >= config.work_target
                    assert res.makespan >= config.work_target
                if res.status == "fatal":
                    assert np.isfinite(res.fatal_time)
                    assert len(res.fatal_group) >= 1

    def test_every_scenario_actually_injects_failures(self, preset_run):
        preset, _, cells = preset_run
        total_failures = sum(
            res.failures for cell in cells for res in cell.results
        )
        assert total_failures > 0, f"{preset.key} never failed a node"

    def test_des_waste_tracks_model_where_regimes_agree(self, preset_run):
        preset, config, cells = preset_run
        if preset.failure_law is not None:
            pytest.skip("first-order model assumes exponential failures")
        m_max = max(config.m_values)
        checked = 0
        for cell in cells:
            if cell.M != m_max or cell.success_rate < 1.0:
                continue
            if not np.isfinite(cell.mean_waste):
                continue
            params = config.base_params.with_updates(M=cell.M)
            spec = get_protocol(cell.protocol)
            model = float(np.asarray(
                waste_at_optimum(spec, params, cell.phi).total
            ))
            assert abs(cell.mean_waste - model) <= MODEL_TOLERANCE, (
                f"{preset.key}/{cell.protocol} M={cell.M} phi={cell.phi}: "
                f"DES {cell.mean_waste:.4f} vs model {model:.4f}"
            )
            checked += 1
        assert checked > 0, "no agreeing-regime cells were checked"


class TestPresetDefinitions:
    """The registry itself: presets must be well-formed and distinct."""

    def test_at_least_three_presets(self):
        assert len(CAMPAIGN_PRESETS) >= 3

    @pytest.mark.parametrize("key", sorted(CAMPAIGN_PRESETS))
    def test_configs_validate(self, key):
        preset = get_campaign_preset(key)
        config = preset.campaign_config()
        assert config.base_params.n == preset.n
        from repro.sim.executor import plan_cells
        assert plan_cells(config)  # resolves protocols, checks divisibility

    def test_weibull_preset_carries_its_law(self):
        from repro.sim.distributions import Weibull

        dist = get_campaign_preset("exa-weibull").campaign_config().distribution
        assert isinstance(dist, Weibull)
        assert dist.shape == pytest.approx(0.7)

    def test_wearout_preset_has_increasing_hazard(self):
        from repro.sim.distributions import Weibull

        dist = get_campaign_preset("weibull-wearout").campaign_config().distribution
        assert isinstance(dist, Weibull)
        assert dist.shape > 1.0  # k>1 = wear-out, not infant mortality

    def test_hetero_preset_is_an_exponential_mixture(self):
        from repro.sim.distributions import Exponential, Mixture

        dist = get_campaign_preset("hetero-mtbf").campaign_config().distribution
        assert isinstance(dist, Mixture)
        assert all(isinstance(c, Exponential) for c in dist.components)
        # Fragile minority: the low-MTBF component carries the small weight.
        means = [c.mean() for c in dist.components]
        weights = list(dist.weights)
        assert weights[means.index(min(means))] < 0.5

    def test_new_presets_round_trip_through_config(self):
        """Preset -> config -> manifest fingerprint is stable and complete
        (what resume compares): rebuilding the preset gives an identical
        fingerprint, and the failure law survives with its shape."""
        for key in ("weibull-wearout", "hetero-mtbf"):
            fp1 = get_campaign_preset(key).spec().fingerprint()
            fp2 = get_campaign_preset(key).spec().fingerprint()
            assert fp1 == fp2
            assert fp1["grid"]["distribution"] is not None

    @pytest.mark.parametrize("bad_law", [
        "hyperexp", "hyperexp:", "hyperexp:0.5", "hyperexp:0.5@abc",
        "hyperexp:0.5@1,@2",
    ])
    def test_malformed_hyperexp_spec_raises(self, bad_law):
        from dataclasses import replace

        from repro.errors import ParameterError

        preset = replace(get_campaign_preset("hetero-mtbf"), failure_law=bad_law)
        with pytest.raises(ParameterError, match="hyperexp"):
            preset.distribution()

    def test_unknown_preset_raises(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="unknown campaign preset"):
            get_campaign_preset("does-not-exist")

    @pytest.mark.parametrize("bad_law", ["weibull", "weibull:abc", "cauchy:2"])
    def test_malformed_failure_law_raises_parameter_error(self, bad_law):
        from dataclasses import replace

        from repro.errors import ParameterError

        preset = replace(get_campaign_preset("exa-weibull"), failure_law=bad_law)
        with pytest.raises(ParameterError, match="law"):
            preset.distribution()
