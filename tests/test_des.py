"""DES runner: configuration handling and statistical agreement with the model."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.core.waste import waste_at_optimum
from repro.errors import InfeasibleModelError, ParameterError
from repro.experiments.scenarios import CAMPAIGN_PRESETS
from repro.sim.executor import CampaignSession
from repro.sim.des import DesConfig, run_des, run_des_batch, summarize_waste
from repro.sim.distributions import Weibull
from repro.sim.protocols.coordinated import CoordinatedSimProtocol
from repro.sim.topology import contiguous_groups


@pytest.fixture
def quiet_params():
    """Safe regime: failures present but fatal ones very unlikely."""
    return scenarios.BASE.parameters(M=1200.0, n=32)


class TestConfig:
    def test_rejects_bad_work(self, quiet_params):
        with pytest.raises(ParameterError):
            DesConfig(protocol=DOUBLE_NBL, params=quiet_params, work_target=0.0)

    def test_rejects_bad_grouping(self, quiet_params):
        with pytest.raises(ParameterError):
            DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                      work_target=10.0, grouping="fancy")

    def test_infeasible_period_raises(self):
        params = scenarios.BASE.parameters(M=15.0, n=32)
        cfg = DesConfig(protocol=DOUBLE_NBL, params=params, work_target=100.0,
                        phi=0.0)
        with pytest.raises(InfeasibleModelError):
            run_des(cfg)

    def test_n_not_divisible_by_group(self):
        params = scenarios.BASE.parameters(M=1200.0, n=32)
        cfg = DesConfig(protocol=TRIPLE, params=params, work_target=100.0,
                        phi=1.0)
        with pytest.raises(ParameterError):
            run_des(cfg)

    def test_explicit_period_below_min_rejected(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=100.0, phi=1.0, period=10.0)
        with pytest.raises(ParameterError):
            run_des(cfg)

    def test_group_assignment_mismatch(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=100.0, phi=1.0,
                        grouping=contiguous_groups(16, 2))
        with pytest.raises(ParameterError):
            run_des(cfg)


class TestRuns:
    def test_reproducible(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=3600.0, phi=1.0, seed=3)
        a, b = run_des(cfg), run_des(cfg)
        assert a.makespan == b.makespan
        assert a.failures == b.failures

    def test_seed_changes_outcome(self, quiet_params):
        cfg1 = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                         work_target=3600.0, phi=1.0, seed=3)
        cfg2 = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                         work_target=3600.0, phi=1.0, seed=4)
        assert run_des(cfg1).makespan != run_des(cfg2).makespan

    def test_result_fields(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=1800.0, phi=1.0, seed=5)
        r = run_des(cfg)
        assert r.status == "completed"
        assert r.work_done == pytest.approx(1800.0)
        assert r.makespan >= 1800.0
        assert 0.0 <= r.waste < 1.0
        assert r.meta["protocol"] == "double-nbl"

    def test_custom_sim_protocol(self, quiet_params):
        proto = CoordinatedSimProtocol(10.0, 0.0, 5.0, 200.0)
        cfg = DesConfig(protocol=proto, params=quiet_params,
                        work_target=1800.0, seed=5)
        r = run_des(cfg)
        assert r.status == "completed"
        assert r.meta["protocol"] == "coordinated"

    def test_weibull_distribution(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=1800.0, phi=1.0, seed=5,
                        distribution=Weibull(1.0, shape=0.7))
        r = run_des(cfg)
        assert r.status in ("completed", "fatal")

    @pytest.mark.parametrize("grouping", ["contiguous", "strided", "random"])
    def test_grouping_strategies(self, quiet_params, grouping):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=900.0, phi=1.0, seed=5, grouping=grouping)
        assert run_des(cfg).status == "completed"

    def test_batch_distinct_seeds(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=900.0, phi=1.0, seed=5)
        results = run_des_batch(cfg, replicas=4)
        assert len({r.makespan for r in results}) > 1

    def test_batch_validation(self, quiet_params):
        cfg = DesConfig(protocol=DOUBLE_NBL, params=quiet_params,
                        work_target=900.0, phi=1.0)
        with pytest.raises(ParameterError):
            run_des_batch(cfg, replicas=0)


class TestModelAgreement:
    """DES measured waste brackets the analytical waste (statistical)."""

    @pytest.mark.parametrize("spec", [DOUBLE_NBL, TRIPLE], ids=lambda s: s.key)
    def test_waste_matches_model(self, spec):
        n = 36  # divisible by 2 and 3
        params = scenarios.BASE.parameters(M=900.0, n=n)
        cfg = DesConfig(protocol=spec, params=params, work_target=6 * 3600.0,
                        phi=1.0, seed=11)
        results = [r for r in run_des_batch(cfg, replicas=10) if r.succeeded]
        assert len(results) >= 8  # fatal failures rare in this regime
        summary = summarize_waste(results)
        model = float(np.asarray(waste_at_optimum(spec, params, 1.0).total))
        # CI + slack for finite-horizon bias.
        slack = 0.25 * model
        assert summary.ci_low - slack <= model <= summary.ci_high + slack

    def test_high_risk_regime_produces_fatals(self):
        params = scenarios.BASE.parameters(M=40.0, n=16)
        cfg = DesConfig(protocol=DOUBLE_NBL, params=params,
                        work_target=40 * 3600.0, phi=2.0, seed=1)
        results = run_des_batch(cfg, replicas=6)
        assert any(r.status == "fatal" for r in results)
        fatal = next(r for r in results if r.status == "fatal")
        assert len(fatal.fatal_group) == 2
        assert np.isfinite(fatal.fatal_time)


class TestPresetBytes:
    """Every shipped preset's DES output is pinned, byte for byte.

    Each digest is the sha256 of the ordered results file of the preset
    as shipped (DES backend, its own failure law and trace sharing) at
    4 replicas and seed 4242.  The digests were recorded before the
    platform machine walked phase ends inline between queued events, so
    any change to the DES's event handling that moves a single byte of
    any preset fails here, not only on ``high-churn`` and the goldens.
    """

    DIGESTS = {
        "exa-weibull":
            "7b1ba1be9059f6429acc4e34d314551224874163452215ad55b0ce7f5730de6a",
        "hetero-mtbf":
            "514b2864dec512d4f07c9ac0453951287a5871a8bdbfe0a32d3a39f898a87d8c",
        "high-churn":
            "f1e9fbf305f39ce9e74694c9eed3c5fa2db0eb2d3962bb2eee2b179b92c51a68",
        "slow-storage":
            "436e9b49782cf42f29dea44ecc29df1d9a24ccc9dd8586a6d4e3216b6b791647",
        "smoke":
            "7e685b1aa6098017568ad780d0195c4d02370f37436a5ab475651cc1d26f1e64",
        "trace-bootstrap":
            "68014b9c60da9f4ba63c134c06f1f693b604d215b84da8aec49f1709b654299e",
        "weibull-wearout":
            "2bc5e0a89e221cf24ad6941b6e5ccdb44b61e7331c581f75ccb4eaed08713d13",
    }

    def test_every_preset_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(CAMPAIGN_PRESETS)

    @pytest.mark.parametrize("key", sorted(CAMPAIGN_PRESETS))
    def test_des_bytes(self, key, tmp_path):
        spec = CAMPAIGN_PRESETS[key].spec(replicas=4, seed=4242)
        assert spec.policy.backend == "des"
        assert spec.policy.sink == "ordered"
        path = tmp_path / f"{key}.jsonl"
        session = CampaignSession(spec, results_path=path)
        for _ in session.events():
            pass
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.DIGESTS[key]
