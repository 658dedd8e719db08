"""CampaignSpec / ExecutionPolicy / Campaign: the declarative surface.

The contract under test: one serializable object describes a whole
campaign; ``from_dict(to_dict(spec)) == spec`` exactly (property-tested
over every preset and randomised policies); manifests store the spec
verbatim so drift is spec inequality; and a manifest that holds no spec
is refused, never guessed at.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro.errors import ParameterError
from repro.sim.adaptive import AdaptiveCI, FixedReplicas, WilsonSuccessRate
from repro.sim.campaign import CampaignConfig
from repro.sim.distributions import (
    Empirical,
    Exponential,
    Mixture,
    Weibull,
    distribution_from_dict,
)
from repro.sim.executor import execute_spec
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy


def make_grid(**overrides) -> CampaignConfig:
    fields = dict(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0, 600.0),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=2,
        seed=2026,
        share_traces=True,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("key", sorted(scenarios.CAMPAIGN_PRESETS))
    def test_every_preset_round_trips(self, key):
        spec = scenarios.get_campaign_preset(key).spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("key", sorted(scenarios.CAMPAIGN_PRESETS))
    def test_every_preset_survives_json_text(self, key):
        """Through actual JSON text, not just dicts (float spelling)."""
        spec = scenarios.get_campaign_preset(key).spec()
        assert CampaignSpec.from_dict(json.loads(spec.to_json())) == spec

    # One strategy per policy knob; queue fields stay consistent by
    # construction (queue implies framed sink and workers=1).
    policies = st.builds(
        ExecutionPolicy,
        workers=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        sink=st.sampled_from(["ordered", "framed"]),
        lease_timeout=st.floats(min_value=0.1, max_value=600.0,
                                allow_nan=False),
        poll_interval=st.floats(min_value=0.01, max_value=5.0,
                                allow_nan=False),
    )

    @settings(max_examples=40, deadline=None)
    @given(policy=policies, data=st.data())
    def test_random_spec_round_trips(self, policy, data):
        from dataclasses import replace

        controller = data.draw(st.sampled_from([
            None,
            AdaptiveCI(max_replicas=2, tolerance=0.05),
            WilsonSuccessRate(max_replicas=2, tolerance=0.2),
        ]))
        policy = replace(policy, controller=controller)
        dist = data.draw(st.sampled_from([
            None,
            Weibull(1.0, 0.7),
            Empirical([0.5, 1.0, 2.5]),
            Mixture([Exponential(0.25), Exponential(1.25)], [0.2, 0.8]),
        ]))
        spec = CampaignSpec(grid=make_grid(distribution=dist), policy=policy)
        assert CampaignSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_distribution_round_trip_is_lossless(self):
        for dist in (
            Exponential(3.0),
            Weibull(2.0, 0.7),
            Empirical([1.0, 2.0, 4.0]),
            Mixture([Exponential(0.25), Exponential(1.1875)], [0.2, 0.8]),
        ):
            clone = distribution_from_dict(dist.to_dict())
            assert clone == dist
            assert clone.mean() == pytest.approx(dist.mean())

    def test_equality_is_by_value_not_identity(self):
        assert make_grid(distribution=Weibull(1.0, 0.7)) == \
            make_grid(distribution=Weibull(1.0, 0.7))
        assert Weibull(1.0, 0.7) != Weibull(1.0, 2.0)
        assert Empirical([1.0, 2.0]) != Empirical([2.0, 1.0])

    def test_explicit_fixed_replicas_normalises_to_default(self):
        spec = CampaignSpec(
            grid=make_grid(),
            policy=ExecutionPolicy(controller=FixedReplicas(2)),
        )
        assert spec.policy.controller is None
        assert spec == CampaignSpec(grid=make_grid())


class TestVersionGating:
    def test_unsupported_version_is_refused_by_number(self):
        data = CampaignSpec(grid=make_grid()).to_dict()
        data["version"] = 99
        with pytest.raises(ParameterError, match="version 99"):
            CampaignSpec.from_dict(data)

    def test_wrong_format_is_refused(self):
        with pytest.raises(ParameterError, match="format"):
            CampaignSpec.from_dict({"format": "something-else", "version": 1})

    def test_unknown_fields_are_refused(self):
        data = CampaignSpec(grid=make_grid()).to_dict()
        data["grid"]["workers"] = 4  # policy field misplaced into the grid
        with pytest.raises(ParameterError, match="unknown grid field"):
            CampaignSpec.from_dict(data)
        data = CampaignSpec(grid=make_grid()).to_dict()
        data["policy"]["sinc"] = "framed"
        with pytest.raises(ParameterError, match="sinc"):
            CampaignSpec.from_dict(data)

    def test_omitted_optional_fields_take_defaults(self):
        data = CampaignSpec(grid=make_grid()).to_dict()
        for key in ("replicas", "seed", "share_traces", "max_time",
                    "distribution"):
            del data["grid"][key]
        del data["policy"]
        spec = CampaignSpec.from_dict(data)
        assert spec.grid.replicas == 5 and spec.grid.seed == 777
        assert spec.policy == ExecutionPolicy()

    def test_unknown_controller_kind_is_refused(self):
        data = CampaignSpec(grid=make_grid()).to_dict()
        data["policy"]["controller"] = {"kind": "MedianOfMeans"}
        with pytest.raises(ParameterError, match="MedianOfMeans"):
            CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_results_path_is_not_spec_state(self):
        data = CampaignSpec(grid=make_grid()).to_dict()
        data["grid"]["results_path"] = "r.jsonl"
        with pytest.raises(ParameterError, match="results_path"):
            CampaignSpec.from_dict(data)

    def test_queue_with_workers_rejected_at_spec_time(self):
        """The satellite: refused when the policy is *built*, long before
        any executor or results file is involved."""
        with pytest.raises(ParameterError, match="workers"):
            ExecutionPolicy(queue="q", sink="framed", workers=4)
        # None/0 spell "every core" — an explicit parallelism request a
        # single-process queue worker would silently drop.
        with pytest.raises(ParameterError, match="workers"):
            ExecutionPolicy(queue="q", sink="framed", workers=None)
        with pytest.raises(ParameterError, match="workers"):
            ExecutionPolicy(queue="q", sink="framed", workers=0)

    def test_queue_requires_framed_sink_at_spec_time(self):
        with pytest.raises(ParameterError, match="sink='framed'"):
            ExecutionPolicy(queue="q")

    def test_bad_workers_and_chunks(self):
        with pytest.raises(ParameterError, match="workers"):
            ExecutionPolicy(workers=-1)
        with pytest.raises(ParameterError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(ParameterError, match="sink"):
            ExecutionPolicy(sink="sideways")

    def test_controller_budget_must_match_grid(self):
        with pytest.raises(ParameterError, match="max_replicas"):
            CampaignSpec(
                grid=make_grid(replicas=2),
                policy=ExecutionPolicy(
                    sink="framed",
                    controller=AdaptiveCI(max_replicas=5, tolerance=0.1),
                ),
            )

    def test_protocol_objects_normalise_to_keys(self):
        spec = CampaignSpec(grid=make_grid())
        assert spec.grid.protocols == ("double-nbl", "triple")


# ----------------------------------------------------------------------
# Spec-driven execution
# ----------------------------------------------------------------------
class TestSpecExecution:
    def test_manifest_is_the_spec_verbatim(self, tmp_path):
        path = tmp_path / "r.jsonl"
        spec = CampaignSpec(grid=make_grid())
        Campaign(spec).run(path)
        stored = json.loads(path.with_name("r.jsonl.manifest").read_text())
        assert CampaignSpec.from_dict(stored) == spec.identity()

    def test_resume_completes_and_matches(self, tmp_path):
        path = tmp_path / "r.jsonl"
        spec = CampaignSpec(grid=make_grid())
        Campaign(spec).run(path)
        full = path.read_bytes()
        path.write_bytes(b"\n".join(full.split(b"\n")[:3]) + b"\n")
        execution = Campaign(spec).resume(path)
        assert path.read_bytes() == full
        assert execution.report.cells_skipped == 1

    def test_resume_under_drifted_spec_is_spec_inequality(self, tmp_path):
        path = tmp_path / "r.jsonl"
        Campaign(CampaignSpec(grid=make_grid())).run(path)
        drifted = CampaignSpec(grid=make_grid(seed=9))
        with pytest.raises(ParameterError, match="seed"):
            Campaign(drifted).resume(path)

    def test_resume_ignores_volatile_policy_drift(self, tmp_path):
        """Worker count and chunking may change between run and resume —
        they cannot change output bytes, so they are not drift."""
        path = tmp_path / "r.jsonl"
        Campaign(CampaignSpec(grid=make_grid())).run(path)
        full = path.read_bytes()
        path.write_bytes(b"\n".join(full.split(b"\n")[:3]) + b"\n")
        repoliced = CampaignSpec(
            grid=make_grid(), policy=ExecutionPolicy(workers=1, chunk_size=1),
        )
        Campaign(repoliced).resume(path)
        assert path.read_bytes() == full

    def test_resume_refuses_version1_manifest(self, tmp_path):
        """A pre-spec (version-1) manifest cannot be checked against the
        spec, so resume refuses it by name instead of treating it as
        missing and silently dropping the drift check."""
        path = tmp_path / "r.jsonl"
        spec = CampaignSpec(grid=make_grid())
        Campaign(spec).run(path)
        path.write_bytes(b"\n".join(path.read_bytes().split(b"\n")[:3])
                         + b"\n")
        partial = path.read_bytes()
        path.with_name("r.jsonl.manifest").write_text(json.dumps({
            "format": "repro-campaign-manifest", "version": 1,
            "protocols": ["double-nbl", "triple"], "seed": 2026,
            "replicas": 2, "sink": "ordered", "adaptive": None,
        }, sort_keys=True) + "\n")
        with pytest.raises(ParameterError,
                           match="repro-campaign-manifest") as info:
            Campaign(spec).resume(path)
        assert "refusing to resume" in str(info.value)
        assert path.read_bytes() == partial

    @pytest.mark.parametrize("text", ["", "{\"grid\": "])
    def test_torn_manifest_falls_back_to_record_checks(
        self, tmp_path, text
    ):
        path = tmp_path / "r.jsonl"
        spec = CampaignSpec(grid=make_grid())
        Campaign(spec).run(path)
        full = path.read_bytes()
        path.write_bytes(b"\n".join(full.split(b"\n")[:3]) + b"\n")
        path.with_name("r.jsonl.manifest").write_text(text)
        Campaign(spec).resume(path)
        assert path.read_bytes() == full

    def test_execute_spec_rejects_configs(self):
        with pytest.raises(ParameterError,
                           match=r"wrap a grid as CampaignSpec\(grid=config\)"):
            execute_spec(make_grid())

    def test_facade_report_without_persistence(self):
        campaign = Campaign(CampaignSpec(grid=make_grid(
            m_values=(300.0,), replicas=1,
        )))
        campaign.run()
        text = campaign.report()
        assert "campaign results" in text and "cells run" in text

    def test_facade_report_streams_persisted_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        campaign = Campaign(CampaignSpec(grid=make_grid()))
        campaign.run(path)
        assert "no re-simulation" in campaign.report()

    def test_facade_report_follows_the_last_run(self, tmp_path):
        """An unpersisted run after a persisted one must not report the
        stale file."""
        campaign = Campaign(CampaignSpec(grid=make_grid()))
        campaign.run(tmp_path / "r.jsonl")
        campaign.run()  # in-memory
        assert "no re-simulation" not in campaign.report()
        assert "cells run" in campaign.report()

    def test_facade_by_preset_name(self):
        campaign = Campaign("smoke")
        assert campaign.spec.grid.protocols == ("double-nbl", "triple")
        with pytest.raises(ParameterError, match="unknown campaign preset"):
            Campaign("nope")

    def test_merge_requires_queue_policy(self):
        with pytest.raises(ParameterError, match="queue"):
            Campaign(CampaignSpec(grid=make_grid())).merge("out.jsonl")


@pytest.mark.campaign
class TestSpecQueue:
    """The distributed path driven purely through specs."""

    def test_queue_run_and_merge_match_single_machine(self, tmp_path):
        grid = make_grid()
        queued = CampaignSpec(grid=grid, policy=ExecutionPolicy(
            sink="framed", queue=str(tmp_path / "q"), worker_id="w1",
            lease_timeout=60.0,
        ))
        Campaign(queued).run()
        merged = tmp_path / "merged.jsonl"
        report = Campaign(queued).merge(merged)
        assert report.cells == 4

        reference = tmp_path / "ref.jsonl"
        Campaign(CampaignSpec(
            grid=grid, policy=ExecutionPolicy(sink="framed"),
        )).run(reference)
        assert merged.read_bytes() == reference.read_bytes()
        # The merged manifest is the spec fingerprint, so the merged file
        # resumes (no-op here) under the single-machine framed spec.
        stored = json.loads(
            merged.with_name("merged.jsonl.manifest").read_text()
        )
        assert CampaignSpec.from_dict(stored) == CampaignSpec(
            grid=grid, policy=ExecutionPolicy(sink="framed"),
        ).identity()

    def test_drifted_spec_cannot_join_queue(self, tmp_path):
        queue = str(tmp_path / "q")
        Campaign(CampaignSpec(
            grid=make_grid(),
            policy=ExecutionPolicy(sink="framed", queue=queue),
        )).run()
        drifted = CampaignSpec(
            grid=make_grid(seed=9),
            policy=ExecutionPolicy(sink="framed", queue=queue),
        )
        with pytest.raises(ParameterError, match="different campaign"):
            Campaign(drifted).run()


# ----------------------------------------------------------------------
# WilsonSuccessRate (spec-selectable adaptive rule)
# ----------------------------------------------------------------------
class TestWilsonController:
    def test_stops_early_when_proportion_is_pinned(self):
        # 8 successes out of 8 at 95%: Wilson width shrinks fast.
        rule = WilsonSuccessRate(max_replicas=50, tolerance=0.45,
                                 min_replicas=3, batch=1)
        wastes = [0.1] * 50
        from repro.sim.adaptive import stop_count

        stop = stop_count(rule, wastes)
        assert stop is not None and stop < 50

    def test_never_stops_before_min(self):
        rule = WilsonSuccessRate(max_replicas=10, tolerance=0.99,
                                 min_replicas=4)
        assert not rule.should_stop([0.1])
        assert not rule.should_stop([0.1, 0.1, 0.1])
        assert rule.should_stop([0.1, 0.1, 0.1, 0.1])

    def test_counts_nan_as_failure(self):
        nan = float("nan")
        tight = WilsonSuccessRate(max_replicas=100, tolerance=0.05,
                                  min_replicas=2, batch=1)
        # A mixed run keeps the proportion uncertain: no early stop yet.
        assert not tight.should_stop([0.1, nan, 0.1, nan])

    def test_cursor_agrees_with_should_stop(self):
        import math

        rule = WilsonSuccessRate(max_replicas=30, tolerance=0.3,
                                 min_replicas=3, batch=2)
        wastes = [0.1, float("nan"), 0.2, 0.15, float("nan"), 0.1] * 5
        cursor = rule.cursor()
        for n, w in enumerate(wastes, 1):
            live = cursor.push(w)
            assert live == rule.should_stop(wastes[:n])
            if live:
                break
        assert math.isfinite(rule.tolerance)

    def test_validation(self):
        with pytest.raises(ParameterError, match="tolerance"):
            WilsonSuccessRate(max_replicas=4, tolerance=1.5)
        with pytest.raises(ParameterError, match="max_replicas"):
            WilsonSuccessRate(max_replicas=0, tolerance=0.1)

    def test_selectable_from_spec_and_serialisable(self, tmp_path):
        spec = CampaignSpec(
            grid=make_grid(replicas=2),
            policy=ExecutionPolicy(
                sink="framed",
                controller=WilsonSuccessRate(max_replicas=2, tolerance=0.5),
            ),
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        path = tmp_path / "w.jsonl"
        execution = Campaign(spec).run(path)
        assert execution.report.replicas_run <= 2 * 4
        # And the manifest-carried controller drives the resume replay.
        full = path.read_bytes()
        Campaign(spec).resume(path)
        assert path.read_bytes() == full


# ----------------------------------------------------------------------
# Trace-bootstrap preset
# ----------------------------------------------------------------------
class TestTraceBootstrapPreset:
    def test_registered_and_empirical(self):
        preset = scenarios.get_campaign_preset("trace-bootstrap")
        dist = preset.campaign_config().distribution
        assert isinstance(dist, Empirical)
        assert dist.data.size == len(scenarios.TRACE_INTERARRIVALS)

    def test_trace_is_overdispersed(self):
        """The recorded trace must actually stress clustering (CV > 1) —
        otherwise it duplicates the exponential presets."""
        import numpy as np

        data = np.asarray(scenarios.TRACE_INTERARRIVALS)
        assert data.std() / data.mean() > 1.0

    def test_spec_round_trips_with_trace(self):
        spec = scenarios.get_campaign_preset("trace-bootstrap").spec()
        assert CampaignSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_empirical_grammar_rejects_garbage(self):
        from dataclasses import replace

        preset = scenarios.get_campaign_preset("trace-bootstrap")
        bad = replace(preset, failure_law="empirical:1.0,fast,2.0")
        with pytest.raises(ParameterError, match="empirical"):
            bad.distribution()
