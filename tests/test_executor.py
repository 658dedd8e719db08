"""Parallel campaign executor: planning, bit-identity, resume.

The engine's contract is strong: sharded multi-process execution must be
*bit-identical* to the serial path (same cells, same JSONL bytes), and
resuming a truncated results file must complete the grid without
re-running or duplicating finished cells.  These tests pin both down.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import DOUBLE_BLOCKING, DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim import backends
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec, plan_cells
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy


def make_config(**overrides) -> CampaignConfig:
    """The acceptance grid: 2 protocols × 3 M × 1 φ × 4 replicas."""
    fields = dict(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0, 600.0, 1200.0),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=4,
        seed=2026,
        share_traces=True,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


def make_spec(policy: ExecutionPolicy = ExecutionPolicy(),
              **overrides) -> CampaignSpec:
    """The acceptance grid (with ``overrides``) under ``policy``."""
    return CampaignSpec(grid=make_config(**overrides), policy=policy)


def canonical(cells):
    """Cells as their serialised envelopes (NaN-safe exact comparison)."""
    return [
        (c.protocol, c.M, c.phi, repro_io.dump_result(c.summary),
         tuple(repro_io.dump_result(r) for r in c.results))
        for c in cells
    ]


class TestPlanning:
    def test_serial_order(self):
        plans = plan_cells(make_config(phi_values=(0.5, 2.0)))
        assert [p.index for p in plans] == list(range(12))
        # protocol-major, then M, then phi — the serial iteration order
        assert (plans[0].protocol, plans[0].M, plans[0].phi) == ("double-nbl", 300.0, 0.5)
        assert (plans[1].phi, plans[2].M) == (2.0, 600.0)
        assert plans[6].protocol == "triple"

    def test_effective_phi_tracks_protocol(self):
        plans = plan_cells(make_config(protocols=(DOUBLE_NBL, DOUBLE_BLOCKING)))
        by_proto = {p.protocol: p for p in plans}
        assert by_proto["double-nbl"].effective_phi == 1.0
        # DOUBLE-BLOCKING pins phi = theta_min = R regardless of the request
        assert by_proto["double-blocking"].effective_phi == pytest.approx(4.0)

    def test_rejects_indivisible_node_count(self):
        cfg = make_config(base_params=scenarios.BASE.parameters(M=600.0, n=16))
        with pytest.raises(ParameterError, match="group size"):
            plan_cells(cfg)  # triple needs n % 3 == 0

    def test_rejects_collapsed_phi_sweep(self):
        """DOUBLE-BLOCKING pins every phi to theta_min: sweeping phi with
        it would produce bit-identical duplicate cells."""
        cfg = make_config(protocols=(DOUBLE_BLOCKING,),
                          phi_values=(1.0, 2.0, 4.0))
        with pytest.raises(ParameterError, match="same effective"):
            plan_cells(cfg)


class TestSerialEngineParity:
    """workers=1 must reproduce the historical serial path exactly."""

    def test_chunk_size_is_invisible(self, tmp_path):
        files = {}
        for chunk in (1, 2, 5):
            path = tmp_path / f"c{chunk}.jsonl"
            execution = execute_spec(
                make_spec(ExecutionPolicy(chunk_size=chunk)),
                results_path=path,
            )
            assert execution.report.cells_run == 6
            files[chunk] = path.read_bytes()
        assert files[1] == files[2] == files[5]

    def test_campaign_facade_matches_execute_spec(self, tmp_path):
        facade = Campaign(make_spec()).run(tmp_path / "a.jsonl")
        execution = execute_spec(make_spec(), results_path=tmp_path / "b.jsonl")
        assert canonical(facade.cells) == canonical(execution.cells)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.campaign
class TestParallelBitIdentity:
    def test_workers_match_serial(self, tmp_path):
        serial = execute_spec(make_spec(),
                              results_path=tmp_path / "serial.jsonl")
        parallel = execute_spec(make_spec(ExecutionPolicy(workers=2)),
                                results_path=tmp_path / "par.jsonl")
        assert canonical(serial.cells) == canonical(parallel.cells)
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "par.jsonl").read_bytes()

    def test_without_shared_traces(self, tmp_path):
        serial = execute_spec(make_spec(share_traces=False))
        parallel = execute_spec(make_spec(
            ExecutionPolicy(workers=2, chunk_size=1), share_traces=False,
        ))
        assert canonical(serial.cells) == canonical(parallel.cells)


class TestResume:
    @pytest.fixture()
    def finished(self, tmp_path):
        """A completed campaign: (config factory, full file bytes, cells)."""
        path = tmp_path / "campaign.jsonl"
        cells = execute_spec(make_spec(), results_path=path).cells
        return path, path.read_bytes(), cells

    def test_resume_truncated_mid_cell(self, finished, monkeypatch):
        path, full, cells = finished
        lines = full.split(b"\n")
        # Keep 1.5 cells: one complete cell (4 replicas) + 2 runs + a torn record.
        path.write_bytes(b"\n".join(lines[:6]) + b"\n" + lines[6][:25])

        calls = []
        real_run_des = backends.run_des
        monkeypatch.setattr(
            backends, "run_des", lambda cfg: calls.append(cfg) or real_run_des(cfg)
        )
        execution = execute_spec(make_spec(), results_path=path, resume=True)
        assert execution.report.cells_skipped == 1
        assert execution.report.cells_run == 5
        # The finished cell was not re-simulated: only 5 cells × 4 replicas ran.
        assert len(calls) == 20
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full

    def test_resume_complete_file_runs_nothing(self, finished):
        path, full, cells = finished
        execution = execute_spec(make_spec(), results_path=path, resume=True)
        assert execution.report.cells_run == 0
        assert execution.report.cells_skipped == 6
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full

    def test_resume_missing_file_runs_everything(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        execution = execute_spec(make_spec(), results_path=path, resume=True)
        assert execution.report.cells_skipped == 0
        assert execution.report.cells_run == 6

    def test_resume_requires_results_path(self):
        with pytest.raises(ParameterError, match="results_path"):
            execute_spec(make_spec(), resume=True)

    def test_resume_rejects_foreign_file(self, finished):
        path, full, _ = finished
        other = make_spec(m_values=(450.0, 900.0, 1800.0))
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(other, results_path=path, resume=True)
        assert path.read_bytes() == full  # refused before touching the file

    def test_resume_rejects_changed_seed(self, finished):
        """Resuming under a different seed would mix two campaigns'
        replicas into one irreproducible result set."""
        path, full, _ = finished
        with pytest.raises(ParameterError, match="seed"):
            execute_spec(make_spec(seed=2027), results_path=path,
                         resume=True)
        assert path.read_bytes() == full

    def test_resume_checks_partial_trailing_cell(self, finished):
        """Even without a manifest, a lone sub-replica record is
        identity-checked: a foreign file must be refused, not silently
        truncated to nothing."""
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()  # legacy file
        first_line = full.split(b"\n")[0] + b"\n"
        path.write_bytes(first_line)  # 1 record < replicas=4
        other = make_spec(m_values=(450.0, 900.0, 1800.0))
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(other, results_path=path, resume=True)
        assert path.read_bytes() == first_line

    def test_resume_rejects_oversized_file(self, finished):
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()
        smaller = make_spec(m_values=(300.0, 600.0))
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(smaller, results_path=path, resume=True)
        assert path.read_bytes() == full

    @pytest.mark.parametrize(
        "drift",
        [
            dict(work_target=1200.0),
            dict(share_traces=False),
            dict(replicas=5),
            dict(max_time=50_000.0),
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_manifest_refuses_config_drift(self, finished, drift):
        """Settings invisible in per-record metadata still refuse resume."""
        path, full, _ = finished
        with pytest.raises(ParameterError, match="configuration changed"):
            execute_spec(make_spec(**drift), results_path=path,
                         resume=True)
        assert path.read_bytes() == full

    def test_manifest_refuses_changed_distribution(self, finished):
        from repro.sim.distributions import Weibull

        path, full, _ = finished
        drifted = make_spec(distribution=Weibull(1.0, 0.7))
        with pytest.raises(ParameterError, match="distribution"):
            execute_spec(drifted, results_path=path, resume=True)
        assert path.read_bytes() == full

    def test_manifestless_resume_rejects_changed_work_target(self, finished):
        """work_target rides on every record, so even without a manifest a
        different workload refuses instead of mixing campaigns."""
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(make_spec(work_target=1800.0), results_path=path,
                         resume=True)
        assert path.read_bytes() == full

    def test_manifestless_resume_rejects_changed_node_count(self, finished):
        """Per-record checks catch a different platform size even when the
        manifest sidecar is gone (protocol/M/phi/seed alone cannot)."""
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()
        drifted = make_spec(
            base_params=scenarios.BASE.parameters(M=600.0, n=24)
        )
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(drifted, results_path=path, resume=True)
        assert path.read_bytes() == full

    def test_resume_refuses_unrecognisable_file(self, tmp_path):
        """A file with zero intact records and no vouching manifest may be
        anything the user points at — refuse, never truncate it."""
        path = tmp_path / "notes.txt"
        path.write_text("precious non-campaign content\n")
        with pytest.raises(ParameterError, match="no intact campaign records"):
            execute_spec(make_spec(), results_path=path, resume=True)
        assert path.read_text() == "precious non-campaign content\n"

    def test_resume_own_file_torn_in_first_record(self, finished):
        """Our own manifest vouches for a campaign interrupted before the
        first record completed: resume restarts from scratch cleanly."""
        path, full, cells = finished
        path.write_bytes(full.split(b"\n")[0][:30])  # torn record 0
        execution = execute_spec(make_spec(), results_path=path, resume=True)
        assert execution.report.cells_skipped == 0
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full

    def test_manifest_distinguishes_empirical_data(self, tmp_path):
        """Two Empirical laws with the same mean but different samples
        must not be interchangeable across a resume."""
        from repro.sim.distributions import Empirical

        path = tmp_path / "emp.jsonl"
        small = dict(m_values=(300.0,), phi_values=(1.0,), replicas=2)
        execute_spec(
            make_spec(distribution=Empirical([1.0, 2.0, 3.0]), **small),
            results_path=path,
        )
        drifted = make_spec(distribution=Empirical([2.0, 2.0, 2.0]), **small)
        with pytest.raises(ParameterError, match="distribution"):
            execute_spec(drifted, results_path=path, resume=True)

    def test_resume_without_manifest_still_works(self, finished):
        """Pre-manifest files resume via the per-record checks alone."""
        path, full, cells = finished
        path.with_name(path.name + ".manifest").unlink()
        lines = full.split(b"\n")
        path.write_bytes(b"\n".join(lines[:9]) + b"\n")
        execution = execute_spec(make_spec(), results_path=path, resume=True)
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full

    def test_invalid_workers_does_not_wipe_results(self, finished):
        path, full, _ = finished
        with pytest.raises(ParameterError, match="workers"):
            execute_spec(make_spec(ExecutionPolicy(workers=-1)),
                         results_path=path)
        with pytest.raises(ParameterError, match="chunk_size"):
            execute_spec(make_spec(ExecutionPolicy(chunk_size=0)),
                         results_path=path)
        assert path.read_bytes() == full

    def test_without_resume_truncates(self, finished):
        path, full, _ = finished
        execution = execute_spec(make_spec(), results_path=path)
        assert execution.report.cells_run == 6
        assert path.read_bytes() == full

    @pytest.mark.campaign
    def test_parallel_resume_matches_serial_file(self, finished):
        path, full, cells = finished
        lines = full.split(b"\n")
        path.write_bytes(b"\n".join(lines[:9]) + b"\n")  # 2 cells + 1 run
        execution = execute_spec(
            make_spec(ExecutionPolicy(workers=2)), results_path=path,
            resume=True,
        )
        assert execution.report.cells_skipped == 2
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full


class TestBackendInjection:
    def test_custom_backend_is_used(self, tmp_path):
        """The executor is backend-agnostic: anything honouring the
        CampaignBackend contract (chunks in any order, each exactly once)
        produces identical cells and — under the ordered sink — identical
        bytes, because the executor re-sequences emissions itself."""
        from repro.sim.backends import CampaignBackend, SerialBackend

        class ReversedBackend(CampaignBackend):
            """Completes chunks in reverse submission order."""

            def execute(self, config, chunks, controller):
                inner = SerialBackend()
                yield from reversed(list(inner.execute(config, chunks, controller)))

        a, b = tmp_path / "serial.jsonl", tmp_path / "reversed.jsonl"
        serial = execute_spec(make_spec(), results_path=a)
        rev = execute_spec(
            make_spec(ExecutionPolicy(chunk_size=1)), results_path=b,
            backend=ReversedBackend(),
        )
        assert canonical(serial.cells) == canonical(rev.cells)
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_describe(self, tmp_path):
        execution = execute_spec(make_spec())
        text = execution.report.describe()
        assert "6/6 cells run" in text and "workers=1" in text
        assert "sink=ordered" in text and "replicas=24" in text

    def test_replica_budget_counts_fresh_work_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        full = execute_spec(make_spec(), results_path=path)
        assert full.report.replicas_run == 24
        resumed = execute_spec(make_spec(), results_path=path, resume=True)
        assert resumed.report.replicas_run == 0

    def test_on_cell_callback_order(self):
        seen = []
        execute_spec(
            make_spec(), on_cell=lambda c: seen.append((c.protocol, c.M)),
        )
        assert seen == [
            ("double-nbl", 300.0), ("double-nbl", 600.0), ("double-nbl", 1200.0),
            ("triple", 300.0), ("triple", 600.0), ("triple", 1200.0),
        ]

    def test_invalid_worker_and_chunk_counts(self):
        with pytest.raises(ParameterError, match="workers"):
            ExecutionPolicy(workers=-1)
        with pytest.raises(ParameterError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)
