"""The vectorized backend and its identity/equivalence contract.

What must hold (``repro/sim/vectorized.py`` module docstring):

* **Determinism** — vectorized replicas are pure functions of the
  replica key: re-running a cell anywhere reproduces its bytes.
* **Statistical equivalence** — completed-replica waste agrees with the
  DES within combined confidence intervals plus the renewal thinning
  bias, per protocol and per failure law.
* **Common random numbers** — shared-trace cells run vectorized: every
  protocol and φ at one (M, replica) consumes a prefix of one failure
  stream, identical across backends, chunk layouts and workers, and
  paired protocol differences have lower variance than unpaired ones.
* **Separation** — the store never serves one engine's results to the
  other; specs carry the backend in their identity, so resume and queue
  joins refuse a backend change as drift.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DOUBLE_BOF, DOUBLE_NBL, TRIPLE, io as repro_io, scenarios
from repro.errors import InfeasibleModelError, ParameterError
from repro.sim.adaptive import AdaptiveCI, FixedReplicas, WilsonSuccessRate
from repro.sim.backends import (
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    run_cell,
)
from repro.sim.campaign import CampaignConfig
from repro.sim.distributions import Gamma, LogNormal, Mixture, Weibull
from repro.sim.executor import execute_spec, plan_cells
from repro.sim.results import ci_half_width
from repro.sim.spec import CAMPAIGN_BACKENDS, Campaign, CampaignSpec, ExecutionPolicy
from repro.sim.vectorized import (
    plan_engine,
    run_cell_vectorized,
    run_chunk_vectorized,
)
from repro.store import CampaignStore, cell_key, key_hash
from tests.conftest import ALL_PROTOCOLS


def make_grid(*, protocols=(DOUBLE_NBL,), m_values=(600.0,), phi_values=(0.5,),
              replicas=8, work_target=1800.0, n=24, seed=2024,
              **overrides) -> CampaignConfig:
    return CampaignConfig(
        protocols=protocols,
        base_params=scenarios.BASE.parameters(M=600.0, n=n),
        m_values=m_values,
        phi_values=phi_values,
        work_target=work_target,
        replicas=replicas,
        seed=seed,
        **overrides,
    )


def cell_bytes(results) -> list[str]:
    return [repro_io.dump_result(r) for r in results]


class TestEngineSelection:
    def test_plain_cells_vectorize(self):
        config = make_grid()
        plan = plan_cells(config)[0]
        assert plan_engine("vectorized", config, plan) == "vectorized"
        assert plan_engine("des", config, plan) == "des"

    def test_shared_traces_vectorize(self):
        """Shared traces are common random-number streams, not a reason
        to leave the vectorized engine."""
        config = make_grid(share_traces=True)
        plan = plan_cells(config)[0]
        assert plan_engine("vectorized", config, plan) == "vectorized"
        assert plan_engine("des", config, plan) == "des"

    def test_make_backend_dispatch(self):
        serial = make_backend(1, "vectorized")
        assert type(serial) is SerialBackend
        assert serial.engine == "vectorized"
        assert isinstance(make_backend(1, "des"), SerialBackend)
        assert make_backend(1, "des").engine == "des"
        pooled = make_backend(2, "vectorized")
        assert isinstance(pooled, ProcessPoolBackend)
        assert pooled.engine == "vectorized"
        with pytest.raises(ParameterError, match="unknown backend"):
            make_backend(1, "warp-drive")


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        """Replica bytes are pure functions of the replica key — the
        store's convergent-publish invariant."""
        config = make_grid()
        plan = plan_cells(config)[0]
        a = run_cell_vectorized(config, plan, FixedReplicas(8))
        b = run_cell_vectorized(config, plan, FixedReplicas(8))
        assert cell_bytes(a) == cell_bytes(b)

    def test_replicas_independent_of_batch_shape(self):
        """Replica r's bytes must not depend on how many replicas were
        batched with it (else two campaigns could not share cells)."""
        config = make_grid()
        plan = plan_cells(config)[0]
        few = run_cell_vectorized(config, plan, FixedReplicas(3))
        many = run_cell_vectorized(config, plan, FixedReplicas(8))
        assert cell_bytes(few) == cell_bytes(many)[:3]

    def test_adaptive_controller_truncates_like_scalar(self):
        """The stop cursor replays over the batch: a generous tolerance
        stops after the minimum replica count, like run_cell."""
        config = make_grid(replicas=16)
        plan = plan_cells(config)[0]
        controller = AdaptiveCI(max_replicas=16, tolerance=1e9)
        stopped = run_cell_vectorized(config, plan, controller)
        full = run_cell_vectorized(config, plan, FixedReplicas(16))
        assert len(stopped) < 16
        assert cell_bytes(stopped) == cell_bytes(full)[:len(stopped)]

    def test_infeasible_cell_raises_like_des(self):
        config = make_grid(m_values=(15.0,), n=12, phi_values=(1.0,))
        plan = plan_cells(config)[0]
        with pytest.raises(InfeasibleModelError):
            run_cell_vectorized(config, plan, FixedReplicas(2))
        with pytest.raises(InfeasibleModelError):
            run_cell(config, plan, FixedReplicas(2), {})

    def test_meta_matches_des_vocabulary(self):
        """Reports group on meta keys: the vectorized engine must emit
        the DES vocabulary (plus its engine marker)."""
        config = make_grid()
        plan = plan_cells(config)[0]
        vec = run_cell_vectorized(config, plan, FixedReplicas(2))[0]
        des = run_cell(config, plan, FixedReplicas(2), {})[0]
        assert set(des.meta) | {"engine"} == set(vec.meta)
        for key in ("protocol", "period", "phi", "seed", "n", "M"):
            assert vec.meta[key] == des.meta[key]
        assert vec.meta["engine"] == "vectorized"


def shared_grid(**overrides) -> CampaignConfig:
    """A small shared-trace grid: 3 protocols × 2 M × 2 φ."""
    fields = dict(protocols=(DOUBLE_NBL, DOUBLE_BOF, TRIPLE),
                  m_values=(300.0, 600.0), phi_values=(0.5, 1.0),
                  replicas=4, work_target=900.0, n=12, share_traces=True)
    fields.update(overrides)
    return make_grid(**fields)


def campaign_bytes(tmp_path, name, grid, *, chunk_size=None,
                   backend=None) -> bytes:
    path = tmp_path / f"{name}.jsonl"
    policy = ExecutionPolicy(backend="vectorized", chunk_size=chunk_size)
    execute_spec(CampaignSpec(grid=grid, policy=policy),
                 results_path=path, backend=backend)
    return path.read_bytes()


def paired_variance(a: dict, b: dict) -> float:
    """Variance of ``waste_p(a) − waste_q(b)`` per replica, summed over
    protocol pairs ``p < q`` at every fixed (M, φ) — completed replica
    pairs only."""
    total = 0.0
    for (p, M, phi), waste in a.items():
        for (q, M_b, phi_b), other in b.items():
            if (M_b, phi_b) != (M, phi) or q <= p:
                continue
            diff = waste - other
            diff = diff[np.isfinite(diff)]
            if diff.size > 1:
                total += float(np.var(diff, ddof=1))
    return total


def cell_wastes(spec) -> dict:
    execution = execute_spec(spec)
    return {
        (c.protocol, c.M, c.phi): np.array([r.waste for r in c.results])
        for c in execution.cells
    }


class TestCommonRandomNumbers:
    def test_campaign_identical_across_chunk_layouts(self, tmp_path):
        grid = shared_grid()
        serial = campaign_bytes(tmp_path, "serial", grid)
        for size in (1, 5):
            assert campaign_bytes(tmp_path, f"chunk{size}", grid,
                                  chunk_size=size) == serial

    @pytest.mark.campaign
    def test_campaign_identical_across_backends(self, tmp_path):
        grid = shared_grid()
        serial = campaign_bytes(tmp_path, "serial", grid,
                                backend=SerialBackend("vectorized"))
        pooled = campaign_bytes(tmp_path, "pool", grid, chunk_size=2,
                                backend=ProcessPoolBackend(2, "vectorized"))
        assert pooled == serial

    def test_shared_replicas_independent_of_batch_shape(self):
        grid = shared_grid(replicas=8)
        for plan in plan_cells(grid):
            few = run_cell_vectorized(grid, plan, FixedReplicas(3))
            many = run_cell_vectorized(grid, plan, FixedReplicas(8))
            assert cell_bytes(few) == cell_bytes(many)[:3]

    @pytest.mark.parametrize("law", [None, Weibull(1.0, 0.7)],
                             ids=["exponential", "weibull"])
    def test_protocols_consume_one_stream(self, law):
        """Every cell of a row takes a prefix of one stream: ordered by
        the productive time that bounds the prefix, a completed
        replica's failure count never decreases across protocols/φ."""
        from repro.core.period import optimal_period
        from repro.core.protocols import get_protocol

        # Tens of failures per replica: streams sampled per cell, over
        # per-cell horizons, draw counts and batch shapes that no longer
        # nest, so only a horizon common to the row passes.
        grid = shared_grid(m_values=(300.0,), work_target=7200.0,
                           replicas=16, distribution=law)
        params = grid.base_params.with_updates(M=300.0)
        by_productive = []
        for plan in plan_cells(grid):
            spec = get_protocol(plan.protocol)
            period = optimal_period(spec, params, plan.phi)
            productive = (period * grid.work_target
                          / spec.work_per_period(params, plan.phi, period))
            by_productive.append((
                float(productive),
                run_cell_vectorized(grid, plan, FixedReplicas(16)),
            ))
        by_productive.sort(key=lambda item: item[0])
        for r in range(16):
            counts = [cell[r].failures for _, cell in by_productive
                      if cell[r].succeeded]
            assert counts == sorted(counts)
        assert len({p for p, _ in by_productive}) > 1

    def test_capped_grid_times_out(self):
        """A ``max_time`` below every cell's productive time: the shared
        stream, sampled to the cap, is shorter than every prefix, and
        each replica still times out at the cap or dies before it."""
        grid = shared_grid(max_time=600.0)
        for plan in plan_cells(grid):
            results = run_cell_vectorized(grid, plan, FixedReplicas(4))
            assert {r.status for r in results} <= {"timeout", "fatal"}
            for r in results:
                assert r.makespan <= 600.0
                if r.status == "timeout":
                    assert r.makespan == 600.0
                    assert r.work_done < grid.work_target

    def test_cell_bytes_independent_of_grid_composition(self):
        """Bytes are pure functions of the store key: a cell two grids
        share (same seed and M axis, other protocols and φ) has one key
        and the same bytes in both."""
        full = shared_grid()
        narrow = shared_grid(protocols=(DOUBLE_NBL,), phi_values=(1.0,))
        cells = {(p.protocol, p.M, p.phi): p for p in plan_cells(full)}
        for plan in plan_cells(narrow):
            twin = cells[(plan.protocol, plan.M, plan.phi)]
            assert cell_key(narrow, plan, engine="vectorized") \
                == cell_key(full, twin, engine="vectorized")
            assert cell_bytes(run_cell_vectorized(
                narrow, plan, FixedReplicas(4))) == cell_bytes(
                run_cell_vectorized(full, twin, FixedReplicas(4)))

    @pytest.mark.parametrize("law", [None, Weibull(1.0, 0.7)],
                             ids=["exponential", "weibull"])
    def test_shared_marginals_match_own_streams(self, law):
        """A prefix of the shared stream is the non-shared failure
        process: mean failure count and completed-replica waste agree
        within the summed 95% CIs, so the DES contract carries over."""
        def cell(share):
            grid = make_grid(m_values=(300.0,), phi_values=(1.0,),
                             replicas=400, share_traces=share,
                             distribution=law)
            return run_cell_vectorized(grid, plan_cells(grid)[0],
                                       FixedReplicas(400))

        own, shared = cell(False), cell(True)
        for field in ("failures", "waste"):
            a = np.array([getattr(r, field) for r in own], dtype=float)
            b = np.array([getattr(r, field) for r in shared], dtype=float)
            tolerance = ci_half_width(a) + ci_half_width(b)
            assert abs(np.nanmean(a) - np.nanmean(b)) <= tolerance, field

    @pytest.mark.parametrize("preset", ["high-churn", "exa-weibull"])
    def test_paired_differences_have_lower_variance(self, preset):
        """The point of sharing traces: pooled over protocol pairs at
        fixed (M, φ), paired waste differences (one stream per (M,
        replica)) vary less than unpaired ones (the second protocol's
        replicas taken from an independently seeded campaign)."""
        from repro.experiments.scenarios import get_campaign_preset

        def spec(seed):
            return get_campaign_preset(preset).spec(
                replicas=16, seed=seed,
                policy=ExecutionPolicy(backend="vectorized"))

        shared = cell_wastes(spec(2024))
        other = cell_wastes(spec(4048))
        paired = paired_variance(shared, shared)
        unpaired = paired_variance(shared, other)
        assert paired < 0.5 * unpaired, (paired, unpaired)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("protocol", ["double-nbl", "double-bof", "triple"])
    def test_waste_within_combined_intervals(self, protocol):
        """Completed-replica waste agrees with the DES within the summed
        95% CIs plus the renewal thinning-bias allowance — the same
        first-order standard ``experiments/validation.py`` holds the
        renewal estimator to."""
        des_cfg = make_grid(protocols=(protocol,), replicas=40)
        vec_cfg = make_grid(protocols=(protocol,), replicas=200)
        des = run_cell(des_cfg, plan_cells(des_cfg)[0], FixedReplicas(40), {})
        vec = run_cell_vectorized(
            vec_cfg, plan_cells(vec_cfg)[0], FixedReplicas(200)
        )
        w_des = np.array([r.waste for r in des])
        w_vec = np.array([r.waste for r in vec])
        mean_des, mean_vec = np.nanmean(w_des), np.nanmean(w_vec)
        # F/M ≈ waste at these cells; 2·(F/M)² bounds the thinning bias.
        bias = 2.0 * float(mean_des) ** 2
        tolerance = ci_half_width(w_des) + ci_half_width(w_vec) + bias
        assert abs(mean_des - mean_vec) <= tolerance

    @pytest.mark.slow
    @pytest.mark.parametrize("protocol", ["double-nbl", "double-bof", "triple"])
    @pytest.mark.parametrize("law", [
        None,
        Weibull(1.0, 0.7),
        LogNormal(1.0, 1.2),
        Gamma(1.0, 2.0),
        Mixture([Weibull(0.5, 0.7), Weibull(5.0, 0.7)], [0.8, 0.2]),
    ], ids=["exponential", "weibull", "lognormal", "gamma", "mixture"])
    def test_waste_equivalence_per_law(self, protocol, law):
        """The nightly matrix: the contract per protocol × failure law
        (the distribution is rescaled per cell, so mean 1.0 here stands
        for 'shape only')."""
        des_cfg = make_grid(protocols=(protocol,), replicas=60,
                            distribution=law)
        vec_cfg = make_grid(protocols=(protocol,), replicas=400,
                            distribution=law)
        des = run_cell(des_cfg, plan_cells(des_cfg)[0], FixedReplicas(60), {})
        vec = run_cell_vectorized(
            vec_cfg, plan_cells(vec_cfg)[0], FixedReplicas(400)
        )
        w_des = np.array([r.waste for r in des])
        w_vec = np.array([r.waste for r in vec])
        mean_des, mean_vec = np.nanmean(w_des), np.nanmean(w_vec)
        bias = 2.0 * float(mean_des) ** 2
        tolerance = ci_half_width(w_des) + ci_half_width(w_vec) + bias
        assert abs(mean_des - mean_vec) <= tolerance
        if law is None:
            # The success channel is only claimed for the exponential
            # platform: the fatality model's rate λ=1/(nM) understates
            # group chains under bursty (heavy-tailed) laws, where the
            # DES sees clustered failures the first-order model omits.
            assert np.mean([r.succeeded for r in des]) > 0.85
            assert np.mean([r.succeeded for r in vec]) > 0.85


#: Grids whose chunks the partition property splits: shared and own
#: streams, exponential and Weibull laws, a capped horizon (timeouts and
#: deaths), two M rows and three protocols each.
CHUNK_GRIDS = {
    "shared": lambda: shared_grid(),
    "own-streams": lambda: shared_grid(share_traces=False),
    "weibull": lambda: shared_grid(distribution=Weibull(1.0, 0.7)),
    "capped": lambda: shared_grid(m_values=(60.0, 300.0), max_time=2000.0),
}
CHUNK_CONTROLLERS = {
    "fixed": FixedReplicas(6),
    "adaptive-ci": AdaptiveCI(max_replicas=8, tolerance=0.05),
    "wilson": WilsonSuccessRate(max_replicas=8, tolerance=0.5),
}
_ONE_PLAN_RECORDS: dict = {}


def one_plan_records(grid_key: str, controller_key: str) -> dict:
    """Each cell's records from its own one-plan batch, by plan index."""
    key = (grid_key, controller_key)
    if key not in _ONE_PLAN_RECORDS:
        grid = CHUNK_GRIDS[grid_key]()
        controller = CHUNK_CONTROLLERS[controller_key]
        _ONE_PLAN_RECORDS[key] = {
            plan.index: run_chunk_vectorized(grid, [plan], controller)[0].records
            for plan in plan_cells(grid)}
    return _ONE_PLAN_RECORDS[key]


class TestChunkBatch:
    """A chunk runs as one lane batch per grid row, and a cell's bytes
    depend on neither the chunk layout nor the batch's composition."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), grid_key=st.sampled_from(sorted(CHUNK_GRIDS)),
           controller_key=st.sampled_from(sorted(CHUNK_CONTROLLERS)))
    def test_any_partition_matches_one_plan_calls(
            self, data, grid_key, controller_key):
        expected = one_plan_records(grid_key, controller_key)
        grid = CHUNK_GRIDS[grid_key]()
        plans = data.draw(st.permutations(plan_cells(grid)), label="order")
        cuts = sorted(data.draw(st.sets(st.integers(1, len(plans) - 1)),
                                label="cuts"))
        for start, end in zip([0] + cuts, cuts + [len(plans)]):
            chunk = plans[start:end]
            blocks = run_chunk_vectorized(
                grid, chunk, CHUNK_CONTROLLERS[controller_key])
            assert len(blocks) == len(chunk)
            for plan, block in zip(chunk, blocks):
                assert block.records == expected[plan.index], plan

    def test_controllers_truncate_some_cells(self):
        """The adaptive cases above do stop cells early (else they would
        test nothing a fixed controller does not)."""
        for key in ("adaptive-ci", "wilson"):
            lengths = {len(records) for records
                       in one_plan_records("shared", key).values()}
            assert min(lengths) < CHUNK_CONTROLLERS[key].max_replicas, key

    def test_lane_sums_are_numpy_sums(self):
        """Lost-work fractions sum per lane exactly as ``np.sum`` sums
        each lane's run, at every blocking boundary and past 128."""
        from repro.sim.vectorized import _lane_sums

        rng = np.random.default_rng(7)
        counts = np.array([0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300,
                           1000, 3, 0, 64])
        values = rng.random(counts.sum()) * 10.0 ** rng.uniform(
            -3, 3, counts.sum())
        starts = np.cumsum(counts) - counts
        assert _lane_sums(values, counts).tolist() == [
            values[start:start + count].sum()
            for start, count in zip(starts, counts)]

    def test_heartbeat_fires_once_per_row(self):
        grid = shared_grid()
        beats = []
        blocks = run_chunk_vectorized(grid, plan_cells(grid),
                                      FixedReplicas(4),
                                      heartbeat=lambda: beats.append(1))
        assert len(blocks) == len(plan_cells(grid))
        assert len(beats) == len(grid.m_values)
        assert run_chunk_vectorized(grid, [], FixedReplicas(4)) == []


class TestSerialRowBatch:
    """A serial campaign hands every chunk to one engine call: the
    vectorized engine runs each grid row once across all of them and
    yields a chunk once its rows are done, the DES still streams chunk
    by chunk, chunks come back in chunk order, and cancellation stays
    cell-aligned."""

    @staticmethod
    def count_rows(monkeypatch) -> list:
        import repro.sim.vectorized as vectorized

        rows, run_row = [], vectorized._run_row

        def counted(config, plans, controller):
            rows.append([plan.index for plan in plans])
            return run_row(config, plans, controller)

        monkeypatch.setattr(vectorized, "_run_row", counted)
        return rows

    def test_one_engine_pass_per_grid_row(self, monkeypatch):
        expected = one_plan_records("shared", "fixed")
        rows = self.count_rows(monkeypatch)
        grid, controller = shared_grid(), CHUNK_CONTROLLERS["fixed"]
        chunks = [[plan] for plan in plan_cells(grid)]
        produced, rows_run = [], []
        for item in SerialBackend("vectorized").execute(
                grid, chunks, controller):
            produced.append(item)
            rows_run.append(len(rows))
        assert [index for index, _, _ in produced] == list(range(len(chunks)))
        # A chunk streams out once the rows it spans are done.
        assert rows_run == [len({plan.m_index for chunk in chunks[:i + 1]
                                 for plan in chunk})
                            for i in range(len(chunks))]
        assert rows_run[0] == 1
        for (index, blocks, sources), chunk in zip(produced, chunks):
            assert sources == ["backend"] * len(chunk)
            assert [block.records for block in blocks] == [
                expected[plan.index] for plan in chunk]
        assert len(rows) == len(grid.m_values)
        assert sorted(index for row in rows for index in row) == [
            plan.index for plan in plan_cells(grid)]

    def test_session_runs_each_row_once(self, monkeypatch, tmp_path):
        rows = self.count_rows(monkeypatch)
        grid = shared_grid()
        spec = CampaignSpec(grid=grid, policy=ExecutionPolicy(
            backend="vectorized"))
        execution = execute_spec(spec, results_path=tmp_path / "r.jsonl")
        assert execution.report.chunk_size == len(grid.phi_values)
        assert len(rows) == len(grid.m_values)

    def test_des_streams_chunk_by_chunk(self, monkeypatch):
        import repro.sim.backends as backends

        ran: list = []
        monkeypatch.setattr(backends, "run_cell", lambda config, plan, *_:
                            ran.append(plan.index) or plan.index)
        grid = shared_grid()
        plans = plan_cells(grid)
        chunks = [plans[:2], plans[2:5], plans[5:]]
        produced = backends.run_chunks("des", grid, chunks, FixedReplicas(1))
        for chunk in chunks:
            assert next(produced) == [plan.index for plan in chunk]
            assert ran == [plan.index for plan in chunk]
            ran.clear()
        assert next(produced, None) is None

    def test_cancel_after_first_cell_resumes_to_same_bytes(self, tmp_path):
        from repro.errors import CampaignCancelled
        from repro.sim.events import CellFinished, EventConsumer
        from repro.sim.sinks import frame_groups

        spec = CampaignSpec(grid=shared_grid(), policy=ExecutionPolicy(
            backend="vectorized", sink="framed"))
        full, cut = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
        Campaign(spec).run(full)

        class CancelOnFirstCell(EventConsumer):
            def on_event(self, event):
                if isinstance(event, CellFinished):
                    session.cancel()

        session = Campaign(spec).session(cut, consumers=[CancelOnFirstCell()])
        with pytest.raises(CampaignCancelled):
            session.run()
        assert session.state == "cancelled"
        groups = list(frame_groups(cut))
        assert [cell for cell, *_ in groups] == [0]
        assert groups[-1][3] == cut.stat().st_size  # whole cells only
        assert full.read_bytes().startswith(cut.read_bytes())
        Campaign(spec).resume(cut)
        assert cut.read_bytes() == full.read_bytes()


class TestSpecAndResume:
    def test_policy_roundtrip_and_default(self):
        policy = ExecutionPolicy(backend="vectorized")
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy
        legacy = dict(policy.to_dict())
        del legacy["backend"]  # pre-backend manifests
        assert ExecutionPolicy.from_dict(legacy).backend == "des"

    def test_unknown_backend_refused_by_name(self):
        with pytest.raises(ParameterError, match="unknown backend"):
            ExecutionPolicy(backend="warp-drive")
        assert "des" in CAMPAIGN_BACKENDS and "vectorized" in CAMPAIGN_BACKENDS

    def test_backend_is_identity_bearing(self):
        """Engines are equivalent, not identical: the backend must land
        in fingerprints so resume/queue joins see a change as drift."""
        grid = make_grid()
        des = CampaignSpec(grid=grid, policy=ExecutionPolicy(backend="des"))
        vec = CampaignSpec(
            grid=grid, policy=ExecutionPolicy(backend="vectorized")
        )
        assert des.fingerprint() != vec.fingerprint()
        assert des.identity() != vec.identity()

    def test_resume_refuses_backend_drift(self, tmp_path):
        grid = make_grid(replicas=2, work_target=900.0, n=12,
                         phi_values=(1.0,))
        path = tmp_path / "results.jsonl"
        Campaign(CampaignSpec(
            grid=grid, policy=ExecutionPolicy(backend="vectorized"),
        )).run(path)
        with pytest.raises(ParameterError, match="manifest"):
            execute_spec(
                CampaignSpec(grid=grid, policy=ExecutionPolicy(backend="des")),
                results_path=path, resume=True,
            )


class TestVectorizedBytes:
    """Vectorized output is deterministic, so its bytes are pinned: a
    refactor of the engine or of the model it reads must not move them."""

    #: sha256 of the grid below, recorded before the engine read its
    #: model from the resolved per-cell model.
    DIGEST = "1a9f572185a8154b3d24310004351646e1bf1ccdb014f83dd727f6b90e00a727"

    def test_cell_output_is_pinned(self):
        digest = hashlib.sha256()
        statuses = set()
        for law in (None, Weibull(1.0, 0.7)):
            for share in (False, True):
                # M=60 s kills and times out replicas; M=600 s completes.
                grid = make_grid(protocols=tuple(ALL_PROTOCOLS),
                                 m_values=(60.0, 600.0),
                                 phi_values=(0.5,), replicas=4, n=12,
                                 max_time=4000.0, share_traces=share,
                                 distribution=law)
                for plan in plan_cells(grid):
                    results = run_cell_vectorized(
                        grid, plan, FixedReplicas(4))
                    statuses.update(r.status for r in results)
                    for line in cell_bytes(results):
                        digest.update(line.encode())
        assert statuses == {"completed", "fatal", "timeout"}
        assert digest.hexdigest() == self.DIGEST


class TestVectorizedPresetBytes:
    """Every shipped preset's vectorized output is pinned, byte for byte,
    under every chunk layout.

    Each digest is the sha256 of the ordered results file of the preset
    (its own failure law and trace sharing) under ``backend="vectorized"``
    at 4 replicas and seed 4242, recorded before the engine ran a chunk's
    cells as one lane batch.  The same bytes must come out of the
    default chunks (one (protocol, M) row each), one cell per chunk and
    one chunk holding the whole grid (mixed M and protocols), so bytes
    depend on neither the chunk layout nor the batch's composition.
    """

    DIGESTS = {
        "exa-weibull":
            "b4eb2ef269641778ab2d059b56526c0e1b1c68e03a365bdb54f171e3e4335c93",
        "hetero-mtbf":
            "6eab7cf527700654014a511c9bdad6a6aa37f3cb9e0b11761633bebbed17aded",
        "high-churn":
            "f65013b63fa6d2e3cc350dd2c63bcce2da0215a33727c1e1e8af3fd3911cd7ca",
        "slow-storage":
            "0ba5ca82173b51d6f9cf82e6289703688d33db2d6b638a2f5dbf8140738e9a16",
        "smoke":
            "e983e306627a40fc2c97fc0b98df90b9d7cc0bf73392345a9d3c3f3f448e78a9",
        "trace-bootstrap":
            "52ae62a737891290ca9dbe768cc100767f89a43385cab3733e28c7e10368f823",
        "weibull-wearout":
            "64bcac812c69bdbc035d41a6fa7b943a84bda6d491b7074e2b8d2305341f605e",
    }
    #: ``high-churn`` with ``share_traces=False``: every replica its own
    #: stream, drawn per cell.
    UNSHARED_DIGEST = (
        "c6d1aa4d62d7d4126aa0d44a1a86cfc2eed0035807f2112e3428b233053ec335")

    @staticmethod
    def digest(tmp_path, spec, layout, workers=1) -> str:
        chunk_size = {"default": None, "cell": 1,
                      "grid": len(plan_cells(spec.grid))}[layout]
        spec = CampaignSpec(grid=spec.grid, policy=ExecutionPolicy(
            backend="vectorized", chunk_size=chunk_size, workers=workers))
        path = tmp_path / f"{layout}.jsonl"
        execute_spec(spec, results_path=path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_every_preset_is_pinned(self):
        from repro.experiments.scenarios import CAMPAIGN_PRESETS

        assert sorted(self.DIGESTS) == sorted(CAMPAIGN_PRESETS)

    @pytest.mark.parametrize("layout", ["default", "cell", "grid"])
    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_preset_bytes(self, key, layout, tmp_path):
        from repro.experiments.scenarios import get_campaign_preset

        spec = get_campaign_preset(key).spec(replicas=4, seed=4242)
        assert spec.policy.sink == "ordered"
        assert self.digest(tmp_path, spec, layout) == self.DIGESTS[key]

    @pytest.mark.parametrize("key", ["high-churn", "exa-weibull"])
    def test_per_chunk_pool_bytes(self, key, tmp_path):
        """The process pool runs one chunk per task, the grain a serial
        campaign no longer uses: one cell per chunk over two workers
        writes the pinned bytes too."""
        from repro.experiments.scenarios import get_campaign_preset

        spec = get_campaign_preset(key).spec(replicas=4, seed=4242)
        assert self.digest(tmp_path, spec, "cell", workers=2) == \
            self.DIGESTS[key]

    @pytest.mark.parametrize("layout", ["default", "grid"])
    def test_unshared_bytes(self, layout, tmp_path):
        from repro.experiments.scenarios import get_campaign_preset

        spec = get_campaign_preset("high-churn").spec(
            replicas=4, seed=4242, share_traces=False)
        assert self.digest(tmp_path, spec, layout) == self.UNSHARED_DIGEST


class TestStoreSeparation:
    def test_engine_key_field(self):
        config = make_grid()
        plan = plan_cells(config)[0]
        des_key = cell_key(config, plan)
        vec_key = cell_key(config, plan, engine="vectorized")
        assert "engine" not in des_key  # existing warehouses stay valid
        assert vec_key["engine"] == "vectorized"
        assert key_hash(des_key) != key_hash(vec_key)
        with pytest.raises(ParameterError, match="unknown engine"):
            cell_key(config, plan, engine="warp-drive")

    def test_engines_never_share_entries(self, tmp_path):
        config = make_grid(replicas=2)
        plan = plan_cells(config)[0]
        store = CampaignStore(tmp_path / "store")
        vec = run_cell_vectorized(config, plan, FixedReplicas(2))
        store.publish_cell(config, plan, cell_bytes(vec), engine="vectorized")
        assert store.load_cell(config, plan, FixedReplicas(2)) is None
        hit = store.load_cell(
            config, plan, FixedReplicas(2), engine="vectorized"
        )
        assert cell_bytes(hit.results) == cell_bytes(vec)
        assert list(hit.records) == cell_bytes(vec)

    def test_warm_rerun_serves_every_cell(self, tmp_path):
        """Cold vectorized run publishes; an identical warm run performs
        zero simulations and reproduces the results file byte for byte
        — the store contract, now per engine."""
        grid = make_grid(replicas=2, work_target=900.0, n=12,
                         m_values=(300.0, 600.0), phi_values=(1.0,))
        policy = ExecutionPolicy(
            backend="vectorized", store=str(tmp_path / "store"),
        )
        spec = CampaignSpec(grid=grid, policy=policy)
        cold_path = tmp_path / "cold.jsonl"
        warm_path = tmp_path / "warm.jsonl"
        cold = execute_spec(spec, results_path=cold_path)
        warm = execute_spec(spec, results_path=warm_path)
        assert cold.report.cells_cached == 0
        assert warm.report.cells_cached == len(plan_cells(grid))
        assert warm.report.replicas_run == 0
        assert cold_path.read_bytes() == warm_path.read_bytes()
        # Reports resolve the spec's own engine's entries.
        from repro.store import cells_from_store

        cells = cells_from_store(CampaignStore(tmp_path / "store"), spec)
        assert [c.summary for c in cells] == [c.summary for c in cold.cells]

    @pytest.mark.parametrize("first,second", [
        ("des", "vectorized"), ("vectorized", "des"),
    ])
    def test_shared_trace_engines_never_serve_each_other(
        self, tmp_path, first, second,
    ):
        """Shared-trace cells once keyed ``engine="des"`` under either
        backend; a store warmed by one engine must now serve the other
        nothing."""
        grid = shared_grid(replicas=2)
        store = str(tmp_path / "store")

        def run(backend):
            spec = CampaignSpec(grid=grid, policy=ExecutionPolicy(
                backend=backend, store=store))
            return execute_spec(
                spec, results_path=tmp_path / f"{backend}.jsonl").report

        assert run(first).cells_cached == 0
        report = run(second)
        assert report.cells_cached == 0
        assert report.cells_run == len(plan_cells(grid))

    def test_shared_trace_warm_rerun_serves_every_cell(self, tmp_path):
        grid = shared_grid(replicas=2)
        spec = CampaignSpec(grid=grid, policy=ExecutionPolicy(
            backend="vectorized", store=str(tmp_path / "store")))
        cold_path = tmp_path / "cold.jsonl"
        warm_path = tmp_path / "warm.jsonl"
        cold = execute_spec(spec, results_path=cold_path)
        warm = execute_spec(spec, results_path=warm_path)
        assert cold.report.cells_run == len(plan_cells(grid))
        assert warm.report.cells_run == 0
        assert warm.report.replicas_run == 0
        assert cold_path.read_bytes() == warm_path.read_bytes()


class TestCli:
    def test_backend_flag_lands_in_spec(self, capsys):
        from repro.cli import main

        assert main([
            "campaign", "--preset", "smoke", "--backend", "vectorized",
            "--dump-spec",
        ]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["policy"]["backend"] == "vectorized"

    def test_spec_file_refuses_backend_flag(self, capsys, tmp_path):
        from repro.cli import main

        spec_file = tmp_path / "spec.json"
        assert main([
            "campaign", "--preset", "smoke", "--dump-spec",
        ]) == 0
        spec_file.write_text(capsys.readouterr().out)
        rc = main([
            "campaign", "--spec", str(spec_file), "--backend", "vectorized",
        ])
        assert rc == 2
        assert "--backend" in capsys.readouterr().err
