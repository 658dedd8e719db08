"""Column blocks: the per-cell form every producer hands the session.

The block encoder (:func:`repro.io.dump_cell`) and the block summary
(:func:`repro.sim.events.make_cell` over the ``waste`` column) are
checked bit for bit against the reference codec —
``json.dumps(to_envelope(r), sort_keys=True)`` per replica — and
against :meth:`MonteCarloSummary.from_samples` over the replicas'
``waste``, on every shipped preset cell on both engines and on
synthetic cells holding the values the fast paths must not mis-spell.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments.scenarios import CAMPAIGN_PRESETS, get_campaign_preset
from repro.io import dump_result, from_envelope, to_envelope
from repro.sim.backends import ProcessPoolBackend, run_chunk_for_engine
from repro.sim.events import CellFinished, make_cell
from repro.sim.executor import CellPlan, execute_spec, plan_cells
from repro.sim.results import (
    NAN,
    CellBlock,
    DesResult,
    MonteCarloSummary,
    RunningMoments,
    ci_half_width,
    t_quantile,
    wilson_interval,
)
from repro.sim.spec import ExecutionPolicy

ENGINES = ("des", "vectorized")


def reference_lines(rows) -> list[str]:
    return [json.dumps(to_envelope(row), sort_keys=True) for row in rows]


def same_float(a, b) -> bool:
    """Bit-equal floats (NaN equals NaN, -0.0 differs from 0.0)."""
    return type(a) is type(b) and (
        (a != a and b != b) or (a == b and math.copysign(1, a)
                                == math.copysign(1, b)))


def assert_same_summary(got: MonteCarloSummary, want: MonteCarloSummary):
    for field in dataclasses.fields(MonteCarloSummary):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, float):
            assert same_float(a, b), field.name
        elif isinstance(a, tuple):
            assert all(same_float(x, y) for x, y in zip(a, b)), field.name
        else:
            assert a == b, field.name


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(DesResult):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, float):
                assert same_float(x, y), field.name
            else:
                assert type(x) is type(y) and x == y, field.name


def check_block(plan, block: CellBlock):
    """Encoder, summary and lazy rows of one block against the
    references."""
    rows = block.rows
    assert block.records == tuple(reference_lines(rows))
    assert list(block.records) == [dump_result(row) for row in rows]
    cell = make_cell(plan, block)
    assert_same_summary(cell.summary, MonteCarloSummary.from_samples(
        [row.waste for row in rows],
        successes=sum(row.succeeded for row in rows),
        meta={"protocol": plan.protocol, "M": plan.M, "phi": plan.phi}))
    # Rows equal the ones their canonical lines decode to, type for
    # type; the event and the cell hand out the block's rows.
    assert_same_rows(rows, [from_envelope(json.loads(line))
                            for line in block.records])
    event = CellFinished(plan=plan, cell=cell, results=block)
    assert event.results == cell.results == rows
    assert len(event.block) == len(rows)


def plan_for(protocol="double-nbl", M=600.0, phi=1.0) -> CellPlan:
    return CellPlan(index=0, protocol=protocol, m_index=0, M=M, phi=phi,
                    effective_phi=phi)


def column_block(columns: dict, work_target=900.0, **meta) -> CellBlock:
    meta = {"protocol": "double-nbl", "period": 58.5, "phi": 1.0, "n": 12,
            "M": 600.0, "engine": "vectorized", **meta}
    n = len(columns["status"])
    full = {"makespan": [1000.0] * n, "work_done": [900.0] * n,
            "failures": [1] * n, "rollbacks": [1] * n,
            "work_lost": [10.0] * n, "commits": [3] * n,
            "risk_time": [8.0] * n, "fatal_time": [NAN] * n,
            "fatal_group": [()] * n, "seed": list(range(7, 7 + n)),
            **columns}
    return CellBlock(meta, work_target, full)


# ----------------------------------------------------------------------
# Every shipped preset cell, both engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("preset", sorted(CAMPAIGN_PRESETS))
def test_preset_cells_match_the_reference_codec(preset, engine):
    spec = get_campaign_preset(preset).spec(replicas=3)
    config, controller = spec.grid, spec.controller()
    plans = plan_cells(config)
    for plan, block in zip(plans, run_chunk_for_engine(
            engine, config, plans, controller)):
        if engine == "vectorized":
            assert block._rows is None  # rows not built by the engine
        check_block(plan, block)


@pytest.mark.parametrize("engine", ENGINES)
def test_timed_out_and_fatal_replicas(engine):
    """A horizon below the work, and an MTBF that kills replicas: both
    engines emit timeouts and fatal runs, and the DES's fatal runs name
    their group."""
    spec = get_campaign_preset("high-churn").spec(replicas=4)
    statuses, groups = set(), 0
    for max_time in (None, 1500.0):
        config = dataclasses.replace(spec.grid, max_time=max_time)
        plans = plan_cells(config)
        for plan, block in zip(plans, run_chunk_for_engine(
                engine, config, plans, spec.controller())):
            check_block(plan, block)
            statuses.update(row.status for row in block.rows)
            groups += sum(bool(row.fatal_group) for row in block.rows)
    assert "timeout" in statuses and "fatal" in statuses
    if engine == "des":
        assert groups > 0


# ----------------------------------------------------------------------
# Synthetic cells: the values the template must spell like json
# ----------------------------------------------------------------------
class TestSyntheticBlocks:
    def test_non_finite_negative_zero_and_overflow_scale_values(self):
        inf = float("inf")
        block = column_block({
            "status": ["completed", "completed", "completed", "timeout",
                       "fatal", "completed", "completed"],
            # waste: -inf (tiny makespan), nan (-0.0 makespan), 1.0 - x
            # at overflow scale, a timeout, a fatal run, and two values
            # whose spread overflows the plain std.
            "makespan": [5e-324, -0.0, 1e-300, inf, 12.5, 1e-308, 2e-308],
            "work_lost": [-0.0, NAN, inf, -inf, 0.0, 1e308, -1e308],
            "fatal_time": [NAN, NAN, NAN, NAN, 12.5, NAN, NAN],
            "fatal_group": [(), (), (), (), (3, 4), (), ()],
            "risk_time": [-0.0, 0.0, 1e-320, 8.0, inf, 1.5, 2.5],
        }, work_target=1.5)
        waste = block.waste
        assert waste[0] == -inf and math.isnan(waste[1])
        assert math.isfinite(waste[5]) and abs(waste[5]) > 1e300
        check_block(plan_for(), block)

    def test_overflow_scale_summary_takes_the_scaled_path(self):
        block = column_block({"status": ["completed"] * 3,
                              "makespan": [1e-308, 2e-308, 4e-308]},
                             work_target=1.5)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            np.asarray(block.waste).std(ddof=1)
        summary = make_cell(plan_for(), block).summary
        assert math.isfinite(summary.mean) and math.isfinite(summary.std)
        check_block(plan_for(), block)

    def test_fatal_groups_and_seeds_from_des_rows(self):
        """A block over DES rows encodes each row alone (the one-row
        case); a fatal row's group spells as a list."""
        meta = {"protocol": "triple", "period": 61.25, "phi": -0.0,
                "n": 12, "M": 60.0}
        rows = [DesResult(status=status, makespan=makespan,
                          work_target=900.0, work_done=450.0,
                          failures=2, rollbacks=2, work_lost=3.0,
                          commits=4, risk_time=6.0, fatal_time=fatal,
                          fatal_group=group, meta={**meta, "seed": seed})
                for status, makespan, fatal, group, seed in (
                    ("fatal", 410.0, 410.0, (6, 7, 8), 1),
                    ("completed", 980.0, NAN, (), 1000004),
                    ("timeout", 1800.0, NAN, (), 2000007))]
        block = CellBlock.from_rows(rows)
        assert block.columns is None and block.rows == tuple(rows)
        assert '"fatal_group": [6, 7, 8]' in block.records[0]
        assert '"phi": -0.0' in block.records[1]
        check_block(plan_for("triple", M=60.0, phi=-0.0), block)

    def test_values_outside_the_template_fall_back(self):
        """Bools, numpy scalars and a str where a number belongs are
        encoded by the generic walker, exactly as dump_result does."""
        for column, value in (("failures", True),
                              ("makespan", np.float64(1000.0)),
                              ("commits", "3")):
            block = column_block({"status": ["completed"] * 2,
                                  column: [value, value]})
            assert block.records == tuple(reference_lines(block.rows))

    def test_percent_in_a_constant_is_not_a_slot(self):
        block = column_block({"status": ["completed"]}, protocol="50%s")
        assert block.records == tuple(reference_lines(block.rows))


# ----------------------------------------------------------------------
# The summary is the moments kernel plus its documented rules
# ----------------------------------------------------------------------
def moments_summary(samples, successes=None, confidence=0.95):
    """``from_samples`` by its documented rules: the mean and std of
    :class:`RunningMoments` (rerun over ``x / max|x|`` and scaled back
    where they overflow), a NaN mean without a finite sample, and a
    point interval below two finite samples or where the half-width is
    not finite."""
    samples = [float(x) for x in samples]
    moments = RunningMoments.of(samples)
    n, k = moments.n, moments.finite
    mean, std = moments.mean, moments.std()
    if k and not (math.isfinite(mean) and math.isfinite(std)):
        scale = max(abs(x) for x in samples if math.isfinite(x))
        scaled = RunningMoments.of([x / scale for x in samples])
        mean, std = scale * scaled.mean, scale * scaled.std()
    if not k:
        mean = float("nan")
    half = 0.0
    if k >= 2 and std != 0.0:
        half = t_quantile(confidence, k - 1) * std / math.sqrt(k)
    if not math.isfinite(half):
        half = 0.0
    n_success = k if successes is None else successes
    return MonteCarloSummary(
        n_replicas=n, mean=mean, std=std, ci_low=mean - half,
        ci_high=mean + half, confidence=confidence,
        success_rate=n_success / n,
        success_ci=wilson_interval(n_success, n, confidence))


@pytest.mark.parametrize("samples", [
    [0.1], [0.1, 0.2], [0.25, 0.25, 0.25], [float("nan")] * 3,
    [0.1, float("nan"), -0.0, 0.3], [float("inf"), 0.2, 0.4],
    [-float("inf"), float("inf")], [1e308, -1e308, 1e308],
    [1.7e308, 1.7e308, 1.6e308], [-0.0, -0.0],
    list(np.random.default_rng(5).normal(0.3, 0.05, 40)),
])
def test_from_samples_keeps_its_bits(samples):
    summary = MonteCarloSummary.from_samples(samples)
    assert_same_summary(summary, moments_summary(samples))
    half = ci_half_width(samples)
    if sum(math.isfinite(x) for x in samples) < 2:
        assert half == math.inf
    elif math.isfinite(half):
        assert summary.ci_high == summary.mean + half


def test_from_samples_refuses_no_samples():
    with pytest.raises(ParameterError):
        MonteCarloSummary.from_samples([])


# ----------------------------------------------------------------------
# Blocks across processes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_block_survives_pickle(engine):
    spec = get_campaign_preset("smoke").spec(replicas=3)
    plan = plan_cells(spec.grid)[0]
    [block] = run_chunk_for_engine(engine, spec.grid, [plan],
                                   spec.controller())
    copy = pickle.loads(pickle.dumps(block))
    assert copy.records == block.records
    assert_same_rows(copy.rows, block.rows)
    # Built rows travel too.
    assert_same_rows(pickle.loads(pickle.dumps(block)).rows, block.rows)
    assert all(same_float(a, b) for a, b in zip(copy.waste, block.waste))


@pytest.mark.parametrize("engine", ENGINES)
def test_process_pool_writes_serial_bytes(engine, tmp_path):
    spec = get_campaign_preset("smoke").spec(
        replicas=3, policy=ExecutionPolicy(backend=engine))
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    execute_spec(spec, results_path=serial)
    execution = execute_spec(spec, results_path=pooled,
                             backend=ProcessPoolBackend(2, engine))
    assert pooled.read_bytes() == serial.read_bytes()
    assert all(isinstance(cell.block, CellBlock)
               for cell in execution.cells)


# ----------------------------------------------------------------------
# One summary, whichever source
# ----------------------------------------------------------------------
SUMMARY_FIELDS = ("mean", "std", "ci_low", "ci_high", "success_rate",
                  "success_ci")


def summary_reprs(cells) -> list:
    return [(cell.protocol, cell.M, cell.phi,
             *(repr(getattr(cell.summary, name)) for name in SUMMARY_FIELDS))
            for cell in cells]


@pytest.mark.parametrize("preset", sorted(CAMPAIGN_PRESETS))
def test_session_store_and_file_summaries_agree(preset, tmp_path):
    """The session's cells, ``cells_from_store`` and the streaming
    ``report --from-campaign`` reader summarise every cell alike, to the
    last bit, and render the same report."""
    from repro.experiments.report import (_render_campaign_cells,
                                          campaign_cells_from_file)
    from repro.store import CampaignStore, cells_from_store

    spec = get_campaign_preset(preset).spec(
        replicas=4, policy=ExecutionPolicy(sink="framed"))
    results, store = tmp_path / "results.jsonl", tmp_path / "store"
    session = execute_spec(spec, results_path=results, store=store).cells
    stored = cells_from_store(CampaignStore(store), spec)
    streamed = campaign_cells_from_file(results)
    want = summary_reprs(session)
    assert summary_reprs(stored) == want
    assert summary_reprs(streamed) == want
    text = _render_campaign_cells(session, source=preset)
    assert _render_campaign_cells(stored, source=preset) == text
    assert _render_campaign_cells(streamed, source=preset) == text
