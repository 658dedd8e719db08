"""Serial vs parallel campaign execution.

Not a paper artefact — this measures the campaign executor's sharded
multi-process path against the serial baseline on an identical grid and
verifies the engine's core guarantee along the way: the parallel output is
bit-identical to serial (same JSONL bytes, same cell summaries).

The speedup scales with available cores; on a single-core host the
parallel path mainly pays pool overhead, so the benchmark reports the
ratio rather than asserting it.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np
import pytest

from repro import DOUBLE_BOF, DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.sim.campaign import CampaignConfig
from repro.sim.results import ci_half_width
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy


#: Interleaved (baseline, candidate) pairs per timed gate; each gate
#: compares the medians of its two sides, so one slow sample on a shared
#: host cannot decide it.
PAIRS = 5
#: The overhead gates' fixed allowance (timer and scheduling jitter).
#: It must stay within 5% of the timed path, or it, not the percentage,
#: decides the gate.
SLACK_S = 0.02
#: The shortest timed path (one sample) that keeps ``SLACK_S`` within 5%
#: of it.  Each overhead gate sizes its samples from a measured campaign
#: to reach it with half to spare (a shared host's speed can drift by a
#: third within seconds), so a faster DES lengthens the samples instead
#: of silencing the gate.
MIN_TIMED_S = SLACK_S / 0.05


def _interleaved_medians(baseline, candidate, pairs: int = PAIRS):
    """Median wall seconds of ``baseline(i)`` and ``candidate(i)`` over
    ``pairs`` interleaved calls, alternating which side runs first so
    drift in host speed hits both sides alike."""
    times: dict = {baseline: [], candidate: []}
    for i in range(pairs):
        order = (baseline, candidate) if i % 2 == 0 else (candidate, baseline)
        for side in order:
            t0 = time.perf_counter()
            side(i)
            times[side].append(time.perf_counter() - t0)
    return statistics.median(times[baseline]), statistics.median(times[candidate])


def _campaigns_per_sample(run) -> int:
    """Back-to-back ``run()`` campaigns per timed sample: enough for
    1.5 x ``MIN_TIMED_S`` at the fastest of three measured campaigns,
    after one that warms imports and caches."""
    run()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return max(1, math.ceil(1.5 * MIN_TIMED_S / min(times)))


def _check_slack(timed_s: float) -> None:
    assert SLACK_S <= 0.05 * timed_s, (
        f"the timed path ({timed_s:.3f}s) is too short for the fixed "
        f"{SLACK_S}s allowance to stay within 5% of it; the samples ran "
        "faster than the campaigns that sized them"
    )


def _spec(workers: int = 1) -> CampaignSpec:
    return CampaignSpec(
        grid=CampaignConfig(
            protocols=(DOUBLE_NBL, DOUBLE_BOF, TRIPLE),
            base_params=scenarios.BASE.parameters(M=600.0, n=24),
            m_values=(300.0, 600.0, 1200.0),
            phi_values=(0.5, 1.0, 2.0),
            work_target=1800.0,
            replicas=4,
            seed=4242,
            share_traces=True,
        ),
        policy=ExecutionPolicy(workers=workers),
    )


def _canonical(cells):
    return [
        (c.protocol, c.M, c.phi, repro_io.dump_result(c.summary))
        for c in cells
    ]


def test_parallel_matches_serial_and_reports_speedup(tmp_path, record):
    t0 = time.perf_counter()
    serial = Campaign(_spec()).run(tmp_path / "serial.jsonl")
    t_serial = time.perf_counter() - t0

    workers = max(2, os.cpu_count() or 2)
    t0 = time.perf_counter()
    parallel = Campaign(_spec(workers)).run(tmp_path / "parallel.jsonl")
    t_parallel = time.perf_counter() - t0

    assert _canonical(serial.cells) == _canonical(parallel.cells)
    assert (tmp_path / "serial.jsonl").read_bytes() == \
        (tmp_path / "parallel.jsonl").read_bytes()
    assert serial.report.cells_run == parallel.report.cells_run == 27

    record("Campaign executor: serial vs parallel", [
        f"grid: 3 protocols x 3 M x 3 phi x 4 replicas = 108 DES runs",
        f"serial (workers=1):    {t_serial:.2f}s",
        f"parallel (workers={workers}): {t_parallel:.2f}s "
        f"on {os.cpu_count()} core(s)",
        f"speedup: {t_serial / t_parallel:.2f}x "
        "(bit-identical cells and results file)",
    ])


def _allowance(config, cell) -> float:
    """The contract's O((F/M)^2) thinning allowance, ``2*(F/M)^2`` with
    ``F`` the protocol's expected time lost per failure at the
    model-optimal period."""
    from repro.core.period import optimal_period
    from repro.core.protocols import get_protocol

    spec = get_protocol(cell.protocol)
    params = config.base_params.with_updates(M=cell.M)
    period = float(optimal_period(spec, params, cell.phi))
    lost = float(spec.expected_lost_time(params, cell.phi, period))
    return 2.0 * (lost / cell.M) ** 2


@pytest.mark.parametrize("preset", ["high-churn", "exa-weibull"])
def test_vectorized_backend_speedup_with_equivalence(tmp_path, record,
                                                      preset):
    """The vectorized engine's acceptance gate: >=10x end to end on a
    shipped preset as shipped (shared traces, so common random numbers),
    as the ratio of the median DES campaign to the median vectorized one
    over interleaved pairs, with the statistical-equivalence contract
    asserted per cell on the very runs being timed (speed that changed
    the answer would not count)."""
    from repro.experiments.scenarios import get_campaign_preset

    def spec(backend: str) -> CampaignSpec:
        return get_campaign_preset(preset).spec(
            replicas=32, seed=4242,
            policy=ExecutionPolicy(backend=backend))

    runs: dict = {"des": [], "vectorized": []}

    def timed(backend: str):
        def run(i: int) -> None:
            runs[backend].append(Campaign(spec(backend)).run(
                tmp_path / f"{backend}-{i}.jsonl"))
        return run

    t_des, t_vec = _interleaved_medians(timed("des"), timed("vectorized"))
    des, vec = runs["des"][0], runs["vectorized"][0]
    assert des.report.cells_run == vec.report.cells_run == len(des.cells)
    # Every timed run wrote its first run's bytes, so the contract
    # checked on those below holds for all of them.
    for backend in runs:
        first = (tmp_path / f"{backend}-0.jsonl").read_bytes()
        for i in range(1, PAIRS):
            assert (tmp_path / f"{backend}-{i}.jsonl").read_bytes() == first

    # Equivalence on the timed runs, per cell: completed-replica waste
    # within the summed 95% CIs plus the O((F/M)^2) thinning allowance.
    config = spec("des").config()
    worst = 0.0
    for d, v in zip(des.cells, vec.cells):
        assert (d.protocol, d.M, d.phi) == (v.protocol, v.M, v.phi)
        w_des = np.array([r.waste for r in d.results])
        w_vec = np.array([r.waste for r in v.results])
        if np.isfinite(w_des).sum() < 2 or np.isfinite(w_vec).sum() < 2:
            assert np.isfinite(w_des).any() == np.isfinite(w_vec).any()
            continue
        diff = abs(float(np.nanmean(w_des)) - float(np.nanmean(w_vec)))
        tolerance = (ci_half_width(w_des) + ci_half_width(w_vec)
                     + _allowance(config, d))
        assert diff <= tolerance, (d.protocol, d.M, d.phi, diff, tolerance)
        worst = max(worst, diff / tolerance)

    # The speed gate last, so a slow run still reports the contract.
    speedup = t_des / t_vec
    assert speedup >= 10.0, (
        f"vectorized backend must be >=10x the DES on {preset}, "
        f"got {speedup:.1f}x (medians of {PAIRS} interleaved pairs: "
        f"{t_des:.3f}s vs {t_vec:.3f}s; every cell within its "
        f"equivalence tolerance, worst |diff|/tol {worst:.2f})"
    )

    record(f"Vectorized vs per-event DES backend ({preset} as shipped)", [
        f"grid: {len(des.cells)} cells x 32 replicas, shared traces",
        f"des (per-event):   {t_des:.3f}s  (median of {PAIRS})",
        f"vectorized (CRN):  {t_vec:.3f}s  (median of {PAIRS})",
        f"speedup: {speedup:.1f}x  (every cell within its equivalence "
        f"tolerance; worst |diff|/tol {worst:.2f})",
    ])


def test_resume_skips_finished_work(tmp_path, record):
    spec = _spec()
    path = tmp_path / "resume.jsonl"
    full_run = Campaign(spec).run(path)
    full_bytes = path.read_bytes()

    # Interrupt after ~two thirds of the grid.
    lines = full_bytes.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: len(lines) * 2 // 3]))

    t0 = time.perf_counter()
    resumed = Campaign(spec).resume(path)
    t_resume = time.perf_counter() - t0

    assert path.read_bytes() == full_bytes
    assert _canonical(resumed.cells) == _canonical(full_run.cells)
    assert resumed.report.cells_skipped >= config_cells_third(spec.grid)

    record("Campaign executor: resume after interruption", [
        f"{resumed.report.cells_skipped}/{resumed.report.cells_total} cells "
        f"recovered from the truncated file, "
        f"{resumed.report.cells_run} re-run in {t_resume:.2f}s",
    ])


def config_cells_third(config: CampaignConfig) -> int:
    total = (len(config.protocols) * len(config.m_values)
             * len(config.phi_values))
    return total // 3


def test_event_pipeline_overhead_gate(tmp_path, record):
    """The CI gate on the refactor's cost: routing every cell through
    the typed event bus (controller replay, sink writer, progress
    tracker fan-out) must add <= 5% wall-clock to the serial DES path,
    measured against a stripped direct loop — run_cell + sink.emit and
    nothing else, the pre-refactor executor's inner loop floor.  Each
    sample is as many back-to-back campaigns as a measured direct
    campaign says reach ``MIN_TIMED_S``; medians of ``PAIRS``
    interleaved samples each, so machine noise hits both sides."""
    from repro.sim.backends import run_cell
    from repro.sim.executor import execute_spec, plan_cells
    from repro.sim.sinks import make_sink

    spec = _spec()

    def direct(path):
        config = spec.grid
        controller = spec.controller()
        sink = make_sink(spec.policy.sink, path)
        sink.begin()
        trace_cache: dict = {}
        for plan in plan_cells(config):
            sink.emit(plan, [
                repro_io.dump_result(r)
                for r in run_cell(config, plan, controller, trace_cache)
            ])

    def piped(path):
        execute_spec(spec, results_path=path)

    repeats = _campaigns_per_sample(lambda: direct(tmp_path / "size.jsonl"))

    def sample(run, name):
        def timed(i: int) -> None:
            for k in range(repeats):
                run(tmp_path / f"{name}-{i}-{k}.jsonl")
        return timed

    med_direct, med_piped = _interleaved_medians(
        sample(direct, "direct"), sample(piped, "piped"))

    # Same bytes first: a fast pipeline that changed the output would
    # not count.
    assert (tmp_path / "piped-0-0.jsonl").read_bytes() \
        == (tmp_path / "direct-0-0.jsonl").read_bytes()

    _check_slack(med_direct)
    overhead = med_piped / med_direct - 1.0
    assert med_piped <= 1.05 * med_direct + SLACK_S, (
        f"event pipeline adds {overhead:+.1%} to the serial DES path "
        f"({med_piped:.3f}s vs {med_direct:.3f}s direct loop); "
        "the gate is +5%"
    )

    record("Event-pipeline overhead gate (serial DES path)", [
        "grid: 3 protocols x 3 M x 3 phi x 4 replicas = 108 DES runs, "
        f"{repeats} campaigns per sample, medians of {PAIRS} pairs",
        f"direct loop (run_cell + sink.emit): {med_direct:.3f}s",
        f"event pipeline (execute_spec):      {med_piped:.3f}s",
        f"overhead: {overhead:+.1%} (gate: +5.0%)",
    ])


def test_observability_overhead_gate(tmp_path, record):
    """The gate that keeps telemetry on by default: a campaign with the
    metrics consumer subscribed (the shipping configuration) must add
    <= 3% wall-clock over the identical campaign with observability
    disabled (``repro.obs.set_enabled(False)``, what ``REPRO_OBS=off``
    selects at import).  Each sample is as many back-to-back campaigns
    as a measured uninstrumented campaign says reach ``MIN_TIMED_S``;
    medians of ``PAIRS`` interleaved samples each, same bytes."""
    from repro.obs import set_enabled
    from repro.sim.executor import execute_spec

    spec = _spec()

    def run(path, instrumented: bool):
        set_enabled(instrumented)
        try:
            return execute_spec(spec, results_path=path)
        finally:
            set_enabled(True)

    carried = []  # per instrumented run: did it carry its metrics?
    repeats = _campaigns_per_sample(
        lambda: run(tmp_path / "size.jsonl", False))

    def sample(instrumented: bool, name: str):
        def timed(i: int) -> None:
            for k in range(repeats):
                execution = run(tmp_path / f"{name}-{i}-{k}.jsonl",
                                instrumented)
                if instrumented:
                    carried.append(execution.report.metrics is not None)
        return timed

    med_off, med_on = _interleaved_medians(
        sample(False, "off"), sample(True, "on"))

    # Telemetry must be a pure observer: identical output bytes, and
    # the instrumented runs actually carried their metrics snapshot.
    assert (tmp_path / "on-0-0.jsonl").read_bytes() \
        == (tmp_path / "off-0-0.jsonl").read_bytes()
    assert carried == [True] * (PAIRS * repeats)

    _check_slack(med_off)
    overhead = med_on / med_off - 1.0
    assert med_on <= 1.03 * med_off + SLACK_S, (
        f"observability adds {overhead:+.1%} to the serial DES path "
        f"({med_on:.3f}s vs {med_off:.3f}s with REPRO_OBS=off); "
        "the gate is +3% — instrumentation must stay cheap enough "
        "to stay on by default"
    )

    record("Observability overhead gate (metrics consumer on vs off)", [
        "grid: 3 protocols x 3 M x 3 phi x 4 replicas = 108 DES runs, "
        f"{repeats} campaigns per sample, medians of {PAIRS} pairs",
        f"REPRO_OBS=off:          {med_off:.3f}s",
        f"instrumented (default): {med_on:.3f}s",
        f"overhead: {overhead:+.1%} (gate: +3.0%)",
    ])
