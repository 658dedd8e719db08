"""Results-store caching: cold vs. warm vs. 50 %-overlap campaign cost.

Not a paper artefact — this measures the tentpole claim of the
content-addressed results store (:mod:`repro.store`): because every
grid cell is warehoused under a key derived from exactly the inputs
that determine its bytes, a warm re-run of a
completed spec performs **zero** simulations (and is byte-identical),
and a half-overlapping grid pays for only its missing half.

Three timed points on the ``high-churn`` preset grid:

* **cold**   — empty store: every cell simulates and publishes;
* **warm**   — identical spec re-run: every cell served from the store;
* **overlap** — a grid sharing half its M axis with the cold run:
  only the novel half simulates.

The assertions are qualitative (warm ≪ cold; overlap simulates exactly
the missing cells; bytes identical), so the benchmark doubles as a
regression test for the caching invariants on a non-toy grid.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments.scenarios import get_campaign_preset
from repro.sim.spec import Campaign, CampaignSpec
from repro.store import CampaignStore

PRESET = "high-churn"
REPLICAS = 4


def _spec() -> CampaignSpec:
    return get_campaign_preset(PRESET).spec(replicas=REPLICAS)


def _overlap_spec() -> CampaignSpec:
    """The preset grid with half its M axis shifted to novel values."""
    spec = _spec()
    m_values = spec.grid.m_values
    keep = m_values[:len(m_values) // 2 + len(m_values) % 2]
    novel = tuple(m * 7.0 for m in m_values[len(keep):])
    return replace(spec, grid=replace(spec.grid, m_values=keep + novel))


def _timed_run(spec, path, store):
    start = time.perf_counter()
    execution = Campaign(spec).run(path, store=store)
    return execution, time.perf_counter() - start


def test_store_cold_warm_overlap(tmp_path, record):
    store_dir = tmp_path / "store"
    spec = _spec()

    cold, t_cold = _timed_run(spec, tmp_path / "cold.jsonl", store_dir)
    n_cells = cold.report.cells_total
    assert cold.report.cells_cached == 0
    assert cold.report.cells_run == n_cells

    warm, t_warm = _timed_run(spec, tmp_path / "warm.jsonl", store_dir)
    assert warm.report.cells_run == 0
    assert warm.report.replicas_run == 0
    assert warm.report.cells_cached == n_cells
    assert (tmp_path / "warm.jsonl").read_bytes() \
        == (tmp_path / "cold.jsonl").read_bytes()
    assert t_warm < t_cold / 2, (
        f"warm run ({t_warm:.2f}s) should be far cheaper than cold "
        f"({t_cold:.2f}s)"
    )

    overlap_spec = _overlap_spec()
    overlap, t_overlap = _timed_run(
        overlap_spec, tmp_path / "overlap.jsonl", store_dir
    )
    shared = len({m for m in spec.grid.m_values}
                 & {m for m in overlap_spec.grid.m_values})
    expected_cached = (
        shared * len(spec.grid.phi_values) * len(spec.grid.protocols)
    )
    assert overlap.report.cells_cached == expected_cached
    assert overlap.report.cells_run \
        == overlap.report.cells_total - expected_cached

    stat = CampaignStore(store_dir).stat()
    record("results-store caching (high-churn preset)", [
        f"grid: {n_cells} cells x {REPLICAS} replicas; "
        f"store after all runs: {stat.describe()}",
        f"cold run   : {t_cold:.2f}s ({cold.report.cells_run} cells "
        "simulated, all published)",
        f"warm run   : {t_warm:.2f}s (0 simulations, "
        f"{warm.report.cells_cached} cells served; speedup "
        f"{t_cold / max(t_warm, 1e-9):.0f}x; bytes identical)",
        f"50% overlap: {t_overlap:.2f}s ({overlap.report.cells_run} "
        f"simulated, {overlap.report.cells_cached} served)",
    ])
