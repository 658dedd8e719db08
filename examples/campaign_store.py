#!/usr/bin/env python3
"""The results store: warm campaign re-runs cost zero simulations.

Covers the content-addressed store surface (repro.store) in ~60 lines:
  * run a campaign cold with a store attached (simulate + publish),
  * re-run the identical spec warm (0 simulations, byte-identical file),
  * run a half-overlapping grid (only the missing cells simulate),
  * inspect the store (stat/verify) and export a spec's results file,
  * compact the writer segments into one (exports stay identical),
  * trim it to a byte budget with LRU gc.

Run:  python examples/campaign_store.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.experiments import scenarios
from repro.sim import Campaign
from repro.store import CampaignStore


def main() -> None:
    spec = scenarios.get_campaign_preset("smoke").spec()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = tmp / "store"

        # Cold: every cell simulates and is published as one entry.
        cold = Campaign(spec).run(tmp / "cold.jsonl", store=store)
        print(f"cold   : {cold.report.describe()}")

        # Warm: the identical spec re-runs with zero simulations and a
        # byte-identical results file — the store's hard invariant.
        warm = Campaign(spec).run(tmp / "warm.jsonl", store=store)
        print(f"warm   : {warm.report.describe()}")
        assert warm.report.replicas_run == 0
        assert (tmp / "warm.jsonl").read_bytes() \
            == (tmp / "cold.jsonl").read_bytes()

        # Overlap: a different campaign whose grid shares one M value —
        # the shared cells are served, only the novel ones simulate.
        overlap_spec = replace(spec, grid=replace(
            spec.grid, m_values=(spec.grid.m_values[0], 2400.0)))
        overlap = Campaign(overlap_spec).run(tmp / "overlap.jsonl",
                                             store=store)
        print(f"overlap: {overlap.report.describe()}")
        assert overlap.report.cells_cached == 2

        # The store is queryable, verifiable, exportable and bounded.
        warehouse = CampaignStore(store)
        print(f"store  : {warehouse.stat().describe()}")
        assert warehouse.verify().ok
        export = warehouse.export(spec, tmp / "export.jsonl")
        print(f"export : {export.describe()}")

        # Compaction merges the publishing runs' writer segments into
        # one hash-sorted segment — a footprint then streams in a few
        # sequential reads — and is invisible to every consumer: the
        # export is byte-identical.
        compacted = warehouse.compact()
        print(f"compact: {compacted.describe()}")
        warehouse.export(spec, tmp / "export2.jsonl")
        assert (tmp / "export2.jsonl").read_bytes() \
            == (tmp / "export.jsonl").read_bytes()
        assert warehouse.verify().ok

        report = warehouse.gc(max_bytes=4096)
        print(f"gc 4096: {report.describe()}")


if __name__ == "__main__":
    main()
