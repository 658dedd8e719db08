"""Regenerate the campaign golden files (run from the repo root).

Each golden freezes one campaign's output bytes, plus the spec JSON
that produced it, as generated at the commit named below:

* ``ordered_fixed.jsonl`` (ordered sink, fixed replicas — the historical
  byte-prefix format), ``framed_fixed`` and ``framed_adaptive`` (framed
  sink, fixed / AdaptiveCI control) — the smoke preset's exponential
  shared traces, generated by the pre-event-pipeline executor at commit
  4d0e591;
* ``ordered_hetero`` (ordered sink, 3 fixed replicas) — the
  ``hetero-mtbf`` preset's shared traces under a non-exponential
  (hyperexponential ``Mixture``) law, generated at commit b0732b9, the
  last commit that drew every shared trace eagerly to the horizon;
* ``framed_wilson`` (framed sink, WilsonSuccessRate control) — the
  ``high-churn`` preset at 8 replicas, where fatal failures are common
  enough that the Wilson rule stops cells at 3, 5 and 7 replicas;
  generated at commit ccd21cf.  Its manifest also pins the
  WilsonSuccessRate fingerprint bytes.

``tests/test_events.py`` re-runs the specs through the current engine
and compares bytes — the hard constraint is that these files never
change.

Deterministic by construction: every replica is a pure function of the
spec (seed schedule ⊕ grid coordinates), so regeneration on any machine
reproduces identical bytes; if this script ever produces a diff, the
engine's output changed and the goldens must NOT be refreshed to paper
over it.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, "src")

from repro.experiments.scenarios import get_campaign_preset  # noqa: E402
from repro.sim.adaptive import AdaptiveCI, WilsonSuccessRate  # noqa: E402
from repro.sim.spec import Campaign, CampaignSpec, ExecutionPolicy  # noqa: E402

HERE = pathlib.Path(__file__).parent

#: The grids: the smoke preset (2 protocols x 2 MTBFs x 1 phi, 12
#: nodes), replicas raised to 6 for the adaptive case so the stopping
#: rule has room to cut cells short; and the hetero-mtbf preset (3
#: protocols x 3 MTBFs x 2 phi, 24 nodes) at 3 replicas; and the
#: high-churn preset (3 protocols x 3 MTBFs x 2 phi, 24 nodes) at up to 8
#: replicas under the Wilson success-rate rule.
GOLDENS: dict[str, CampaignSpec] = {
    "ordered_fixed": get_campaign_preset("smoke").spec(
        replicas=4, policy=ExecutionPolicy()
    ),
    "framed_fixed": get_campaign_preset("smoke").spec(
        replicas=4, policy=ExecutionPolicy(sink="framed")
    ),
    "framed_adaptive": get_campaign_preset("smoke").spec(
        replicas=6,
        policy=ExecutionPolicy(
            sink="framed",
            controller=AdaptiveCI(max_replicas=6, tolerance=0.2),
        ),
    ),
    "ordered_hetero": get_campaign_preset("hetero-mtbf").spec(
        replicas=3, policy=ExecutionPolicy()
    ),
    "framed_wilson": get_campaign_preset("high-churn").spec(
        replicas=8,
        policy=ExecutionPolicy(
            sink="framed",
            controller=WilsonSuccessRate(
                max_replicas=8, tolerance=0.6, min_replicas=2, batch=1
            ),
        ),
    ),
}


def main() -> None:
    for name, spec in GOLDENS.items():
        spec.save(HERE / f"{name}.spec.json")
        out = HERE / f"{name}.jsonl"
        execution = Campaign(spec).run(out)
        (HERE / f"{name}.manifest").write_bytes(
            out.with_name(out.name + ".manifest").read_bytes()
        )
        out.with_name(out.name + ".manifest").unlink()
        print(f"{name}: {execution.report.describe()}")
        print(f"  -> {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
