"""Regenerate ``perfbench/reference.json``, the committed expected outputs.

For every campaign seed of the pool:

* ``cold_des_sha256`` — the sha256 of the ``cold-des`` results file (the
  DES output bytes, which must never move);
* ``vectorized`` — the DES per-cell reference for ``cold-vectorized``:
  the same grid run with ``backend="des"``, each cell's mean waste over
  completed replicas, its 95% CI half-width, and the contract's
  O((F/M)²) allowance ``2·(F/M)²`` with ``F`` the protocol's expected
  time lost per failure at the model-optimal period.

Only a change that is meant to move DES output bytes may rerun this:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402 - after the path set-up
from perfbench.workloads import (  # noqa: E402
    REFERENCE,
    SEED_POOL,
    des_spec,
    vectorized_spec,
)


def allowances(spec) -> dict[tuple, float]:
    """``2·(F/M)²`` per cell, keyed like :func:`checks.waste_stats`."""
    from repro.core.period import optimal_period
    from repro.core.protocols import get_protocol
    from repro.sim.executor import plan_cells

    config = spec.config()
    out = {}
    for plan in plan_cells(config):
        protocol = get_protocol(plan.protocol)
        params = config.base_params.with_updates(M=plan.M)
        period = float(optimal_period(protocol, params, plan.phi))
        lost = float(protocol.expected_lost_time(params, plan.phi, period))
        out[(plan.protocol, plan.M, plan.effective_phi)] = \
            2.0 * (lost / plan.M) ** 2
    return out


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def main() -> int:
    from repro.sim.executor import execute_spec

    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {"cold_des_sha256": {}, "vectorized": {}}
    try:
        for index, seed in enumerate(SEED_POOL):
            cold = work / "cold.jsonl"
            execute_spec(des_spec(index), results_path=cold)
            reference["cold_des_sha256"][str(seed)] = \
                checks.sha256_hex(cold.read_bytes())
            spec = vectorized_spec(index, backend="des")
            framed = work / "des-framed.jsonl"
            execute_spec(spec, results_path=framed)
            slack = allowances(spec)
            reference["vectorized"][str(seed)] = [
                {"protocol": cell[0], "M": cell[1], "phi": cell[2],
                 "mean": _finite(mean), "ci": _finite(ci),
                 "allowance": slack[cell]}
                for cell, (mean, ci) in sorted(
                    checks.waste_stats(framed).items())
            ]
            print(f"seed {seed}: done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
