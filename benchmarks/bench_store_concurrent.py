"""Shared-store load under genuinely concurrent multi-worker traffic.

Not a paper artefact — this hammers the content-addressed results store
(:mod:`repro.store`) the way a fleet does: several independently started
OS worker processes join one work-stealing queue, each fanning cells
across its own process pool (``--worker-procs``, the load generator),
and all of them publish to — then on the second pass read from — a
single shared store directory concurrently.

What must hold under that interleaving (the store's whole value
proposition, asserted on the runs being timed):

* **Losslessness** — the merged cold output is byte-identical to a
  single-machine framed run of the same spec, and the store passes a
  full ``--verify`` sweep after the concurrent publish storm (each
  publish commits by an index rename, so no torn entry is ever
  exposed).
* **Warm service** — a second fleet against the same store simulates
  nothing: every cell is served from the warehouse, the merged bytes do
  not change, and the warm fleet's wall-clock beats the cold one (it
  does pure I/O while cold paid DES).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.sim.distributed import merge_shards, queue_status
from repro.sim.spec import Campaign, ExecutionPolicy
from repro.experiments.scenarios import get_campaign_preset

PRESET = "high-churn"
REPLICAS = 4
N_WORKERS = 3        # independent OS processes joining the queue
WORKER_PROCS = 2     # process-pool fan-out inside each worker


def _spec(policy: ExecutionPolicy):
    return get_campaign_preset(PRESET).spec(replicas=REPLICAS,
                                            policy=policy)


def _cli(*argv) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _run_fleet(queue: pathlib.Path, store: pathlib.Path) -> float:
    """Start N workers against (queue, store); wall-clock to drain."""
    t0 = time.perf_counter()
    workers = [
        _cli("campaign", "--preset", PRESET,
             "--replicas", str(REPLICAS), "--chunk-size", "1",
             "--queue", str(queue), "--worker-id", f"w{i}",
             "--worker-procs", str(WORKER_PROCS),
             "--lease", "120", "--poll", "0.05",
             "--store", str(store))
        for i in range(N_WORKERS)
    ]
    for proc in workers:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    return time.perf_counter() - t0


def test_concurrent_fleet_against_one_store(tmp_path, record):
    ref_path = tmp_path / "ref.jsonl"
    Campaign(_spec(ExecutionPolicy(sink="framed", chunk_size=1))) \
        .run(ref_path)
    ref = ref_path.read_bytes()
    store = tmp_path / "store"

    # Cold: every cell simulated somewhere in the fleet, every worker
    # publishing into the shared store while the others do too.
    cold_queue = tmp_path / "cold-queue"
    t_cold = _run_fleet(cold_queue, store)
    assert queue_status(cold_queue).complete
    cold_merged = tmp_path / "cold.jsonl"
    merge_shards(cold_queue, cold_merged)
    assert cold_merged.read_bytes() == ref

    # The publish storm left a coherent store: full integrity sweep.
    proc = _cli("store", "stat", "--store", str(store), "--verify")
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err

    # Warm: a fresh fleet against the warehoused grid simulates nothing
    # and merges to the same bytes.
    warm_queue = tmp_path / "warm-queue"
    t_warm = _run_fleet(warm_queue, store)
    assert queue_status(warm_queue).complete
    warm_merged = tmp_path / "warm.jsonl"
    merge_shards(warm_queue, warm_merged)
    assert warm_merged.read_bytes() == ref
    assert t_warm < t_cold, (
        f"warm fleet ({t_warm:.2f}s, pure store reads) should beat the "
        f"cold fleet ({t_cold:.2f}s, full DES)"
    )

    record("Shared store under concurrent multi-worker load", [
        f"fleet: {N_WORKERS} workers x --worker-procs {WORKER_PROCS}, "
        f"preset {PRESET}, {REPLICAS} replicas, chunk_size=1",
        f"cold fleet (simulate + publish): {t_cold:.2f}s",
        f"warm fleet (store-served):       {t_warm:.2f}s "
        f"({t_cold / t_warm:.1f}x)",
        "merged bytes identical to single-machine run, cold and warm; "
        "store --verify clean after the publish storm",
    ])
