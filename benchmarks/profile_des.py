"""Profile the per-event DES on one ``high-churn`` campaign.

Re-creates the snapshots in ``benchmarks/PROFILE_high_churn.md``: the
``high-churn`` preset as shipped (18 cells x 32 replicas, shared traces),
campaign seed 20433, every cell through :func:`repro.sim.backends.run_cell`
with one trace cache per campaign, on one core.  It prints

* the unprofiled wall time of each of N campaigns (and their median),
* the garbage collections those campaigns triggered, per generation,
  with their pause time (timed with :data:`gc.callbacks`),
* the engine's counts for one campaign: events executed (queued and
  walked in place), queued steps and ``schedule`` calls,
* the cProfile top rows of one more campaign.

Usage::

    PYTHONPATH=src python benchmarks/profile_des.py [--campaigns 5] [--top 12]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import statistics
import time
from contextlib import contextmanager

from repro.experiments.scenarios import get_campaign_preset
from repro.sim.backends import run_cell
from repro.sim.engine import Engine
from repro.sim.executor import plan_cells

PRESET = "high-churn"
REPLICAS = 32
SEED = 20433


def campaign() -> int:
    """Run one campaign's cells; returns the number of replicas run."""
    spec = get_campaign_preset(PRESET).spec(replicas=REPLICAS, seed=SEED)
    config = spec.config()
    controller = spec.controller()
    trace_cache: dict = {}
    return sum(len(run_cell(config, plan, controller, trace_cache))
               for plan in plan_cells(config))


@contextmanager
def gc_pauses():
    """Collect ``{generation: [pause seconds, ...]}`` while active."""
    pauses: dict[int, list[float]] = {0: [], 1: [], 2: []}
    started: list[float] = []

    def callback(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            pauses[info["generation"]].append(
                time.perf_counter() - started.pop())

    gc.callbacks.append(callback)
    try:
        yield pauses
    finally:
        gc.callbacks.remove(callback)


@contextmanager
def engine_counts():
    """Count engine steps, ``schedule`` calls and executed events."""
    counts = {"executed": 0, "step": 0, "schedule": 0}
    step, schedule, run = Engine.step, Engine.schedule, Engine.run

    def counted_step(self):
        counts["step"] += 1
        return step(self)

    def counted_schedule(self, *args, **kwargs):
        counts["schedule"] += 1
        return schedule(self, *args, **kwargs)

    def counted_run(self, *args, **kwargs):
        before = self.executed
        try:
            return run(self, *args, **kwargs)
        finally:
            counts["executed"] += self.executed - before

    Engine.step, Engine.schedule, Engine.run = (
        counted_step, counted_schedule, counted_run)
    try:
        yield counts
    finally:
        Engine.step, Engine.schedule, Engine.run = step, schedule, run


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--campaigns", type=int, default=5,
                        help="unprofiled campaigns to time (default 5)")
    parser.add_argument("--top", type=int, default=12,
                        help="cProfile rows to print, by tottime (default 12)")
    args = parser.parse_args(argv)
    if args.campaigns < 1:
        parser.error("--campaigns must be >= 1")

    print(f"workload: {PRESET} x{REPLICAS} as shipped, campaign seed {SEED}, "
          "run_cell with one trace cache per campaign")
    walls = []
    with gc_pauses() as pauses:
        for _ in range(args.campaigns):
            t0 = time.perf_counter()
            replicas = campaign()
            walls.append(time.perf_counter() - t0)
    print(f"un-profiled wall, {args.campaigns} campaigns of {replicas} "
          f"replicas: " + ", ".join(f"{w:.3f}" for w in walls)
          + f" s (median {statistics.median(walls):.3f} s)")
    for generation, times in pauses.items():
        print(f"gc generation {generation}: {len(times)} collections, "
              f"{sum(times) * 1e3:.1f} ms paused"
              + (f" (longest {max(times) * 1e3:.1f} ms)" if times else ""))

    with engine_counts() as counts:
        campaign()
    walked = counts["executed"] - counts["step"]
    print(f"engine, one campaign: {counts['executed']} events executed "
          f"({counts['step']} queued steps, {walked} walked in place), "
          f"{counts['schedule']} schedule calls")

    profiler = cProfile.Profile()
    profiler.enable()
    campaign()
    profiler.disable()
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(
        args.top)
    print(out.getvalue().rstrip())


if __name__ == "__main__":
    main()
