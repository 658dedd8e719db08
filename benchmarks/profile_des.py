"""Profile the per-event DES on one ``high-churn`` campaign.

Re-creates the snapshots in ``benchmarks/PROFILE_high_churn.md``: the
``high-churn`` preset as shipped (18 cells x 32 replicas, shared traces),
campaign seed 20433, every cell through :func:`repro.sim.backends.run_cell`
with one trace cache per campaign, on one core.  It prints

* the unprofiled wall time of each of N campaigns (and their median),
* the garbage collections those campaigns triggered, per generation,
  with their pause time and the objects they found unreachable (timed
  and counted with :data:`gc.callbacks`), and for each
  full collection the object types most promoted to the oldest
  generation since the previous one (a :func:`gc.get_objects` census at
  its start, ``generation=2``; the census time is taken out of the
  walls and pauses),
* the cyclic garbage one more campaign leaves, run with the collector
  paused after a clean collection: how many objects the collection
  after it finds unreachable, and their most common types,
* the engine's counts for one campaign: events executed (queued and
  walked in place), queued steps, and events queued by kind, through
  ``schedule`` or as a reserved number (``queue``),
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
from collections import Counter
from contextlib import contextmanager

from repro.experiments.scenarios import get_campaign_preset
from repro.sim.backends import run_cell
from repro.sim.engine import Engine
from repro.sim.executor import plan_cells

PRESET = "high-churn"
REPLICAS = 32
SEED = 20433
#: The platform machine's event kinds, in the order they are reported.
KINDS = ["failure", "phase-end", "risk-end", "block-end", "complete"]


def campaign() -> int:
    """Run one campaign's cells; returns the number of replicas run."""
    spec = get_campaign_preset(PRESET).spec(replicas=REPLICAS, seed=SEED)
    config = spec.config()
    controller = spec.controller()
    trace_cache: dict = {}
    return sum(len(run_cell(config, plan, controller, trace_cache))
               for plan in plan_cells(config))


@contextmanager
def gc_watch(top: int = 6):
    """Watch the collector while active: ``pauses`` maps each generation
    to its collections' pause seconds (timed with :data:`gc.callbacks`)
    and ``collected`` to the objects each found unreachable;
    ``promoted`` holds, per full collection, the ``top`` types by count
    of the objects promoted to the oldest generation since the previous
    one (or since entering), taken from :func:`gc.get_objects` at the
    collection's start; ``census_s`` is the time those censuses took,
    which no pause includes."""
    watch = {"pauses": {0: [], 1: [], 2: []},
             "collected": {0: [], 1: [], 2: []}, "promoted": [],
             "census_s": 0.0}
    old = {id(obj) for obj in gc.get_objects(generation=2)}
    started: list[float] = []

    def census(phase):
        nonlocal old
        t0 = time.perf_counter()
        if phase == "start":
            promoted = Counter(
                type(obj).__name__ for obj in gc.get_objects(generation=2)
                if id(obj) not in old)
            watch["promoted"].append(dict(promoted.most_common(top)))
        else:  # the survivors are the next census's baseline
            old = {id(obj) for obj in gc.get_objects(generation=2)}
        watch["census_s"] += time.perf_counter() - t0

    def callback(phase, info):
        generation = info["generation"]
        if phase == "start":
            if generation == 2:
                census(phase)
            started.append(time.perf_counter())
        elif started:
            watch["pauses"][generation].append(
                time.perf_counter() - started.pop())
            watch["collected"][generation].append(info["collected"])
            if generation == 2:
                census(phase)

    gc.callbacks.append(callback)
    try:
        yield watch
    finally:
        gc.callbacks.remove(callback)


def cyclic_garbage(top: int = 8) -> tuple[int, dict[str, int]]:
    """Run one campaign with the collector paused after a clean
    collection; the objects the next collection finds unreachable (the
    campaign's reference cycles) and the ``top`` types among them."""
    gc.collect()
    gc.disable()
    try:
        campaign()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep them in gc.garbage to count
        unreachable = gc.collect()
        types = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return unreachable, dict(types.most_common(top))


@contextmanager
def engine_counts():
    """Count engine steps, executed events and queued events by kind
    (``schedule`` calls and reserved-number ``queue`` calls apart)."""
    counts = {"executed": 0, "step": 0, "schedule": Counter(),
              "queue": Counter()}
    step, schedule, queue, run = (
        Engine.step, Engine.schedule, Engine.queue, Engine.run)

    def counted_step(self):
        counts["step"] += 1
        return step(self)

    def counted(push, name):
        def pushed(self, *args, **kwargs):
            event = push(self, *args, **kwargs)
            counts[name][event.kind] += 1
            return event
        return pushed

    def counted_run(self, *args, **kwargs):
        before = self.executed
        try:
            return run(self, *args, **kwargs)
        finally:
            counts["executed"] += self.executed - before

    Engine.step, Engine.schedule, Engine.queue, Engine.run = (
        counted_step, counted(schedule, "schedule"), counted(queue, "queue"),
        counted_run)
    try:
        yield counts
    finally:
        Engine.step, Engine.schedule, Engine.queue, Engine.run = (
            step, schedule, queue, run)


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
    with gc_watch() as watch:
        for _ in range(args.campaigns):
            t0, census_s = time.perf_counter(), watch["census_s"]
            replicas = campaign()
            walls.append(time.perf_counter() - t0
                         - (watch["census_s"] - census_s))
    print(f"un-profiled wall, {args.campaigns} campaigns of {replicas} "
          f"replicas: " + ", ".join(f"{w:.3f}" for w in walls)
          + f" s (median {statistics.median(walls):.3f} s; "
          "full-collection censuses excluded)")
    for generation, times in watch["pauses"].items():
        print(f"gc generation {generation}: {len(times)} collections, "
              f"{sum(times) * 1e3:.1f} ms paused"
              + (f" (longest {max(times) * 1e3:.1f} ms)" if times else "")
              + f", {sum(watch['collected'][generation])} objects "
              "unreachable")
    for i, types in enumerate(watch["promoted"], 1):
        print(f"  full collection {i}, most promoted since the last: "
              + ", ".join(f"{name} {count}" for name, count in types.items()))

    unreachable, types = cyclic_garbage()
    print(f"cyclic garbage, one campaign with the collector paused: "
          f"{unreachable} objects unreachable"
          + (": " + ", ".join(f"{name} {count}"
                              for name, count in types.items())
             if types else ""))

    with engine_counts() as counts:
        campaign()
    walked = counts["executed"] - counts["step"]
    scheduled, reserved = counts["schedule"], counts["queue"]
    queued = scheduled + reserved
    print(f"engine, one campaign: {counts['executed']} events executed "
          f"({counts['step']} queued steps, {walked} walked in place), "
          f"{queued.total()} events queued ({scheduled.total()} schedule "
          f"calls, {reserved.total()} reserved queues)")
    print("queued by kind: " + ", ".join(
        f"{kind} {queued[kind]}"
        + (f" ({reserved[kind]} reserved)" if reserved[kind] else "")
        for kind in KINDS + sorted(set(queued) - set(KINDS))))

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
