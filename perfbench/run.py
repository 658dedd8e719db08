"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload cold-des --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Every measured output is checked.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"setup_s": {"value": 0.021, "unit": "s"}, ...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of the traced run with ``--trace 1``.  The line before it
records the host, the seed and the workload's spec.  The exit code is 0
only when every check passed; 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# Telemetry stays at its shipped default (on), whatever the caller's
# environment says.
os.environ.pop("REPRO_OBS", None)


def host_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(args) -> int:
    from perfbench import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(workloads.PER_LAYER if args.trace
                 else workloads.END_TO_END)
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace}) ==")
    for line in outcome.lines:
        print(line)
    for name, value in outcome.metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate {error_rate:g} ({outcome.failed} of "
          f"{outcome.attempted} operations failed)")
    for problem in outcome.problems[:10]:
        print(f"FAILED: {problem}")
    print(json.dumps({"record": {
        "host": host_record(),
        "workload": args.workload,
        "seed": args.seed,
        # The spec at the benchmark seed; cold workloads also ran it at
        # the other campaign seeds listed (only grid.seed differs).
        "spec": workloads.workload_spec(args.workload, args.seed).to_dict(),
        "campaign_seeds": sorted(outcome.campaign_seeds),
    }}, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if not outcome.problems else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {done.returncode} without a result")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("cold-des", "cold-vectorized", "warm-rerun",
                                 "service-reports", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
