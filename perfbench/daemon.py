"""Run the campaign service for the benchmark, as ``serve`` runs it.

Builds :class:`repro.service.CampaignService` with the arguments
``repro-checkpoint serve --store DIR --port 0`` uses, prints the same
``listening on`` line, and serves on its own thread.  The main thread
answers each line read from stdin with a host-speed factor
(:func:`perfbench.calibrate.speed_factor`, timed while the clients are
paused, so it measures the daemon process's speed) and shuts the
service down, draining, when stdin closes.  With ``--trace 1`` the
service and store instances' query methods, ``cells_from_store``,
``store_report`` and the ``repro.io`` encoders are wrapped in spans
first.  On exit it writes ``--out``: its peak resident memory and the
recorded spans.

    python3 perfbench/daemon.py --store DIR --out FILE [--trace 1]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import speed_factor  # noqa: E402 - after the path set-up
from perfbench.trace import (  # noqa: E402
    SpanRecorder,
    patched,
    trace_store,
    traced_encoders,
)
from perfbench.workloads import peak_rss_mb  # noqa: E402


def traced(service, recorder: SpanRecorder):
    """Wrap the report path's layers; returns the context that keeps
    the module-level wrappers installed."""
    import repro.experiments.report as report
    import repro.store as store_pkg

    service.report_query = recorder.wrap(
        service.report_query, "service.report_query",
        lambda payload: {"fills": int(payload["simulated_cells"] > 0)})
    trace_store(service.store, recorder)
    stack = contextlib.ExitStack()
    stack.enter_context(patched(
        store_pkg, "cells_from_store",
        recorder.wrap(store_pkg.cells_from_store, "store.cells_from_store")))
    stack.enter_context(patched(
        report, "store_report",
        recorder.wrap(report.store_report, "report.store_report")))
    stack.enter_context(traced_encoders(recorder))
    return stack


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.service import CampaignService

    service = CampaignService(
        store=args.store, data_dir=args.store / "service",
        host="127.0.0.1", port=0, workers=2,
    )
    recorder = SpanRecorder() if args.trace else None
    scope = traced(service, recorder) if recorder else contextlib.nullcontext()
    with scope:
        service.start()
        print(f"campaign service listening on {service.url()} "
              f"(store: {service.store.root})", flush=True)
        for _ in sys.stdin:
            print(repr(speed_factor()), flush=True)
        service.shutdown(drain=True)
    args.out.write_text(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "spans": recorder.spans if recorder else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
