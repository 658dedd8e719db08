"""Command-line interface: ``repro-checkpoint``.

Commands
--------
``list``
    Show the registered paper artefacts.
``table1`` / ``fig4`` … ``fig9``
    Regenerate an artefact; prints the ASCII rendering and (with
    ``--csv DIR``) writes the CSV grid(s).
``validate``
    Run the model-vs-simulation validation suite.
``optimum``
    Print optimal period / waste / risk for one configuration
    (``--protocol --scenario --M --phi``).
``campaign``
    Run a protocol × M × φ DES sweep through the campaign engine.  Every
    invocation is internally one declarative
    :class:`~repro.sim.spec.CampaignSpec` (grid + execution policy):
    ``--spec FILE`` loads one from JSON, ``--dump-spec`` prints the spec
    the current flags describe (without running) so any flag combination
    can be frozen into a reviewable, re-runnable file.  Otherwise the
    grid comes from ``--preset`` (named workloads such as
    ``exa-weibull`` or ``trace-bootstrap``) or an explicit
    ``--scenario``/``--protocols``/``--M``/``--phi`` selection, and the
    policy from ``--workers N`` (process sharding, output bit-identical
    to serial), ``--sink framed`` (out-of-order records, no head-of-line
    wait), and one adaptive rule: ``--adaptive-ci TOL`` (stop a cell
    once its mean-waste CI half-width is ≤ TOL) or ``--adaptive-wilson
    W`` (stop once the success-rate Wilson interval is narrower than W —
    the rule for risk-probability sweeps).  ``--results FILE`` streams
    raw runs as JSON Lines and ``--resume`` finishes an interrupted
    sweep without re-running completed cells.

    Multi-machine: ``campaign --queue DIR --worker-id ID <grid flags>``
    joins the shared work-stealing queue at ``DIR`` as one worker — run
    the same command on any number of machines sharing the directory;
    dead workers' chunks are re-claimed after ``--lease`` seconds.
    ``campaign merge --queue DIR --out FILE`` then combines the
    per-worker shards into one resumable campaign file (``--partial``
    merges what a half-finished queue has so far).
    Caching: ``--store DIR`` points the run at a content-addressed
    results store (:mod:`repro.store`) — cells already warehoused are
    served instead of simulated (a warm re-run of a completed spec
    performs zero simulations yet writes a byte-identical results file),
    fresh cells are published for the next run; ``--store-mode read``
    consults without publishing.
    Observability: ``--trace FILE`` writes a Chrome trace-event JSON of
    the run (campaign → cell spans, one ``cell`` span per published
    ``CellFinished``, plus store and queue internals; see
    :mod:`repro.obs`), and every run's
    ``ExecutionReport.metrics`` carries the campaign's metric series.
``store``
    Inspect and manage a results store: ``store ls`` (filterable
    listing, one row per cell entry with its stored replica count),
    ``store stat`` (totals, ``--verify`` re-checks every entry
    against its stored bytes), ``store gc`` (LRU eviction to
    ``--max-bytes``/``--max-age``, with ``--pin-queue``/``--pin-spec``
    footprints immune), ``store export`` (materialise a spec's
    byte-identical framed results file with zero simulations).
``report``
    Re-render analyses offline: ``--from-campaign FILE`` reads a
    campaign's persisted JSON Lines (either sink format) and prints waste
    tables, per-protocol waste surfaces and protocol-ratio tables with
    zero re-simulation.  ``--from-spec FILE --store DIR`` renders the
    same report for a spec straight from the results store — no results
    file, no simulation.
``serve``
    Run the always-on campaign service (:mod:`repro.service`): an HTTP
    daemon answering report queries straight from a results store
    (zero simulation on warm cells), accepting campaign submissions
    onto a background worker pool, and streaming per-cell results as
    NDJSON.  ``serve --store DIR --port 8642``; SIGINT/SIGTERM drains
    in-flight sessions before exiting (``--no-drain`` cancels them at
    the next cell boundary instead).  ``GET /metrics`` serves the
    process's Prometheus exposition (``--metrics`` prints the scrape
    URL on startup).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from . import __version__
from .errors import ReproError
from .core.period import optimal_period
from .core.protocols import PROTOCOLS, get_protocol
from .core.risk import risk_window, success_probability
from .core.waste import waste_at_optimum
from .experiments import scenarios
from .experiments.registry import EXPERIMENTS, run_experiment
from .experiments.validation import validate_all
from .units import format_time, parse_time

__all__ = ["main", "build_parser"]

#: Single source of truth for the ``campaign`` subcommand's flag
#: defaults: ``build_parser`` feeds these into ``add_argument`` and the
#: explicit-flag checks (merge refusing run flags, run refusing
#: merge/distributed flags) compare against them — so a changed default
#: can never silently desynchronise the two.
_CAMPAIGN_DEFAULTS: dict[str, object] = {
    "spec": None, "dump_spec": False,
    "preset": None, "scenario": None, "protocols": None, "M": None,
    "phi": None, "n": None, "work_target": None, "replicas": None,
    "seed": None, "share_traces": None, "results": None, "resume": False,
    "workers": 1, "chunk_size": None, "sink": None, "adaptive_ci": None,
    "adaptive_wilson": None,
    "queue": None, "worker_id": None, "lease": 60.0, "poll": 0.5,
    "worker_procs": 1, "store": None, "store_mode": None,
    "backend": None, "progress": False, "trace": None,
    "out": None, "partial": False,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint",
        description=("Reproduction toolkit for 'Revisiting the double "
                     "checkpointing algorithm' (Dongarra, Herault, Robert, "
                     "APDCM 2013)"),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    for key, exp in EXPERIMENTS.items():
        p = sub.add_parser(key, help=f"regenerate {exp.paper_ref}: {exp.title}")
        p.add_argument("--csv", type=pathlib.Path, default=None,
                       help="directory to write CSV grid(s) into")

    v = sub.add_parser("validate", help="model-vs-simulation validation")
    v.add_argument("--scenario", choices=sorted(scenarios.SCENARIOS), default="base")
    v.add_argument("--M", default="10min", help="platform MTBF (e.g. 600 or '10min')")
    v.add_argument("--phi", type=float, default=1.0, help="overhead phi [s]")
    v.add_argument("--risk-T", default="10d",
                   help="horizon for the risk check (e.g. '10d')")
    v.add_argument("--risk-M", default="1min",
                   help="MTBF for the risk check")
    v.add_argument("--des", type=int, default=0,
                   help="number of DES replicas (0 = skip, slow)")
    v.add_argument("--seed", type=int, default=20130520)

    o = sub.add_parser("optimum", help="optimal period/waste/risk for a config")
    o.add_argument("--protocol", choices=sorted(PROTOCOLS), default="double-nbl")
    o.add_argument("--scenario", choices=sorted(scenarios.SCENARIOS), default="base")
    o.add_argument("--M", default="7h")
    o.add_argument("--phi", type=float, default=None,
                   help="overhead phi [s]; default R/2")
    o.add_argument("--T", default=None,
                   help="execution length for the success probability")

    t = sub.add_parser("tune", help="jointly tune phi and the period")
    t.add_argument("--protocol", choices=sorted(PROTOCOLS), default="triple")
    t.add_argument("--scenario", choices=sorted(scenarios.SCENARIOS), default="base")
    t.add_argument("--M", default="10min")
    t.add_argument("--T", default=None,
                   help="mission time for the risk constraint (e.g. '30d')")
    t.add_argument("--min-success", type=float, default=0.999,
                   help="success-probability floor (with --T)")

    c = sub.add_parser(
        "campaign",
        help="run a protocol x M x phi DES sweep (parallel, resumable, "
             "multi-machine via --queue)",
    )
    c.add_argument("action", nargs="?", choices=("run", "merge"),
                   default="run",
                   help="'run' (default) executes the sweep / joins a "
                        "queue; 'merge' combines a queue's worker shards "
                        "into one results file (--queue + --out)")
    c.add_argument("--spec", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="load the whole campaign (grid + execution "
                        "policy) from a CampaignSpec JSON file; only "
                        "--results/--resume/--dump-spec/--store/"
                        "--store-mode may be combined with it")
    c.add_argument("--dump-spec", action="store_true",
                   help="print the CampaignSpec JSON the given flags "
                        "describe and exit without running (freeze a "
                        "flag combination into a file for --spec)")
    c.add_argument("--preset", choices=sorted(scenarios.CAMPAIGN_PRESETS),
                   default=None,
                   help="named campaign workload; fixes the whole grid "
                        "(only --replicas/--seed/--share-traces/--results "
                        "may be combined with it)")
    c.add_argument("--scenario", choices=sorted(scenarios.SCENARIOS),
                   default=None,
                   help="platform scenario (default base; not valid with "
                        "--preset)")
    c.add_argument("--protocols", default=None,
                   help="comma-separated protocol keys (default "
                        "'double-nbl,triple'; not valid with --preset)")
    c.add_argument("--M", default=None,
                   help="comma-separated MTBFs (default '10min,30min'; "
                        "not valid with --preset)")
    c.add_argument("--phi", default=None,
                   help="comma-separated overheads phi [s] (default '1.0'; "
                        "not valid with --preset)")
    c.add_argument("--n", type=int, default=None,
                   help="simulated node count; must be a multiple of "
                        "every protocol's buddy-group size (default 72; "
                        "not valid with --preset)")
    c.add_argument("--work-target", default=None,
                   help="application work per run (default '30min'; not "
                        "valid with --preset)")
    c.add_argument("--replicas", type=int, default=None,
                   help="DES replicas per cell (default: preset's, else 4)")
    c.add_argument("--seed", type=int, default=None,
                   help="campaign seed (default 777)")
    c.add_argument("--share-traces", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="replay one failure trace per (M, replica) across "
                        "protocols (common random numbers); default off "
                        "for explicit grids, per-preset otherwise — "
                        "--no-share-traces forces independent replicas")
    c.add_argument("--results", type=pathlib.Path, default=None,
                   help="JSON Lines sink for every raw run")
    c.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --results "
                        "(requires --results)")
    c.add_argument("--progress", action="store_true",
                   help="stream per-cell progress lines to stderr as "
                        "cells finish (counters from the event "
                        "pipeline's progress consumer)")
    c.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = all cores; 1 = in-process "
                        "serial, still bit-identical)")
    c.add_argument("--chunk-size", type=int, default=None,
                   help="grid cells per worker task (default: one "
                        "(protocol, M) row)")
    c.add_argument("--sink", choices=("ordered", "framed"),
                   default=None,
                   help="results-file format: 'ordered' keeps grid order "
                        "(byte-identical to serial; the default); "
                        "'framed' appends each cell the moment it "
                        "completes (no head-of-line blocking, still "
                        "resumable; implied by --queue)")
    c.add_argument("--adaptive-ci", type=float, default=None,
                   metavar="TOL",
                   help="stop each cell early once the 95%% CI half-width "
                        "of its mean waste is <= TOL (runs at most "
                        "--replicas; deterministic; with --results "
                        "requires --sink framed)")
    c.add_argument("--adaptive-wilson", type=float, default=None,
                   metavar="WIDTH",
                   help="stop each cell early once the 95%% Wilson "
                        "interval of its success rate is narrower than "
                        "WIDTH (the rule for risk-probability sweeps; "
                        "same bounds and sink requirements as "
                        "--adaptive-ci, mutually exclusive with it)")
    c.add_argument("--queue", type=pathlib.Path, default=None,
                   metavar="DIR",
                   help="join (or initialise) the shared work-stealing "
                        "queue at DIR as one distributed worker; run the "
                        "same command on every machine sharing DIR")
    c.add_argument("--worker-id", default=None, metavar="ID",
                   help="stable identity of this worker in the queue "
                        "([A-Za-z0-9_-]; default "
                        "<hostname>-<pid>-<nonce>); names this worker's "
                        "claim files and shard — pass an explicit id to "
                        "reuse a shard across worker restarts")
    c.add_argument("--lease", type=float, default=60.0, metavar="SECONDS",
                   help="chunk lease: a claimed chunk whose worker has "
                        "not refreshed it for this long is presumed dead "
                        "and re-claimed by another worker (default 60)")
    c.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="idle polling interval while waiting for "
                        "claimable chunks (default 0.5)")
    c.add_argument("--worker-procs", type=int, default=1, metavar="N",
                   help="process-pool size inside this distributed "
                        "worker (0 = all cores; requires --queue): one "
                        "worker per machine can still use every core "
                        "while the fleet work-steals whole chunks")
    c.add_argument("--store", type=pathlib.Path, default=None,
                   metavar="DIR",
                   help="content-addressed results store: cells already "
                        "warehoused are served instead of simulated "
                        "(byte-identical output), fresh cells are "
                        "published for future runs; volatile, so it "
                        "combines with --spec/--resume/--queue freely")
    c.add_argument("--store-mode", choices=("off", "read", "read-write"),
                   default=None,
                   help="how --store is used: 'read-write' (default) "
                        "consults and publishes, 'read' only consults, "
                        "'off' ignores the store")
    c.add_argument("--backend", choices=("des", "vectorized"),
                   default=None,
                   help="simulation engine: 'des' (default) simulates "
                        "every event; 'vectorized' runs whole cells as "
                        "numpy batches via the renewal closed forms "
                        "(~10-100x faster, statistically equivalent but "
                        "not byte-identical; shared failure traces become "
                        "common random-number streams per M and replica)")
    c.add_argument("--trace", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="write a Chrome trace-event JSON of the run "
                        "(campaign/cell spans plus store and queue "
                        "internals; load in chrome://tracing or "
                        "Perfetto); volatile like --store, so it "
                        "combines with --spec")
    c.add_argument("--out", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="(merge) destination for the merged campaign "
                        "results file; a .manifest sidecar is written "
                        "next to it")
    c.add_argument("--partial", action="store_true",
                   help="(merge) merge the complete cells of an "
                        "unfinished queue instead of refusing; the "
                        "partial file can be finished with --resume")
    # Parser-level defaults take precedence over the per-argument ones:
    # this makes _CAMPAIGN_DEFAULTS authoritative for every campaign flag.
    c.set_defaults(**_CAMPAIGN_DEFAULTS)

    st = sub.add_parser(
        "store",
        help="inspect and manage a content-addressed results store "
             "(ls | stat | gc | compact | export)",
    )
    st.add_argument("action",
                    choices=("ls", "stat", "gc", "compact", "export"),
                    help="'ls' lists entries (filterable), 'stat' prints "
                         "totals (--verify re-checks every entry), 'gc' "
                         "evicts to a retention budget, 'compact' packs "
                         "loose entries into a segment file (flat "
                         "warm-lookup latency at fleet scale), 'export' "
                         "materialises a spec's results file with zero "
                         "simulations")
    st.add_argument("--store", type=pathlib.Path, required=True,
                    metavar="DIR", help="the store directory")
    st.add_argument("--protocol", default=None,
                    help="(ls) only entries of this protocol")
    st.add_argument("--M", default=None,
                    help="(ls) only entries at this MTBF (e.g. '10min')")
    st.add_argument("--phi", type=float, default=None,
                    help="(ls) only entries at this overhead phi [s]")
    st.add_argument("--limit", type=int, default=20,
                    help="(ls) print at most this many entries "
                         "(default 20; 0 = all)")
    st.add_argument("--verify", action="store_true",
                    help="(stat) re-verify every entry against its "
                         "stored bytes; exit 1 on corruption")
    st.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="(gc) evict least-recently-used entries until "
                         "the store holds at most N bytes")
    st.add_argument("--max-age", default=None, metavar="AGE",
                    help="(gc) evict entries idle longer than AGE "
                         "(e.g. '7d', '12h', 3600)")
    st.add_argument("--pin-queue", type=pathlib.Path, action="append",
                    default=[], metavar="DIR",
                    help="(gc) never evict cells referenced by this "
                         "campaign queue directory's manifest "
                         "(repeatable) — protects in-progress fleets")
    st.add_argument("--pin-spec", type=pathlib.Path, action="append",
                    default=[], metavar="FILE",
                    help="(gc) never evict cells in this CampaignSpec "
                         "JSON file's footprint (repeatable)")
    st.add_argument("--dry-run", action="store_true",
                    help="(gc/compact) report what would happen, change "
                         "nothing")
    st.add_argument("--spec", type=pathlib.Path, default=None,
                    metavar="FILE",
                    help="(export) the CampaignSpec JSON file to resolve "
                         "from the store")
    st.add_argument("--out", type=pathlib.Path, default=None,
                    metavar="FILE",
                    help="(export) destination results file (framed, "
                         "grid-ordered, byte-identical to a run; a "
                         ".manifest sidecar is written next to it)")

    sv = sub.add_parser(
        "serve",
        help="run the always-on campaign service (HTTP query/submit "
             "daemon over a results store)",
    )
    sv.add_argument("--store", type=pathlib.Path, required=True,
                    metavar="DIR",
                    help="the results store the service answers from "
                         "and publishes into (created if missing)")
    sv.add_argument("--data", type=pathlib.Path, default=None,
                    metavar="DIR",
                    help="where submitted campaigns' results files live "
                         "(default: <store>/service)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8642,
                    help="TCP port; 0 binds an ephemeral port and "
                         "prints it (default 8642)")
    sv.add_argument("--service-workers", type=int, default=2,
                    metavar="N",
                    help="background campaign sessions run at once "
                         "(default 2)")
    sv.add_argument("--metrics", action="store_true",
                    help="print the Prometheus scrape URL on startup "
                         "(GET /metrics is always served; this just "
                         "surfaces the address for scrape configs)")
    sv.add_argument("--no-drain", action="store_true",
                    help="on SIGINT/SIGTERM cancel running campaigns at "
                         "the next cell boundary instead of letting "
                         "them finish (their results files stay valid "
                         "resumable prefixes either way)")

    r = sub.add_parser(
        "report",
        help="render analyses from persisted results (no re-simulation)",
    )
    r.add_argument("--from-campaign", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="campaign JSON Lines results file (either sink "
                        "format) to render waste and ratio tables from")
    r.add_argument("--from-spec", type=pathlib.Path, default=None,
                   metavar="FILE",
                   help="CampaignSpec JSON file to render straight from "
                        "a results store (requires --store; zero "
                        "re-simulation, no results file needed)")
    r.add_argument("--store", type=pathlib.Path, default=None,
                   metavar="DIR",
                   help="results store to resolve --from-spec cells from")
    return parser


def _parse_values(text: str, parse) -> tuple[float, ...]:
    return tuple(parse(tok) for tok in text.split(",") if tok.strip())


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        return _run_campaign_command(args)
    except ReproError as exc:
        # The engine composes actionable one-line refusals (config drift,
        # foreign results files, bad grids) — surface them, not tracebacks.
        print(f"campaign: {exc}", file=sys.stderr)
        return 2


#: campaign flags that shape a *run* — `campaign merge` refuses them.
_RUN_SHAPING_FLAGS = (
    ("spec", "--spec"), ("dump_spec", "--dump-spec"),
    ("preset", "--preset"), ("scenario", "--scenario"),
    ("protocols", "--protocols"), ("M", "--M"), ("phi", "--phi"),
    ("n", "--n"), ("work_target", "--work-target"),
    ("replicas", "--replicas"), ("seed", "--seed"),
    ("share_traces", "--share-traces"), ("results", "--results"),
    ("resume", "--resume"), ("chunk_size", "--chunk-size"),
    ("sink", "--sink"), ("adaptive_ci", "--adaptive-ci"),
    ("adaptive_wilson", "--adaptive-wilson"),
    ("worker_id", "--worker-id"), ("workers", "--workers"),
    ("lease", "--lease"), ("poll", "--poll"),
    ("worker_procs", "--worker-procs"),
    ("store", "--store"), ("store_mode", "--store-mode"),
    ("backend", "--backend"), ("progress", "--progress"),
    ("trace", "--trace"),
)
#: campaign flags subsumed by a spec file — `--spec` refuses them.
#: (--store/--store-mode are deliberately absent: they are volatile
#: policy — incapable of changing output bytes — so layering them over a
#: reviewed spec runs exactly the reviewed campaign, just cheaper.)
_SPEC_CONFLICT_FLAGS = (
    ("preset", "--preset"), ("scenario", "--scenario"),
    ("protocols", "--protocols"), ("M", "--M"), ("phi", "--phi"),
    ("n", "--n"), ("work_target", "--work-target"),
    ("replicas", "--replicas"), ("seed", "--seed"),
    ("share_traces", "--share-traces"), ("chunk_size", "--chunk-size"),
    ("sink", "--sink"), ("adaptive_ci", "--adaptive-ci"),
    ("adaptive_wilson", "--adaptive-wilson"), ("workers", "--workers"),
    ("queue", "--queue"), ("worker_id", "--worker-id"),
    ("lease", "--lease"), ("poll", "--poll"),
    ("worker_procs", "--worker-procs"),
    # --backend is output-bearing (engines are statistically equivalent,
    # not byte-identical), so a reviewed spec's backend must win.
    ("backend", "--backend"),
)
#: campaign flags that only tune a distributed worker — require --queue.
_DISTRIBUTED_ONLY_FLAGS = (
    ("worker_id", "--worker-id"), ("lease", "--lease"), ("poll", "--poll"),
    ("worker_procs", "--worker-procs"),
)


def _explicit_flags(
    args: argparse.Namespace, pairs: tuple[tuple[str, str], ...]
) -> list[str]:
    """The flags in ``pairs`` whose values differ from the campaign
    defaults — i.e. were (in effect) passed explicitly."""
    return [
        flag for attr, flag in pairs
        if getattr(args, attr) != _CAMPAIGN_DEFAULTS[attr]
    ]


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from .sim.distributed import merge_shards

    missing = [flag for flag, value in (("--queue", args.queue),
                                        ("--out", args.out)) if value is None]
    if missing:
        print(f"campaign merge requires {' and '.join(missing)}",
              file=sys.stderr)
        return 2
    # Silently dropping run-shaping flags would mislead; refuse them.
    ignored = _explicit_flags(args, _RUN_SHAPING_FLAGS)
    if ignored:
        print("campaign merge only reads --queue/--out/--partial; drop "
              + ", ".join(ignored), file=sys.stderr)
        return 2
    report = merge_shards(
        args.queue, args.out, require_complete=not args.partial
    )
    print(report.describe())
    print(f"merged results: {args.out}")
    return 0


def _build_campaign_spec(args: argparse.Namespace):
    """The CampaignSpec the campaign flags describe, or an exit code.

    Every ``campaign`` invocation — preset, explicit grid, or ``--spec``
    file — converges on one spec object here; execution, ``--dump-spec``
    and the manifest/queue fingerprints all consume it, so the CLI can no
    longer describe a campaign the engine cannot serialise.
    """
    from .sim.campaign import CampaignConfig
    from .sim.spec import CampaignSpec, ExecutionPolicy

    if args.spec is not None:
        # The file is the whole configuration: silently layering flags on
        # top would run a different campaign than the reviewed spec.
        # (--store/--store-mode are the exception — volatile policy that
        # cannot change output bytes, only skip recomputing them.)
        conflicts = _explicit_flags(args, _SPEC_CONFLICT_FLAGS)
        if conflicts:
            print(f"--spec fixes the whole campaign; drop "
                  f"{', '.join(conflicts)} or drop --spec", file=sys.stderr)
            return 2
        spec = CampaignSpec.load(args.spec)
        if args.store is not None or args.store_mode is not None:
            from dataclasses import replace

            updates: dict = {}
            if args.store is not None:
                updates["store"] = str(args.store)
            if args.store_mode is not None:
                updates["store_mode"] = args.store_mode
            spec = replace(spec, policy=replace(spec.policy, **updates))
        return spec

    overrides: dict = {}
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.seed is not None:
        overrides["seed"] = args.seed

    if args.preset is not None:
        # A preset fixes the whole grid: silently ignoring explicit grid
        # flags would run a different sweep than the user asked for.
        conflicts = [
            flag for attr, flag in (
                ("scenario", "--scenario"), ("protocols", "--protocols"),
                ("M", "--M"), ("phi", "--phi"), ("n", "--n"),
                ("work_target", "--work-target"),
            ) if getattr(args, attr) is not None
        ]
        if conflicts:
            print(f"--preset fixes the grid; drop {', '.join(conflicts)} "
                  "or drop --preset", file=sys.stderr)
            return 2
        preset = scenarios.get_campaign_preset(args.preset)
        if args.share_traces is not None:
            overrides["share_traces"] = args.share_traces
        config = preset.campaign_config(**overrides)
    else:
        scen = scenarios.get_scenario(args.scenario or "base")
        m_text = args.M or "10min,30min"
        n = 72 if args.n is None else args.n
        protocols = tuple(
            tok.strip() for tok in (args.protocols or "double-nbl,triple").split(",")
            if tok.strip()
        )
        config = CampaignConfig(
            protocols=protocols,
            base_params=scen.parameters(M=m_text.split(",")[0], n=n),
            m_values=_parse_values(m_text, parse_time),
            phi_values=_parse_values(args.phi or "1.0", float),
            work_target=parse_time(args.work_target or "30min"),
            share_traces=bool(args.share_traces),
            replicas=overrides.pop("replicas", 4),
            **overrides,
        )

    controller = None
    if args.adaptive_ci is not None and args.adaptive_wilson is not None:
        print("--adaptive-ci and --adaptive-wilson are mutually "
              "exclusive: a cell stops on one statistic", file=sys.stderr)
        return 2
    if args.adaptive_ci is not None:
        from .sim.adaptive import AdaptiveCI

        controller = AdaptiveCI(
            max_replicas=config.replicas, tolerance=args.adaptive_ci
        )
    if args.adaptive_wilson is not None:
        from .sim.adaptive import WilsonSuccessRate

        controller = WilsonSuccessRate(
            max_replicas=config.replicas, tolerance=args.adaptive_wilson
        )
    sink = args.sink or ("framed" if args.queue is not None else "ordered")
    return CampaignSpec(
        grid=config,
        policy=ExecutionPolicy(
            workers=args.workers,
            chunk_size=args.chunk_size,
            sink=sink,
            controller=controller,
            queue=None if args.queue is None else str(args.queue),
            worker_id=args.worker_id,
            lease_timeout=args.lease,
            poll_interval=args.poll,
            worker_processes=args.worker_procs,
            store=None if args.store is None else str(args.store),
            store_mode=args.store_mode or "read-write",
            backend=args.backend or "des",
        ),
    )


def _run_campaign_command(args: argparse.Namespace) -> int:
    from .sim.campaign import cells_table
    from .sim.spec import Campaign

    if args.action == "merge":
        return _cmd_campaign_merge(args)

    if args.out is not None or args.partial:
        print("--out/--partial belong to 'campaign merge' (campaign "
              "merge --queue DIR --out FILE [--partial])", file=sys.stderr)
        return 2
    if args.queue is None and args.spec is None:
        distributed_only = _explicit_flags(args, _DISTRIBUTED_ONLY_FLAGS)
        if distributed_only:
            print(f"{', '.join(distributed_only)} require --queue "
                  "(they tune a distributed worker)", file=sys.stderr)
            return 2
    if args.queue is not None:
        # Flag-level spellings of refusals ExecutionPolicy also enforces:
        # the CLI names the flag to drop, the policy stays authoritative.
        conflicts = []
        if args.results is not None:
            conflicts.append("--results (workers write shards in the "
                             "queue; use 'campaign merge --out')")
        if args.resume:
            conflicts.append("--resume (rejoining the queue is the resume)")
        if args.workers != 1:
            conflicts.append("--workers (start more --queue workers "
                             "instead)")
        if args.sink is not None and args.sink != "framed":
            conflicts.append("--sink ordered (distributed campaigns are "
                             "framed)")
        if conflicts:
            print("--queue conflicts with " + "; ".join(conflicts),
                  file=sys.stderr)
            return 2
    if args.resume and args.results is None:
        print("--resume requires --results", file=sys.stderr)
        return 2

    spec = _build_campaign_spec(args)
    if isinstance(spec, int):
        return spec
    # Checked against the *built* spec so the --spec path is covered
    # too: a mode with no store anywhere would silently run storeless.
    if args.store_mode is not None and spec.policy.store is None:
        print("--store-mode tunes a store; pass --store DIR (or a --spec "
              "whose policy names one)", file=sys.stderr)
        return 2
    if args.dump_spec:
        if args.results is not None or args.resume:
            print("--dump-spec prints the campaign description, which "
                  "never contains a results path; drop --results/--resume",
                  file=sys.stderr)
            return 2
        print(spec.to_json(), end="")
        return 0

    # The CLI is a plain session consumer: open the spec, stream the
    # typed events (the same seam the campaign service subscribes to),
    # collect the execution at the end.
    tracer = None
    if args.trace is not None:
        from .obs import Tracer, install_tracer

        tracer = install_tracer(Tracer())
    try:
        session = Campaign(spec).session(args.results, resume=args.resume)
        if args.progress:
            from .sim.events import CellFinished

            for event in session.events():
                if isinstance(event, CellFinished):
                    plan = event.plan
                    print(f"  cell {plan.index}: {plan.protocol} "
                          f"M={plan.M:g} phi={plan.phi:g} "
                          f"({len(event.results)} replicas, "
                          f"{event.source}) "
                          f"— {session.progress().describe()}",
                          file=sys.stderr)
            execution = session.result()
        else:
            execution = session.run()
    finally:
        if tracer is not None:
            from .obs import uninstall_tracer

            uninstall_tracer()
    if tracer is not None:
        spans = tracer.write_chrome(args.trace)
        print(f"trace: {args.trace} ({spans} spans)", file=sys.stderr)
    print(cells_table(execution.cells))
    print(execution.report.describe())
    if args.results is not None:
        print(f"raw runs: {args.results}")
    if spec.policy.store is not None and spec.policy.store_mode != "off":
        print(f"store: {spec.policy.store} "
              f"({execution.report.cells_cached} cells served from it)")
        stats = session.cache_stats()
        if stats is not None:
            print(f"store cache: {stats.describe()}")
    if spec.policy.queue is not None:
        from .sim.distributed import queue_status

        print(f"queue: {queue_status(spec.policy.queue).describe()}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        if (args.from_campaign is None) == (args.from_spec is None):
            print("report needs exactly one source: --from-campaign FILE "
                  "or --from-spec FILE --store DIR", file=sys.stderr)
            return 2
        if args.from_campaign is not None:
            if args.store is not None:
                print("--store belongs to --from-spec (a results file "
                      "already holds its cells)", file=sys.stderr)
                return 2
            from .experiments.report import campaign_report

            print(campaign_report(args.from_campaign), end="")
            return 0
        if args.store is None:
            print("--from-spec needs --store DIR (the store to resolve "
                  "the spec's cells from)", file=sys.stderr)
            return 2
        from .experiments.report import store_report
        from .sim.spec import CampaignSpec

        print(store_report(args.store, CampaignSpec.load(args.from_spec)),
              end="")
        return 0
    except (OSError, ReproError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import CampaignService

    try:
        service = CampaignService(
            store=args.store,
            data_dir=args.data if args.data is not None
            else args.store / "service",
            host=args.host, port=args.port,
            workers=args.service_workers,
        )
    except (OSError, ReproError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # Serve on a daemon thread and park the main thread on an event:
    # signal handlers only set the flag, so shutdown never runs inside
    # the serve loop it has to join.
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    service.start()
    # Port 0 binds an ephemeral port; print the resolved address so
    # callers (and the lifecycle tests) can find the daemon.
    print(f"campaign service listening on {service.url()} "
          f"(store: {service.store.root})", flush=True)
    if args.metrics:
        print(f"metrics: {service.url('/metrics')} "
              "(Prometheus text exposition)", flush=True)
    try:
        # ``POST /shutdown`` completes the drain on its own thread; the
        # closed flag ends this loop so the process exits either way.
        while not stop.wait(0.2):
            if service.wait_closed(0.0):
                break
    except KeyboardInterrupt:
        pass
    drain = not args.no_drain
    print("campaign service: "
          + ("draining in-flight campaigns..." if drain
             else "cancelling in-flight campaigns..."),
          flush=True)
    service.shutdown(drain=drain)
    print("campaign service: stopped", flush=True)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    try:
        return _run_store_command(args)
    except (OSError, ReproError) as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 2


def _run_store_command(args: argparse.Namespace) -> int:
    from .experiments.report import ascii_table
    from .store import CampaignStore

    # Inspection/management of an *existing* store: a missing directory
    # is an error here (campaign --store is what creates stores).
    store = CampaignStore(args.store, create=False)

    if args.action == "ls":
        entries = sorted(
            store.query(
                protocol=args.protocol,
                M=None if args.M is None else parse_time(args.M),
                phi=args.phi,
            ),
            key=lambda e: (e.protocol or "", e.M, e.phi, e.seed or 0),
        )
        shown = entries if not args.limit else entries[:args.limit]
        # One row per cell entry: seeds are replica 0's, "replicas" the
        # stored prefix length.
        rows = [
            [e.protocol, e.M, e.phi, e.n, e.seed,
             "-" if e.trace_seed is None else e.trace_seed,
             e.replicas if e.origin != "retired" else "retired", e.size]
            for e in shown
        ]
        print(ascii_table(
            ["protocol", "M", "phi", "n", "seed", "trace seed",
             "replicas", "bytes"],
            rows,
            title=f"=== store {args.store} "
                  f"({len(shown)}/{len(entries)} entries) ===",
        ), end="")
        return 0

    if args.action == "stat":
        print(f"store: {args.store}")
        if args.verify:
            # One scan serves both: verify() *collects* corruption
            # (where the plain stat scan would die on the first
            # unreadable entry) and aggregates the clean entries.
            report = store.verify()
            print(report.describe())
            if not report.ok:
                for error in report.errors[1:]:
                    print(error, file=sys.stderr)
                return 1
            print(report.stat.describe())
            return 0
        print(store.stat().describe())
        return 0

    if args.action == "gc":
        if args.max_bytes is None and args.max_age is None:
            print("store gc needs a retention budget: --max-bytes N "
                  "and/or --max-age AGE", file=sys.stderr)
            return 2
        from .sim.spec import CampaignSpec

        report = store.gc(
            max_bytes=args.max_bytes,
            max_age=None if args.max_age is None else parse_time(args.max_age),
            pin_specs=[CampaignSpec.load(p) for p in args.pin_spec],
            pin_queues=args.pin_queue,
            dry_run=args.dry_run,
        )
        print(report.describe())
        return 0

    if args.action == "compact":
        report = store.compact(dry_run=args.dry_run)
        print(report.describe())
        return 0

    # export
    missing = [flag for flag, value in (("--spec", args.spec),
                                        ("--out", args.out)) if value is None]
    if missing:
        print(f"store export requires {' and '.join(missing)}",
              file=sys.stderr)
        return 2
    from .sim.spec import CampaignSpec

    report = store.export(CampaignSpec.load(args.spec), args.out)
    print(report.describe())
    print(f"exported results: {args.out}")
    return 0


def _cmd_experiment(key: str, args: argparse.Namespace) -> int:
    data = run_experiment(key)
    print(data.render())
    if getattr(args, "csv", None) is not None:
        outdir: pathlib.Path = args.csv
        outdir.mkdir(parents=True, exist_ok=True)
        payload = data.to_csv()
        if isinstance(payload, str):
            (outdir / f"{key}.csv").write_text(payload)
            print(f"wrote {outdir / (key + '.csv')}")
        else:
            for name, text in payload.items():
                path = outdir / f"{key}_{name}.csv"
                path.write_text(text)
                print(f"wrote {path}")
        if hasattr(data, "to_gnuplot"):
            for name, script in data.to_gnuplot().items():
                path = outdir / f"{key}_{name}.gp"
                path.write_text(script)
                print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scen = scenarios.get_scenario(args.scenario)
    params = scen.parameters(M=args.M)
    risk_params = scen.parameters(M=args.risk_M)
    report = validate_all(
        params,
        args.phi,
        risk_params=risk_params,
        risk_T=parse_time(args.risk_T),
        des_replicas=args.des,
        seed=args.seed,
    )
    print(report.render())
    return 0 if report.all_passed else 1


def _cmd_optimum(args: argparse.Namespace) -> int:
    scen = scenarios.get_scenario(args.scenario)
    params = scen.parameters(M=args.M)
    spec = get_protocol(args.protocol)
    phi = params.R / 2 if args.phi is None else args.phi
    period = optimal_period(spec, params, phi)
    bd = waste_at_optimum(spec, params, phi)
    risk = risk_window(spec, params, phi)
    print(f"protocol     : {spec.name}")
    print(f"scenario     : {scen.key} ({params.describe()})")
    print(f"phi          : {phi:g}s (phi/R = {phi / params.R:.3f})")
    print(f"theta(phi)   : {float(np.asarray(spec.theta(params, phi))):g}s")
    if np.isfinite(period):
        print(f"optimal P    : {period:.3f}s ({format_time(float(period))})")
        print(f"waste        : {float(np.asarray(bd.total)):.6f} "
              f"(fault-free {float(np.asarray(bd.fault_free)):.6f}, "
              f"failures {float(np.asarray(bd.failure)):.6f})")
    else:
        print("optimal P    : infeasible (waste saturates at 1)")
    print(f"risk window  : {risk:g}s")
    if args.T is not None:
        T = parse_time(args.T)
        p = success_probability(spec, params, phi, T)
        print(f"P(success)   : {p:.6f} over T={format_time(T)}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .analysis.tuning import optimal_phi, optimal_phi_constrained

    scen = scenarios.get_scenario(args.scenario)
    params = scen.parameters(M=args.M)
    spec = get_protocol(args.protocol)
    if args.T is None:
        choice = optimal_phi(spec, params)
    else:
        choice = optimal_phi_constrained(
            spec, params, parse_time(args.T), min_success=args.min_success
        )
        if choice is None:
            print(f"no phi meets P(success) >= {args.min_success} over "
                  f"T={args.T} with {spec.name}; try a triple protocol or "
                  "a shorter mission")
            return 1
    print(f"protocol     : {spec.name}")
    print(f"scenario     : {scen.key} ({params.describe()})")
    print(f"tuned phi    : {choice.phi:.4f}s (phi/R = {choice.phi / params.R:.3f})")
    print(f"theta        : {choice.theta:.3f}s")
    print(f"period       : {choice.period:.3f}s")
    print(f"waste        : {choice.waste:.6f}")
    print(f"risk window  : {choice.risk_window:.1f}s")
    if args.T is not None:
        print(f"P(success)   : {choice.success:.6f} over {args.T}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for key, exp in EXPERIMENTS.items():
            print(f"{key:8s} {exp.paper_ref:10s} {exp.title}")
        return 0
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "optimum":
        return _cmd_optimum(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_experiment(args.command, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
