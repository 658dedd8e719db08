"""Declarative campaign specs: one serializable object, one entry point.

Before this module, *describing* a campaign was smeared across ~15
executor kwargs, CLI flags, preset tuples and hand-built manifest dicts —
every new capability widened three surfaces at once.  A
:class:`CampaignSpec` collapses them into one frozen, versioned,
JSON-round-trippable value with two halves:

* the **grid** — *what to simulate*: a
  :class:`~repro.sim.campaign.CampaignConfig` (protocols × M × φ,
  platform parameters, work target, replicas, seed, failure law);
* the **policy** — *how to execute it*: an :class:`ExecutionPolicy`
  (backend choice including the distributed queue/worker/lease
  parameters, sink mode, replica controller, chunking).

Deliberately **not** in the spec: the results path.  A spec describes a
campaign; *where one particular execution lands* is an argument to
:meth:`Campaign.run`, so the same spec object can drive a fresh run, a
resume, and a fleet of queue workers without mutation.

The split mirrors the checkpoint-placement literature's separation of
*policy* from *mechanism*: the executor/backends/sinks are mechanism, the
spec is the policy object handed to them.

Serialisation discipline (mirrors the :mod:`repro.io` envelope rules):
``to_dict`` emits ``{"format": "repro-campaign-spec", "version": 1, ...}``;
``from_dict`` validates the format, gates on declared version, rejects
unknown fields with actionable messages, and applies defaults for omitted
optional ones — so hand-written spec files stay terse and files written
by newer library versions fail loudly instead of silently mis-loading.
``from_dict(to_dict(spec)) == spec`` holds exactly (value equality,
including failure laws and controllers).

Identity vs. description
------------------------
Two executions of one campaign may legitimately differ in worker count,
chunking, or queue wiring without changing a byte of output — those
policy fields are *volatile*.  :meth:`CampaignSpec.identity` resets them
to defaults; :meth:`CampaignSpec.fingerprint` is the identity's dict form
and is what results-file manifests and queue manifests store.  Drift
detection on resume/join is therefore literally spec inequality:
``CampaignSpec.from_dict(stored) != spec.identity()``.

The façade
----------
:class:`Campaign` is the one public entry point::

    from repro.sim import Campaign, CampaignSpec, ExecutionPolicy

    spec = CampaignSpec.load("sweep.json")          # or a preset: Campaign("smoke")
    execution = Campaign(spec).run("results.jsonl")  # fresh run
    Campaign(spec).resume("results.jsonl")           # finish an interrupted one
    print(Campaign(spec).report("results.jsonl"))    # offline, zero re-simulation

Queue workers run the same spec with ``policy.queue`` set; any machine
can then ``Campaign(spec).merge("results.jsonl")`` the shards.  The spec
is the only way to describe a campaign: every runner (the façade,
:func:`~repro.sim.executor.execute_spec`, the CLI, the service) takes one.
"""

from __future__ import annotations

import json
import numbers
import pathlib
from dataclasses import dataclass, replace
from typing import Any, Callable

from ..errors import ParameterError
from .adaptive import FixedReplicas, ReplicaController, controller_from_dict
from .campaign import CampaignCell, CampaignConfig
from .distributions import distribution_from_dict
from .sinks import SINK_MODES

__all__ = [
    "SPEC_FORMAT",
    "SPEC_VERSION",
    "STORE_MODES",
    "CAMPAIGN_BACKENDS",
    "ExecutionPolicy",
    "CampaignSpec",
    "Campaign",
]

#: How a campaign uses a results store (:mod:`repro.store`): ``"off"``
#: ignores it, ``"read"`` consults it without publishing, ``"read-write"``
#: (the default whenever a store is configured) consults and publishes.
#: All three are *volatile*: they cannot change a single output byte,
#: only how many simulations it costs to produce them.
STORE_MODES = ("off", "read", "read-write")

#: Simulation engines a campaign can run on: ``"des"`` (the per-event
#: discrete-event simulator, the historical default) or ``"vectorized"``
#: (:mod:`repro.sim.vectorized` — whole cells as numpy batches via the
#: renewal closed forms, shared traces as common random numbers).  NOT
#: volatile: the engines are statistically equivalent but not
#: byte-identical, so the backend participates in identity/fingerprints
#: and a resume or queue join with a different backend is refused as
#: drift.
CAMPAIGN_BACKENDS = ("des", "vectorized")

SPEC_FORMAT = "repro-campaign-spec"
#: Written version.  Readers gate on each object's declared version, so a
#: future shape change bumps this and keeps reading older spellings.
SPEC_VERSION = 1
_READ_VERSIONS = frozenset({1})

#: Policy fields that cannot change campaign *output* — reset by
#: :meth:`CampaignSpec.identity`, excluded from fingerprints, and
#: therefore free to differ between a run and its resume or between
#: workers joining one queue.
_VOLATILE_POLICY_FIELDS = {
    "workers": 1,
    "chunk_size": None,
    "queue": None,
    "worker_id": None,
    "lease_timeout": 60.0,
    "poll_interval": 0.5,
    "worker_processes": 1,
    "store": None,
    "store_mode": "read-write",
}


def _check_number(name: str, value: Any, *, positive: bool) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if positive and value <= 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign executes: backend, sink, replica control, chunking.

    Every field has the historical default, so ``ExecutionPolicy()`` is
    the exact serial path (in-process, ordered sink, fixed replicas).
    Validation happens at construction — *before* any results file is
    touched — so an invalid combination (the classic being ``workers=N``
    with a ``queue``) is refused here with a clear
    :class:`~repro.errors.ParameterError`, not deep inside the executor.
    """

    #: Process count: ``1`` in-process serial, ``None``/``0`` every core.
    workers: int | None = 1
    #: Grid cells per backend task; ``None`` = one (protocol, M) row.
    chunk_size: int | None = None
    #: Results-file format: ``"ordered"`` or ``"framed"``.
    sink: str = "ordered"
    #: Per-cell replica stopping rule; ``None`` = run every replica
    #: (:class:`~repro.sim.adaptive.FixedReplicas`).
    controller: ReplicaController | None = None
    #: Shared chunk-queue directory for multi-machine campaigns.
    queue: str | None = None
    #: Stable worker identity in the queue (``None`` = generated).
    worker_id: str | None = None
    #: Seconds without a lease refresh before a claim is stealable.
    lease_timeout: float = 60.0
    #: Idle polling interval while waiting for claimable chunks.
    poll_interval: float = 0.5
    #: Process-pool size *inside one distributed queue worker*:
    #: a worker with ``worker_processes=N`` runs its claimed chunk's
    #: cells across N local processes (``None``/``0`` = every core).
    #: Requires ``queue``; for single-machine campaigns use ``workers``.
    worker_processes: int | None = 1
    #: Content-addressed results-store directory (:mod:`repro.store`);
    #: ``None`` = no store.  Volatile: a store cannot change output
    #: bytes, only skip recomputing them.
    store: str | None = None
    #: How the store is used: ``"off"``, ``"read"`` or ``"read-write"``
    #: (the default).  Only meaningful when ``store`` is set.
    store_mode: str = "read-write"
    #: Simulation engine (:data:`CAMPAIGN_BACKENDS`): ``"des"`` or
    #: ``"vectorized"``.  Output-bearing (not volatile) — see
    #: :data:`CAMPAIGN_BACKENDS`.
    backend: str = "des"

    def __post_init__(self) -> None:
        if self.backend not in CAMPAIGN_BACKENDS:
            raise ParameterError(
                f"unknown backend {self.backend!r}; "
                f"known: {list(CAMPAIGN_BACKENDS)}"
            )
        if self.workers is not None:
            if (not isinstance(self.workers, numbers.Integral)
                    or isinstance(self.workers, bool) or self.workers < 0):
                raise ParameterError(
                    f"workers must be >= 0 (0/None = every core), "
                    f"got {self.workers!r}"
                )
            object.__setattr__(self, "workers", int(self.workers))
        if self.chunk_size is not None:
            if (not isinstance(self.chunk_size, numbers.Integral)
                    or isinstance(self.chunk_size, bool)
                    or self.chunk_size < 1):
                raise ParameterError(
                    f"chunk_size must be >= 1, got {self.chunk_size!r}"
                )
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
        if self.sink not in SINK_MODES:
            raise ParameterError(
                f"unknown sink mode {self.sink!r}; known: {list(SINK_MODES)}"
            )
        if (self.controller is not None
                and not isinstance(self.controller, ReplicaController)):
            raise ParameterError(
                f"controller must be a ReplicaController, "
                f"got {type(self.controller).__name__}"
            )
        object.__setattr__(
            self, "lease_timeout",
            _check_number("lease_timeout", self.lease_timeout, positive=True),
        )
        object.__setattr__(
            self, "poll_interval",
            _check_number("poll_interval", self.poll_interval, positive=True),
        )
        if self.worker_processes is not None:
            if (not isinstance(self.worker_processes, numbers.Integral)
                    or isinstance(self.worker_processes, bool)
                    or self.worker_processes < 0):
                raise ParameterError(
                    f"worker_processes must be >= 0 (0/None = every "
                    f"core), got {self.worker_processes!r}"
                )
            object.__setattr__(
                self, "worker_processes", int(self.worker_processes)
            )
        if self.store_mode not in STORE_MODES:
            raise ParameterError(
                f"unknown store mode {self.store_mode!r}; "
                f"known: {list(STORE_MODES)}"
            )
        if self.store is not None:
            object.__setattr__(self, "store", str(self.store))
        if self.queue is None and self.worker_processes != 1:
            raise ParameterError(
                f"worker_processes={self.worker_processes} sizes the "
                "in-machine pool of a *distributed* queue worker; for a "
                "single-machine campaign use workers=N"
            )
        if self.queue is not None:
            object.__setattr__(self, "queue", str(self.queue))
            if self.sink != "framed":
                raise ParameterError(
                    "distributed campaigns require sink='framed': workers "
                    "complete chunks in unpredictable order, which the "
                    "ordered byte-prefix format cannot represent"
                )
            if self.workers != 1:
                # None/0 (= every core) refused too: silently running a
                # single process after an explicit all-cores request
                # would hide the dropped parallelism.
                raise ParameterError(
                    f"workers={self.workers} is meaningless for a "
                    "distributed worker (workers shards a single-machine "
                    "campaign); start more workers against the same "
                    "queue, or set worker_processes=N to run this "
                    "worker's claimed cells in a local process pool"
                )
        if self.worker_id is not None:
            from .distributed import _check_worker_id

            _check_worker_id(self.worker_id)

    def to_dict(self) -> dict:
        """Plain JSON-safe dict; the controller becomes its fingerprint."""
        controller = self.controller
        fp = None if controller is None else controller.fingerprint()
        if controller is not None and fp is None \
                and not isinstance(controller, FixedReplicas):
            raise ParameterError(
                f"{type(controller).__name__} has no fingerprint and "
                "cannot be serialised into a CampaignSpec; implement "
                "ReplicaController.fingerprint() for it"
            )
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "sink": self.sink,
            "controller": fp,
            "queue": self.queue,
            "worker_id": self.worker_id,
            "lease_timeout": self.lease_timeout,
            "poll_interval": self.poll_interval,
            "worker_processes": self.worker_processes,
            "store": self.store,
            "store_mode": self.store_mode,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionPolicy":
        """Inverse of :meth:`to_dict`; omitted fields take defaults."""
        if not isinstance(data, dict):
            raise ParameterError(
                f"an execution policy must be an object, "
                f"got {type(data).__name__}"
            )
        known = {
            "workers", "chunk_size", "sink", "controller", "queue",
            "worker_id", "lease_timeout", "poll_interval",
            "worker_processes", "store", "store_mode", "backend",
        }
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown execution-policy field(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        fields = dict(data)
        if "controller" in fields:
            fields["controller"] = controller_from_dict(fields["controller"])
        return cls(**fields)


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, serializable campaign description: grid ⊕ policy.

    Construction normalises the grid (protocol specs become their keys,
    axis values become plain floats) so that equality is value equality
    and a JSON round-trip is exact, and cross-validates grid against
    policy (the controller's replica ceiling must equal the grid's
    budget; an explicit :class:`~repro.sim.adaptive.FixedReplicas`
    matching the budget normalises to ``None``, the canonical spelling of
    the default rule).
    """

    grid: CampaignConfig
    policy: ExecutionPolicy = ExecutionPolicy()

    def __post_init__(self) -> None:
        from ..core.protocols import get_protocol

        if not isinstance(self.grid, CampaignConfig):
            raise ParameterError(
                f"grid must be a CampaignConfig, got {type(self.grid).__name__}"
            )
        if not isinstance(self.policy, ExecutionPolicy):
            raise ParameterError(
                f"policy must be an ExecutionPolicy, "
                f"got {type(self.policy).__name__}"
            )
        object.__setattr__(self, "grid", replace(
            self.grid,
            protocols=tuple(get_protocol(s).key for s in self.grid.protocols),
            m_values=tuple(float(m) for m in self.grid.m_values),
            phi_values=tuple(float(p) for p in self.grid.phi_values),
            work_target=float(self.grid.work_target),
            replicas=int(self.grid.replicas),
            seed=int(self.grid.seed),
            share_traces=bool(self.grid.share_traces),
            max_time=None if self.grid.max_time is None
            else float(self.grid.max_time),
        ))
        controller = self.policy.controller
        if controller is not None:
            if controller.max_replicas != self.grid.replicas:
                raise ParameterError(
                    f"controller.max_replicas={controller.max_replicas} "
                    f"must equal the grid's replicas={self.grid.replicas}: "
                    "the campaign's replica budget is the single source "
                    "of truth for the per-cell ceiling"
                )
            if isinstance(controller, FixedReplicas):
                object.__setattr__(
                    self, "policy", replace(self.policy, controller=None)
                )

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def config(self) -> CampaignConfig:
        """The grid the backends execute."""
        return self.grid

    def controller(self) -> ReplicaController:
        """The effective replica controller (default: every replica)."""
        return self.policy.controller or FixedReplicas(self.grid.replicas)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def identity(self) -> "CampaignSpec":
        """This spec with the volatile policy fields reset to defaults.

        Two specs with equal identities produce byte-identical campaign
        files; everything the identity drops (worker counts, chunking,
        queue wiring) only changes *where and how fast* the same bytes
        are computed.  Resume and queue-join drift checks compare
        identities — spec inequality *is* the drift signal.
        """
        return replace(
            self, policy=replace(self.policy, **_VOLATILE_POLICY_FIELDS)
        )

    def fingerprint(self) -> dict:
        """The identity's dict form — what manifests store verbatim."""
        return self.identity().to_dict()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The spec as a plain JSON-safe dict (versioned envelope)."""
        grid = self.grid
        dist = grid.distribution
        return {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "grid": {
                "protocols": list(grid.protocols),
                "params": grid.base_params.to_dict(),
                "m_values": list(grid.m_values),
                "phi_values": list(grid.phi_values),
                "work_target": grid.work_target,
                "replicas": grid.replicas,
                "seed": grid.seed,
                "share_traces": grid.share_traces,
                "max_time": grid.max_time,
                "distribution": None if dist is None else dist.to_dict(),
            },
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`, with validation and defaulting.

        Version-gated like the :mod:`repro.io` envelopes: an undeclared
        or unsupported version is refused by number, never guessed at.
        Optional grid fields (``replicas``, ``seed``, ``share_traces``,
        ``max_time``, ``distribution``) and the whole ``policy`` object
        may be omitted — hand-written spec files only say what they mean.
        """
        from ..core.parameters import Parameters

        if not isinstance(data, dict) or data.get("format") != SPEC_FORMAT:
            raise ParameterError(
                f"not a {SPEC_FORMAT} object (format="
                f"{data.get('format')!r})" if isinstance(data, dict)
                else f"a campaign spec must be an object, "
                     f"got {type(data).__name__}"
            )
        version = data.get("version")
        if version not in _READ_VERSIONS:
            raise ParameterError(
                f"unsupported campaign-spec version {version!r} "
                f"(this library reads versions {sorted(_READ_VERSIONS)})"
            )
        unknown = set(data) - {"format", "version", "grid", "policy"}
        if unknown:
            raise ParameterError(
                f"unknown campaign-spec field(s): {sorted(unknown)}; "
                "known: grid, policy"
            )
        grid = data.get("grid")
        if not isinstance(grid, dict):
            raise ParameterError(
                "campaign spec is missing its 'grid' object"
            )
        known = {
            "protocols", "params", "m_values", "phi_values", "work_target",
            "replicas", "seed", "share_traces", "max_time", "distribution",
        }
        unknown = set(grid) - known
        if unknown:
            raise ParameterError(
                f"unknown grid field(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        missing = {"protocols", "params", "m_values", "phi_values",
                   "work_target"} - set(grid)
        if missing:
            raise ParameterError(f"grid is missing field(s): {sorted(missing)}")
        dist = grid.get("distribution")
        config = CampaignConfig(
            protocols=tuple(grid["protocols"]),
            base_params=Parameters.from_mapping(grid["params"]),
            m_values=tuple(grid["m_values"]),
            phi_values=tuple(grid["phi_values"]),
            work_target=grid["work_target"],
            replicas=grid.get("replicas", 5),
            seed=grid.get("seed", 777),
            share_traces=bool(grid.get("share_traces", False)),
            max_time=grid.get("max_time"),
            distribution=None if dist is None else distribution_from_dict(dist),
        )
        policy = ExecutionPolicy.from_dict(data.get("policy", {}))
        return cls(grid=config, policy=policy)

    def to_json(self) -> str:
        """The spec as pretty-printed JSON (``campaign --dump-spec``)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str | pathlib.Path) -> None:
        """Write the spec as a JSON file loadable by :meth:`load`."""
        pathlib.Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "CampaignSpec":
        """Read a spec JSON file (``campaign --spec FILE``)."""
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ParameterError(f"{path}: cannot read spec file ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: invalid spec JSON ({exc})") from exc
        try:
            return cls.from_dict(data)
        except ParameterError as exc:
            raise ParameterError(f"{path}: {exc}") from exc


class Campaign:
    """The façade: runs, resumes, reports, merges — and opens sessions.

    :meth:`run`/:meth:`resume` execute to completion; :meth:`session`
    opens the same execution as a
    :class:`~repro.sim.executor.CampaignSession` event stream (iterate,
    poll progress, subscribe consumers) for callers that want to watch
    the campaign instead of waiting for it.

    Construct from a :class:`CampaignSpec` or a preset name
    (``Campaign("smoke")`` resolves through
    :data:`repro.experiments.scenarios.CAMPAIGN_PRESETS`).  The façade is
    stateless between calls except for remembering the last execution
    (:attr:`execution`) and results path, which :meth:`report` uses when
    called with no argument.
    """

    def __init__(self, spec: "CampaignSpec | str"):
        if isinstance(spec, str):
            from ..experiments.scenarios import get_campaign_preset

            spec = get_campaign_preset(spec).spec()
        if not isinstance(spec, CampaignSpec):
            raise ParameterError(
                f"Campaign takes a CampaignSpec or a preset name, "
                f"got {type(spec).__name__}"
            )
        self.spec = spec
        #: The last :class:`~repro.sim.executor.CampaignExecution`.
        self.execution = None
        self._results_path: pathlib.Path | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        results_path: str | pathlib.Path | None = None,
        *,
        on_cell: Callable[[CampaignCell], None] | None = None,
        store=None,
    ):
        """Execute the campaign (truncating ``results_path`` if given).

        ``store`` — a :class:`~repro.store.CampaignStore` or store
        directory — overrides ``policy.store`` for this execution, like
        the results path a per-execution argument: cells already
        warehoused are served instead of simulated, fresh cells are
        published after their sink append.
        """
        return self._execute(results_path, resume=False, on_cell=on_cell,
                             store=store)

    def resume(
        self,
        results_path: str | pathlib.Path,
        *,
        on_cell: Callable[[CampaignCell], None] | None = None,
        store=None,
    ):
        """Finish an interrupted campaign without re-running done cells."""
        return self._execute(results_path, resume=True, on_cell=on_cell,
                             store=store)

    def session(
        self,
        results_path: str | pathlib.Path | None = None,
        *,
        resume: bool = False,
        on_cell: Callable[[CampaignCell], None] | None = None,
        store=None,
        consumers=(),
    ):
        """Open a :class:`~repro.sim.executor.CampaignSession`.

        The event-stream view of this campaign: iterate
        ``session.events()`` to execute it cell by cell, poll
        ``session.progress()`` from any thread, attach extra
        :class:`~repro.sim.events.EventConsumer` subscribers via
        ``consumers=``.  :meth:`run`/:meth:`resume` are this, drained.
        """
        from .executor import CampaignSession

        return CampaignSession(
            self.spec, results_path=results_path, resume=resume,
            on_cell=on_cell, store=store, consumers=consumers,
        )

    def _execute(self, results_path, *, resume, on_cell, store=None):
        session = self.session(
            results_path, resume=resume, on_cell=on_cell, store=store,
        )
        execution = session.run()
        self.execution = execution
        # Track the *last* execution's persistence — including clearing
        # it, so report() after a later unpersisted run renders that
        # run's in-memory cells instead of a stale file.
        self._results_path = (
            None if results_path is None else pathlib.Path(results_path)
        )
        return execution

    # ------------------------------------------------------------------
    @property
    def cells(self) -> tuple[CampaignCell, ...]:
        """The last execution's cells (raises before any run)."""
        if self.execution is None:
            raise ParameterError(
                "no execution yet: call Campaign.run()/resume() first"
            )
        return self.execution.cells

    def report(self, results_path: str | pathlib.Path | None = None) -> str:
        """Render the campaign's results, with zero re-simulation.

        With a path (or after a persisted run) this streams the results
        file through :func:`repro.experiments.report.campaign_report`;
        after an unpersisted run it renders the in-memory cells.
        """
        path = results_path or self._results_path
        if path is not None:
            from ..experiments.report import campaign_report

            return campaign_report(path)
        from .campaign import cells_table

        return cells_table(self.cells) + self.execution.report.describe() + "\n"

    def merge(
        self,
        out_path: str | pathlib.Path,
        *,
        partial: bool = False,
    ):
        """Merge a queue campaign's worker shards into one results file."""
        if self.spec.policy.queue is None:
            raise ParameterError(
                "merge needs a queue campaign: this spec's policy has no "
                "queue directory"
            )
        from .distributed import merge_shards

        return merge_shards(
            self.spec.policy.queue, out_path, require_complete=not partial
        )
