"""Multi-machine campaigns: a work-stealing backend over a shared queue.

The single-machine backends (:mod:`repro.sim.backends`) already yield
chunks in arbitrary completion order, every replica seed derives from the
campaign seed and the cell's grid coordinates alone, and the framed sink
accepts any cell order — so scaling a campaign across machines needs only
(a) a shared *chunk queue* deciding who runs what, and (b) a way to merge
per-worker outputs.  This module provides both on top of nothing but a
shared directory (NFS, a bind-mounted volume, or plain ``/tmp`` for
multi-process runs on one box).  To the event pipeline
(:mod:`repro.sim.events`) a distributed worker is just another producer:
every cell it claims — simulated or served from its store — is emitted
as a ``backend`` cell, and the store hits it resolved inside claimed
chunks are reconciled into the progress counters after the loop:

``queue-dir/``
    ``manifest.json``
        The campaign's spec fingerprint
        (:meth:`repro.sim.spec.CampaignSpec.fingerprint` — identical to
        the results-file sidecar manifest) plus the chunk layout.  Every
        joining worker recomputes the fingerprint from its own spec and
        refuses to work a queue that disagrees — the multi-machine
        analogue of the resume drift check, expressed as spec inequality.
    ``pending/chunk-NNNNN.json``
        One ticket per unclaimed chunk.  Claiming is a single
        ``os.rename`` into ``claims/`` — atomic on POSIX, so exactly one
        worker wins a ticket.
    ``claims/chunk-NNNNN.gG.WORKER.json``
        The current claim on a chunk: generation ``G`` and owner in the
        file name, lease clock in the file mtime (the owner refreshes it
        after every replica, so ``lease_timeout`` only needs to exceed
        one replica's runtime plus clock slack, never a whole cell's).  A claim whose lease has expired with no done
        marker is *stolen* by renaming it to generation ``G+1`` under the
        thief's name — again one atomic rename, so a dead worker's chunk
        is re-claimed exactly once rather than lost or duplicated.
    ``done/chunk-NNNNN.json``
        Written (atomically, via temp-file + rename) only *after* the
        chunk's frames are durably appended to the worker's shard.  The
        queue is complete when every chunk has a done marker.
    ``shards/WORKER.jsonl``
        Each worker's framed results (:class:`repro.sim.sinks.WorkerShardSink`).
        Workers never write to a shared results file, so there is no
        cross-machine append coordination at all; :func:`merge_shards`
        combines the shards afterwards.

Crash safety is leases + determinism, not consensus: if a worker dies
mid-chunk its claim expires and another worker re-runs the chunk from
scratch.  Because every replica is a pure function of the campaign seed
and grid coordinates, a re-run (or a steal racing the original worker's
slow finish) produces *byte-identical* results, so :func:`merge_shards`
can simply deduplicate cells across shards — after verifying the
duplicates really are identical, which doubles as an end-to-end
integrity check.  The rare benign races (two initialisers recreating a
ticket, a stolen chunk finishing twice) therefore cost duplicate work,
never wrong output.

Clock caveat: lease expiry reads *now* from the queue directory's own
filesystem clock (:func:`repro.fsclock.filesystem_now` touch-and-stats
a probe file in ``claims/``), so claim mtimes and the expiry clock are
stamped by the same authority — the fileserver on NFS — and
cross-machine wall-clock skew cancels instead of stealing live leases.
Ages are clamped at zero, so a backwards clock jump can never make a
fresh claim look ancient; ``lease_timeout`` only needs to exceed one
replica's runtime plus NFS attribute-cache lag.

The merged file is an ordinary framed campaign results file — cells in
grid order, contiguous sequence numbers, the campaign manifest at its
side — indistinguishable from a single-machine ``sink="framed"`` run, so
``Campaign(spec).resume(path)`` and ``repro-checkpoint report`` work on
it unchanged.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import re
import socket
import time
import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ParameterError
from ..fsclock import clamped_age, filesystem_now
from ..obs import Counter, default_registry
from ..obs.trace import current_tracer
from .adaptive import ReplicaController, stop_count
from .backends import (
    CampaignBackend,
    _execute_chunk,
    _resolve_workers,
    run_cell_for_engine,
)
from .campaign import CampaignConfig
from .results import DesResult
from .vectorized import plan_engine

__all__ = [
    "DistributedBackend",
    "QueueStatus",
    "MergeReport",
    "default_worker_id",
    "ensure_queue",
    "queue_status",
    "merge_shards",
    "shard_path",
]

_QUEUE_FORMAT = "repro-campaign-queue"
#: Version 1 embedded a hand-built fingerprint dict; 2 embeds the
#: campaign's spec fingerprint (``repro.sim.spec``).  Queues are
#: transient coordination state, so version 1 is refused (finish or
#: merge it with the library that created it) rather than translated.
_QUEUE_VERSION = 2
#: Worker ids become file-name components: keep them boring.
_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")
_CLAIM_RE = re.compile(r"^chunk-(\d+)\.g(\d+)\.([A-Za-z0-9_-]+)\.json$")
_TICKET_RE = re.compile(r"^chunk-(\d+)\.json$")


def default_worker_id() -> str:
    """``<hostname>-<pid>-<nonce>``, sanitised to the allowed id alphabet.

    Two live workers must never share an id — a shared id means a shared
    shard file, and concurrent appends corrupt it.  The pid separates
    workers on one host; the random nonce separates workers on *cloned*
    hosts (container replicas routinely share both hostname and pid 1).
    When the 64-char budget is tight it is the hostname that gets
    truncated, never the distinguishing suffix.  Pass an explicit
    ``worker_id`` when a stable identity (shard reuse across restarts)
    matters more than collision-proof defaults.
    """
    import secrets

    host = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname()) or "worker"
    suffix = f"{os.getpid()}-{secrets.token_hex(2)}"
    return f"{host[:64 - len(suffix) - 1]}-{suffix}"


def _check_worker_id(worker_id: str) -> str:
    if not _WORKER_ID_RE.match(worker_id):
        raise ParameterError(
            f"worker id {worker_id!r} must match [A-Za-z0-9_-]{{1,64}} "
            "(it becomes part of claim and shard file names)"
        )
    return worker_id


def _pending(queue: pathlib.Path) -> pathlib.Path:
    return queue / "pending"


def _claims(queue: pathlib.Path) -> pathlib.Path:
    return queue / "claims"


def _done(queue: pathlib.Path) -> pathlib.Path:
    return queue / "done"


def _shards(queue: pathlib.Path) -> pathlib.Path:
    return queue / "shards"


def _manifest_file(queue: pathlib.Path) -> pathlib.Path:
    return queue / "manifest.json"


def shard_path(queue: str | pathlib.Path, worker_id: str) -> pathlib.Path:
    """The framed shard file worker ``worker_id`` appends to."""
    return _shards(pathlib.Path(queue)) / f"{_check_worker_id(worker_id)}.jsonl"


def _ticket_name(chunk: int) -> str:
    return f"chunk-{chunk:05d}.json"


def _done_path(queue: pathlib.Path, chunk: int) -> pathlib.Path:
    return _done(queue) / _ticket_name(chunk)


def _atomic_write(path: pathlib.Path, text: str) -> None:
    """Write-then-rename so readers never see a torn file."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _manifests_agree(stored: dict, manifest: dict) -> bool:
    """Does a stored queue manifest describe this campaign?

    The chunk-layout fields must match exactly; the embedded campaign
    fingerprints are compared as *specs* (parse both, compare
    identities), not as raw dicts — so a joiner whose library writes
    additional defaulted (volatile) policy fields still recognises a
    queue created before those fields existed.
    """
    if not isinstance(stored, dict):
        return False
    for field in ("format", "version", "n_chunks", "chunk_size", "n_cells"):
        if stored.get(field) != manifest.get(field):
            return False
    if stored.get("campaign") == manifest.get("campaign"):
        return True
    from .spec import CampaignSpec

    try:
        return (
            CampaignSpec.from_dict(stored.get("campaign")).identity()
            == CampaignSpec.from_dict(manifest.get("campaign")).identity()
        )
    except ParameterError:
        return False


# ----------------------------------------------------------------------
# Queue lifecycle
# ----------------------------------------------------------------------
def ensure_queue(
    queue: pathlib.Path,
    campaign_fingerprint: dict,
    *,
    n_chunks: int,
    chunk_size: int,
    n_cells: int,
) -> dict:
    """Initialise the queue directory, or verify it matches this campaign.

    Idempotent and safe to race: every structure is created with
    create-if-absent semantics and identical deterministic content, so
    concurrent first workers converge on the same queue.  (The one
    observable race — a ticket recreated for a chunk another worker
    already claimed during the initialisation window — costs a duplicate
    deterministic execution that :func:`merge_shards` deduplicates.)

    A queue whose stored manifest disagrees with the caller's
    configuration is refused, exactly like resuming a results file under
    drifted settings.
    """
    manifest = {
        "format": _QUEUE_FORMAT,
        "version": _QUEUE_VERSION,
        "campaign": campaign_fingerprint,
        "n_chunks": int(n_chunks),
        "chunk_size": int(chunk_size),
        "n_cells": int(n_cells),
    }
    for sub in (_pending(queue), _claims(queue), _done(queue), _shards(queue)):
        sub.mkdir(parents=True, exist_ok=True)

    path = _manifest_file(queue)
    if path.exists():
        try:
            stored = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(
                f"{path}: unreadable queue manifest ({exc}); this is not "
                "a campaign queue directory"
            ) from exc
        if not _manifests_agree(stored, manifest):
            drift = sorted(
                k for k in manifest
                if not isinstance(stored, dict) or stored.get(k) != manifest[k]
            )
            raise ParameterError(
                f"{path}: queue was created for a different campaign "
                f"(differs in: {', '.join(drift)}); every worker must "
                "join with the same configuration and chunk size"
            )
        return manifest

    # Tickets first, manifest last: a worker only starts claiming once
    # ensure_queue returns, which requires the manifest to exist.
    for chunk in range(n_chunks):
        ticket = _pending(queue) / _ticket_name(chunk)
        if ticket.exists() or _done_path(queue, chunk).exists():
            continue
        _atomic_write(ticket, json.dumps(
            {"format": _QUEUE_FORMAT, "chunk": chunk}
        ) + "\n")
    _atomic_write(path, json.dumps(manifest, sort_keys=True) + "\n")
    # Two workers racing a fresh directory with *different* configs both
    # reach this write; the last os.replace wins.  Re-reading closes the
    # race: whoever's manifest lost detects the foreign content and
    # fails fast instead of silently running a different campaign into
    # the shared queue.
    stored = json.loads(path.read_text())
    if not _manifests_agree(stored, manifest):
        raise ParameterError(
            f"{path}: another worker initialised this queue for a "
            "different campaign at the same moment; re-check the "
            "configurations and use a fresh directory"
        )
    return manifest


def read_queue_manifest(queue: str | pathlib.Path) -> dict:
    """The queue's stored manifest; raises if absent or unreadable."""
    path = _manifest_file(pathlib.Path(queue))
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParameterError(
            f"{path}: no queue manifest found; was this directory "
            "initialised by a campaign worker (repro-checkpoint campaign "
            "--queue)?"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{path}: unreadable queue manifest ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _QUEUE_FORMAT:
        raise ParameterError(f"{path}: not a campaign queue manifest")
    if manifest.get("version") != _QUEUE_VERSION:
        raise ParameterError(
            f"{path}: unsupported queue version {manifest.get('version')!r} "
            f"(this library speaks version {_QUEUE_VERSION}; a version-1 "
            "queue was written by an older library — finish or merge it "
            "there, or start a fresh queue directory)"
        )
    return manifest


@dataclass(frozen=True)
class QueueStatus:
    """Point-in-time chunk accounting of a queue directory."""

    n_chunks: int
    pending: int
    claimed: int
    done: int

    @property
    def complete(self) -> bool:
        return self.done >= self.n_chunks

    def describe(self) -> str:
        return (f"{self.done}/{self.n_chunks} chunks done "
                f"({self.pending} pending, {self.claimed} claimed)")


def queue_status(queue: str | pathlib.Path) -> QueueStatus:
    """Count pending/claimed/done chunks (claimed = not yet done)."""
    queue = pathlib.Path(queue)
    manifest = read_queue_manifest(queue)
    done = {
        int(m.group(1)) for name in _list_dir(_done(queue))
        if (m := _TICKET_RE.match(name))
    }
    pending = sum(
        1 for name in _list_dir(_pending(queue))
        if (m := _TICKET_RE.match(name)) and int(m.group(1)) not in done
    )
    claimed = {
        int(m.group(1)) for name in _list_dir(_claims(queue))
        if (m := _CLAIM_RE.match(name))
    }
    return QueueStatus(
        n_chunks=int(manifest["n_chunks"]),
        pending=pending,
        claimed=len(claimed - done),
        done=len(done),
    )


def _list_dir(path: pathlib.Path) -> list[str]:
    try:
        return sorted(os.listdir(path))
    except FileNotFoundError:
        return []


# ----------------------------------------------------------------------
# The work-stealing backend
# ----------------------------------------------------------------------
class DistributedBackend(CampaignBackend):
    """Claims chunks from a shared queue directory, one worker at a time.

    Each process (on any machine sharing the queue directory) constructs
    its own backend and calls :meth:`execute` with the *same* chunk plan
    — identical by construction, since chunks are a pure function of the
    campaign configuration and chunk size, which the queue manifest pins.
    The backend then loops: claim a pending ticket (atomic rename), run
    its cells in-process, yield the results (the executor appends them to
    this worker's shard while the generator is suspended), and mark the
    chunk done on resume — so a done marker always post-dates the shard
    append it certifies.  When no pending tickets remain it looks for
    expired claims to steal, and returns once every chunk is done.

    By default a worker runs its claimed cells in-process — horizontal
    scale comes from starting more workers, each claiming whole chunks.
    ``processes=N`` (the :class:`~repro.sim.spec.ExecutionPolicy`'s
    ``worker_processes``) additionally fans each claimed chunk's cells
    across a per-machine process pool, so one worker per machine can
    still use every core; the claim/lease/steal protocol is unchanged
    (the lease is refreshed from the coordinating process while pool
    cells complete).

    With a ``store`` (:class:`~repro.store.CampaignStore`), the worker
    consults the warehouse per claimed cell before simulating it —
    chunk *claiming* stays untouched (the queue layout must remain a
    pure function of the spec), only the simulation inside a claim is
    skipped.  Served cells still land in the worker's shard, so the
    merge sees a complete campaign.  Store reads share the process-wide
    hot-cell cache (:mod:`repro.store.cache`) with every other store
    consumer in this process, so a worker re-claiming overlapping cells
    (steal races, resumed queues) re-verifies at digest level instead of
    re-reading disk; workers on other machines each warm their own.
    """

    def __init__(
        self,
        queue: str | pathlib.Path,
        worker_id: str | None = None,
        *,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.5,
        processes: int | None = 1,
        store=None,
        engine: str = "des",
    ):
        if lease_timeout <= 0:
            raise ParameterError(
                f"lease_timeout must be > 0, got {lease_timeout!r}"
            )
        if poll_interval <= 0:
            raise ParameterError(
                f"poll_interval must be > 0, got {poll_interval!r}"
            )
        self.queue = pathlib.Path(queue)
        self.worker_id = _check_worker_id(
            default_worker_id() if worker_id is None else worker_id
        )
        self.lease_timeout = float(lease_timeout)
        self.poll_interval = float(poll_interval)
        #: In-worker pool size (1 = run claimed cells in-process).
        self.workers = _resolve_workers(processes)
        self._store = store
        #: Simulation engine ("des" or "vectorized") for claimed cells;
        #: the per-cell engine is decided inside the chunk runner exactly
        #: as in the single-machine backends, so a distributed campaign
        #: produces the same bytes as a serial one with the same policy.
        self.engine = engine
        #: Cells/replicas served from the store instead of simulated
        #: (the executor folds these into its report counters).
        self.cells_from_store = 0
        self.replicas_from_store = 0
        #: Per-worker queue-protocol counters (repro_queue_*): claims
        #: won, leases stolen from presumed-dead workers, lease-clock
        #: refreshes, chunks certified done, and straggler chunks —
        #: work this worker completed that another worker had already
        #: certified (a steal race's duplicated effort, the queue's
        #: analogue of the paper's wasted re-execution time).
        registry = default_registry()
        labels = {"worker": self.worker_id}
        self._m_claims = registry.register(Counter(
            "repro_queue_claims_total",
            help="Pending tickets claimed.", labels=labels))
        self._m_steals = registry.register(Counter(
            "repro_queue_steals_total",
            help="Expired leases stolen.", labels=labels))
        self._m_lease_refreshes = registry.register(Counter(
            "repro_queue_lease_refreshes_total",
            help="Lease-clock refreshes.", labels=labels))
        self._m_chunks_done = registry.register(Counter(
            "repro_queue_chunks_done_total",
            help="Chunks certified done.", labels=labels))
        self._m_stragglers = registry.register(Counter(
            "repro_queue_straggler_chunks_total",
            help="Chunks finished after another worker already "
                 "certified them (duplicated work).", labels=labels))

    # -- claim protocol ------------------------------------------------
    def _claim_path(self, chunk: int, generation: int) -> pathlib.Path:
        return _claims(self.queue) / (
            f"chunk-{chunk:05d}.g{generation}.{self.worker_id}.json"
        )

    def _try_claim_pending(self) -> tuple[int, pathlib.Path] | None:
        """Atomically move one pending ticket under this worker's name."""
        tracer = current_tracer()
        if tracer is None:
            return self._claim_pending()
        with tracer.span("queue.claim", "queue",
                         worker=self.worker_id) as span:
            claimed = self._claim_pending()
            if claimed is not None:
                span.args["chunk"] = claimed[0]
            return claimed

    def _claim_pending(self) -> tuple[int, pathlib.Path] | None:
        tickets = [
            (int(m.group(1)), name)
            for name in _list_dir(_pending(self.queue))
            if (m := _TICKET_RE.match(name))
        ]
        # Start at a worker-dependent offset so a fleet hitting a fresh
        # queue doesn't all fight over ticket 0.
        if tickets:
            start = zlib.crc32(self.worker_id.encode()) % len(tickets)
            tickets = tickets[start:] + tickets[:start]
        for chunk, name in tickets:
            ticket = _pending(self.queue) / name
            if _done_path(self.queue, chunk).exists():
                # Stale ticket for a finished chunk (initialisation race):
                # retire it instead of re-running the chunk.
                try:
                    ticket.unlink()
                except OSError:
                    pass
                continue
            claim = self._claim_path(chunk, 0)
            # Freshen the ticket first: its mtime may predate the claim
            # by more than a lease (late-joining fleet), and rename
            # preserves mtimes — without this, the new claim would be
            # steal-eligible for the instant before the refresh below.
            try:
                os.utime(ticket)
            except OSError:
                pass  # racing claimant took it; rename below settles it
            try:
                os.rename(ticket, claim)
            except OSError:
                continue  # someone else won this ticket
            self._refresh_lease(claim)
            self._m_claims.inc()
            return chunk, claim
        return None

    def _try_steal_expired(self) -> tuple[int, pathlib.Path] | None:
        """Re-claim one chunk whose current lease has expired."""
        tracer = current_tracer()
        if tracer is None:
            return self._steal_expired()
        with tracer.span("queue.steal", "queue",
                         worker=self.worker_id) as span:
            stolen = self._steal_expired()
            if stolen is not None:
                span.args["chunk"] = stolen[0]
            return stolen

    def _steal_expired(self) -> tuple[int, pathlib.Path] | None:
        current: dict[int, tuple[int, str]] = {}
        for name in _list_dir(_claims(self.queue)):
            m = _CLAIM_RE.match(name)
            if not m:
                continue
            chunk, generation = int(m.group(1)), int(m.group(2))
            if generation >= current.get(chunk, (-1, ""))[0]:
                current[chunk] = (generation, name)
        # Sample *now* from the claims directory's own filesystem clock —
        # the clock that stamped every claim mtime — so lease expiry is
        # immune to cross-machine skew; clamp so a backwards jump (or a
        # refresh racing this scan) reads as "fresh", never "ancient".
        now = filesystem_now(_claims(self.queue))
        for chunk in sorted(current):
            generation, name = current[chunk]
            if _done_path(self.queue, chunk).exists():
                continue
            stale = _claims(self.queue) / name
            try:
                age = clamped_age(now, stale.stat().st_mtime)
            except OSError:
                continue  # vanished: owner finished or another thief won
            if age < self.lease_timeout:
                continue
            fresh = self._claim_path(chunk, generation + 1)
            try:
                os.rename(stale, fresh)
            except OSError:
                continue  # lost the steal race
            self._refresh_lease(fresh)
            self._m_steals.inc()
            return chunk, fresh
        return None

    def _refresh_lease(self, claim: pathlib.Path) -> None:
        """Restart the lease clock (rename preserves the old mtime)."""
        self._m_lease_refreshes.inc()
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span("queue.lease-refresh", "queue",
                             worker=self.worker_id):
                try:
                    os.utime(claim)
                except OSError:
                    pass  # claim stolen from under us; run stays harmless
            return
        try:
            os.utime(claim)
        except OSError:
            pass  # claim stolen from under us; the run stays harmless

    def _mark_done(self, chunk: int, claim: pathlib.Path, frames: int) -> None:
        if _done_path(self.queue, chunk).exists():
            # Another worker stole the lease and certified this chunk
            # while we were running it: our copy was wasted work.
            self._m_stragglers.inc()
        self._m_chunks_done.inc()
        _atomic_write(_done_path(self.queue, chunk), json.dumps({
            "format": _QUEUE_FORMAT, "chunk": chunk,
            "worker": self.worker_id, "frames": frames,
        }) + "\n")
        try:
            claim.unlink()
        except OSError:
            pass  # a thief holds it now; done marker still wins

    def _all_done(self, n_chunks: int) -> bool:
        done = _list_dir(_done(self.queue))
        return sum(1 for name in done if _TICKET_RE.match(name)) >= n_chunks

    # -- execution -----------------------------------------------------
    def execute(
        self,
        config: CampaignConfig,
        chunks: Sequence[list],
        controller: ReplicaController,
    ) -> Iterator[tuple[int, list[list[DesResult]]]]:
        read_queue_manifest(self.queue)  # fail fast on a foreign directory
        pool: concurrent.futures.ProcessPoolExecutor | None = None
        if self.workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        try:
            while True:
                claimed = self._try_claim_pending() or self._try_steal_expired()
                if claimed is None:
                    if self._all_done(len(chunks)):
                        return
                    time.sleep(self.poll_interval)
                    continue
                claims = [claimed]
                if pool is not None:
                    # Keep the pool full: one chunk may hold fewer cells
                    # than the pool has processes (chunk_size=1 is the
                    # common fine-grained layout), so claim additional
                    # chunks until the held cells cover the pool.
                    while sum(
                        len(chunks[c]) for c, _ in claims if c < len(chunks)
                    ) < self.workers:
                        more = (self._try_claim_pending()
                                or self._try_steal_expired())
                        if more is None:
                            break
                        claims.append(more)
                for chunk, _ in claims:
                    if chunk >= len(chunks):
                        raise ParameterError(
                            f"{self.queue}: ticket names chunk {chunk} but "
                            f"this campaign only plans {len(chunks)}; the "
                            "queue belongs to a different campaign"
                        )

                def heartbeat(claims=tuple(c for _, c in claims)) -> None:
                    # Keep every held lease alive *inside* long cells
                    # too: a slow cell must not look dead to the fleet.
                    for claim in claims:
                        self._refresh_lease(claim)

                per_chunk = self._run_chunks(
                    config, [chunks[c] for c, _ in claims], controller,
                    pool, heartbeat,
                )
                for (chunk, claim), results in zip(claims, per_chunk):
                    yield chunk, results
                    # The executor appended the chunk to this worker's
                    # shard while we were suspended at the yield: the
                    # completion is durable, so certify it.
                    self._mark_done(
                        chunk, claim, sum(len(r) for r in results)
                    )
        finally:
            if pool is not None:
                pool.shutdown()

    def _run_chunks(
        self,
        config: CampaignConfig,
        plan_chunks: Sequence[Sequence],
        controller: ReplicaController,
        pool: concurrent.futures.ProcessPoolExecutor | None,
        heartbeat,
    ) -> list[list[list[DesResult]]]:
        """The claimed chunks' per-cell results, chunk- and plan-ordered.

        Store hits are resolved first (and counted); the remaining cells
        run in-process or concurrently across the worker's pool —
        pooling spans *all* held chunks, which is what lets a
        fine-grained chunk layout still saturate the local cores.
        Either way the lease keeps beating: in-process via
        :func:`run_cell`'s per-replica hook, pooled via the coordinating
        process refreshing while it waits on cell futures.
        """
        slots: dict[tuple[int, int], list[DesResult]] = {}
        remaining: list[tuple[tuple[int, int], object]] = []
        for ci, plans in enumerate(plan_chunks):
            for pos, plan in enumerate(plans):
                hit = None
                if self._store is not None:
                    hit = self._store.load_cell(
                        config, plan, controller,
                        engine=plan_engine(self.engine, config, plan),
                    )
                if hit is not None:
                    slots[(ci, pos)] = hit
                    self.cells_from_store += 1
                    self.replicas_from_store += len(hit)
                    heartbeat()
                else:
                    remaining.append(((ci, pos), plan))
        if pool is not None and remaining:
            futures = {
                pool.submit(
                    _execute_chunk, config, [plan], controller, self.engine
                ): key
                for key, plan in remaining
            }
            pending = set(futures)
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, timeout=self.lease_timeout / 4.0
                )
                heartbeat()  # cells run elsewhere; the lease clock is ours
                for future in done:
                    slots[futures[future]] = future.result()[0]
        else:
            trace_cache: dict = {}
            for key, plan in remaining:
                slots[key] = run_cell_for_engine(
                    self.engine, config, plan, controller, trace_cache,
                    heartbeat=heartbeat,
                )
        return [
            [slots[(ci, pos)] for pos in range(len(plans))]
            for ci, plans in enumerate(plan_chunks)
        ]


# ----------------------------------------------------------------------
# Shard merging
# ----------------------------------------------------------------------
def _controller_from_manifest(campaign_fp: dict) -> ReplicaController:
    """Rebuild the replica controller a queue's campaign ran under.

    The queue manifest embeds the campaign's spec fingerprint, which
    records the controller (or ``None`` for the fixed-count default) —
    everything the merge needs to replay per-cell completeness without
    access to the original :class:`~repro.sim.adaptive.ReplicaController`
    object.  Parsing the whole spec (rather than plucking one key) also
    validates that the queue really was written by a compatible library.
    """
    from .spec import CampaignSpec

    spec = CampaignSpec.from_dict(campaign_fp)
    return spec.controller()


@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_shards` combined."""

    cells: int
    frames: int
    shards: int
    #: Re-executed cells seen in more than one shard (verified identical).
    duplicate_cells: int
    #: Torn/unfinished cell groups dropped from crashed workers' shards.
    incomplete_cells: int

    def describe(self) -> str:
        return (
            f"{self.cells} cells ({self.frames} frames) merged from "
            f"{self.shards} shards; {self.duplicate_cells} duplicated by "
            f"work-stealing, {self.incomplete_cells} torn groups dropped"
        )


def merge_shards(
    queue: str | pathlib.Path,
    out_path: str | pathlib.Path,
    *,
    require_complete: bool = True,
) -> MergeReport:
    """Combine every worker shard into one resumable campaign file.

    Reads each ``shards/*.jsonl`` with the tolerant
    :func:`repro.io.scan_frames` (a crashed worker's torn trailing write
    ends that shard's scan silently), regroups frames by grid cell,
    verifies that cells executed by several workers (steal races,
    re-runs) produced byte-identical results, drops incomplete trailing
    cell groups, and writes the cells in grid order with contiguous
    sequence numbers — plus the campaign manifest sidecar — so the output
    is exactly what a single-machine framed campaign would have written
    and resumes/reports identically.

    With ``require_complete`` (the default) a queue that still has
    unfinished chunks is refused; pass ``require_complete=False`` to
    merge the finished cells of a dead campaign into a partial file that
    ``Campaign(spec).resume(path)`` can then finish on one machine.
    """
    from .. import io as repro_io

    queue = pathlib.Path(queue)
    out_path = pathlib.Path(out_path)
    manifest = read_queue_manifest(queue)

    if require_complete:
        status = queue_status(queue)
        if not status.complete:
            raise ParameterError(
                f"{queue}: queue is incomplete ({status.describe()}); "
                "wait for the workers (or start more), or merge what "
                "exists with require_complete=False / --partial"
            )

    shard_files = [
        _shards(queue) / name for name in _list_dir(_shards(queue))
        if name.endswith(".jsonl")
    ]
    # cell -> replica -> result.  Serialisation (the cross-shard identity
    # witness) happens lazily, only when a cell actually collides —
    # collisions are rare (steal races), so the common path serialises
    # each record once, at output time.
    cells: dict[int, dict[int, DesResult]] = {}
    duplicated_cells: set[int] = set()
    for shard in shard_files:
        shard_cells: dict[int, dict[int, DesResult]] = {}
        for frame, _ in repro_io.scan_frames(shard):
            replicas = shard_cells.setdefault(frame.cell, {})
            known = replicas.get(frame.replica)
            if known is not None:
                # The same (cell, replica) twice in one shard: a worker
                # that restarted and re-claimed the chunk it died
                # holding.  Unlike a cross-shard torn copy, both copies
                # here are whole (the rejoin truncated any torn tail
                # before re-appending), so they must be identical.
                duplicated_cells.add(frame.cell)
                if (repro_io.dump_result(known)
                        != repro_io.dump_result(frame.result)):
                    raise ParameterError(
                        f"{shard}: cell {frame.cell} replica "
                        f"{frame.replica} appears twice in this shard "
                        "with different results — campaign execution is "
                        "deterministic, so the shard is corrupt; "
                        "refusing to merge"
                    )
                continue
            replicas[frame.replica] = frame.result
        for cell, replicas in shard_cells.items():
            if sorted(replicas) != list(range(len(replicas))):
                raise ParameterError(
                    f"{shard}: cell {cell} has replica indices "
                    f"{sorted(replicas)}; shard frames are corrupt"
                )
            known = cells.get(cell)
            if known is None:
                cells[cell] = replicas
                continue
            # The same cell in several shards: a steal race or a re-run.
            # Replicas execute in seed order, so a torn shorter copy must
            # be an exact prefix of the longer one — anything else means
            # the shards came from different configurations.
            duplicated_cells.add(cell)
            shorter, longer = sorted((known, replicas), key=len)
            if any(
                repro_io.dump_result(shorter[r])
                != repro_io.dump_result(longer[r])
                for r in shorter
            ):
                raise ParameterError(
                    f"{shard}: cell {cell} disagrees with another "
                    "shard's copy of the same cell — campaign execution "
                    "is deterministic, so the shards were produced by "
                    "different configurations; refusing to merge"
                )
            cells[cell] = longer

    # Completeness per cell: replay the replica controller (rebuilt from
    # the queue manifest) over each cell's recorded wastes, exactly like
    # the framed sink's resume scan.  A crashed worker's torn trailing
    # write can leave a *prefix* of a cell in its shard; if no other
    # worker holds the full copy, the cell is incomplete and dropped —
    # the merged file then resumes cleanly instead of passing a short
    # cell off as finished.
    controller = _controller_from_manifest(manifest["campaign"])
    n_cells = int(manifest["n_cells"])
    incomplete = 0
    merged: dict[int, list[DesResult]] = {}
    for cell in sorted(cells):
        if cell >= n_cells:
            raise ParameterError(
                f"{queue}: shards hold cell {cell} but the campaign only "
                f"has {n_cells} cells; queue and shards disagree"
            )
        replicas = cells[cell]
        ordered = [replicas[r] for r in range(len(replicas))]
        stops_at = stop_count(controller, [res.waste for res in ordered])
        if stops_at is not None and stops_at < len(ordered):
            raise ParameterError(
                f"{queue}: cell {cell} holds {len(ordered)} replicas but "
                f"the replica controller stops it after {stops_at}; the "
                "shards were written under different adaptive settings"
            )
        if stops_at is None:
            incomplete += 1
            continue
        merged[cell] = ordered

    if require_complete and len(merged) < n_cells:
        missing = sorted(set(range(n_cells)) - set(merged))
        raise ParameterError(
            f"{queue}: every chunk is marked done but cells {missing} "
            "are absent or incomplete in the shards — was a shard file "
            "deleted?"
        )

    frames_written = 0
    tmp = out_path.with_name(out_path.name + f".tmp-{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as fh:
        for cell in sorted(merged):
            for replica, res in enumerate(merged[cell]):
                fh.write(repro_io.dump_frame(
                    res, cell=cell, replica=replica, seq=frames_written
                ) + "\n")
                frames_written += 1
    os.replace(tmp, out_path)
    _atomic_write(
        out_path.with_name(out_path.name + ".manifest"),
        json.dumps(manifest["campaign"], sort_keys=True) + "\n",
    )
    return MergeReport(
        cells=len(merged),
        frames=frames_written,
        shards=len(shard_files),
        duplicate_cells=len(duplicated_cells),
        incomplete_cells=incomplete,
    )
