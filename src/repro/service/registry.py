"""The service's campaign table: handles, worker pool, event logs.

One :class:`CampaignHandle` per submitted spec *identity* — submitting
a spec twice returns the same handle (submission is idempotent, like
the store's publish), and a handle whose run failed or was cancelled is
re-opened with ``resume=True`` on the same results file, finishing only
the remaining cells.  Each handle executes at most once at a time, on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor`; its
:class:`~repro.sim.executor.CampaignSession` publishes every event into
the handle's replayable wire-dict log via an extra bus consumer, so any
number of HTTP streamers follow one campaign without touching the
execution loop (the log is the buffering the synchronous bus contract
tells slow consumers to bring).

Lifecycle of a handle: ``queued`` → ``running`` → ``finished`` /
``failed`` / ``cancelled`` — exactly the session states plus
``queued``, and terminal states are re-openable by a fresh submit of
the same spec.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import CampaignCancelled, ParameterError
from ..sim.events import EventConsumer, event_to_dict
from ..sim.spec import CampaignSpec

__all__ = ["CampaignHandle", "CampaignRegistry"]

#: Handle states (the session's lifecycle plus ``queued``).
HANDLE_STATES = (
    "queued", "running", "finished", "failed", "cancelled",
)
_TERMINAL = ("finished", "failed", "cancelled")


def campaign_id(spec: CampaignSpec) -> str:
    """The service's name for a spec: its identity fingerprint, hashed.

    Volatile policy fields (workers, chunking, store wiring) do not
    change the id — two submissions that produce byte-identical results
    are one campaign, however they are parallelised.
    """
    canonical = json.dumps(spec.fingerprint(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class _LogConsumer(EventConsumer):
    """Bus consumer that appends each event's wire dict to the handle's
    log — O(encode) per event, so the producing loop never waits on a
    network peer."""

    def __init__(self, handle: "CampaignHandle"):
        self.handle = handle

    def on_event(self, event) -> None:
        self.handle._append(event_to_dict(event))


class CampaignHandle:
    """One submitted campaign: its state, session, and replayable log.

    All mutation happens under one condition variable; readers
    (:meth:`snapshot`, :meth:`events`, :meth:`wait`) are safe from any
    thread while the worker executes.
    """

    def __init__(self, id_: str, spec: CampaignSpec,
                 results_path: pathlib.Path):
        self.id = id_
        self.spec = spec
        self.results_path = results_path
        self.state = "queued"
        self.error: BaseException | None = None
        self.session = None
        #: How many times this handle has been (re-)submitted.
        self.runs = 0
        self._cond = threading.Condition()
        self._log: list[dict] = []
        self._log_done = False
        self._cancel_requested = False

    # -- mutation (worker / registry side) -----------------------------
    def _append(self, wire_dict: dict) -> None:
        with self._cond:
            self._log.append(wire_dict)
            self._cond.notify_all()

    def _set_state(self, state: str,
                   error: BaseException | None = None) -> None:
        with self._cond:
            self.state = state
            self.error = error
            if state in _TERMINAL:
                self._log_done = True
            self._cond.notify_all()

    def _reopen(self) -> None:
        """Back to ``queued`` for a resume run; the log starts over
        (the new stream replays each recovered cell as one ``resume``
        CellFinished, so a fresh follower still reaches the campaign's
        full state)."""
        with self._cond:
            self.state = "queued"
            self.error = None
            self.session = None
            self._log = []
            self._log_done = False
            self._cancel_requested = False
            self._cond.notify_all()

    # -- queries (HTTP side) -------------------------------------------
    def cancel(self) -> None:
        """Request cancellation: queued handles never start; running
        sessions stop at the next cell boundary."""
        with self._cond:
            self._cancel_requested = True
            session = self.session
        if session is not None:
            session.cancel()

    def snapshot(self) -> dict:
        """A JSON-safe status view (state, progress, counters)."""
        with self._cond:
            state = self.state
            error = self.error
            session = self.session
            events_logged = len(self._log)
        progress = None
        if session is not None:
            p = session.progress()
            progress = {
                "cells_total": p.cells_total,
                "cells_resumed": p.cells_resumed,
                "cells_cached": p.cells_cached,
                "cells_run": p.cells_run,
                "replicas_run": p.replicas_run,
                "elapsed": p.elapsed,
            }
        return {
            "id": self.id,
            "state": state,
            "runs": self.runs,
            "events": events_logged,
            "results_path": str(self.results_path),
            "progress": progress,
            "error": None if error is None else str(error),
        }

    def wait(self, timeout: float | None = None) -> str:
        """Block until the handle is terminal (or ``timeout``); returns
        the state either way."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.state not in _TERMINAL:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                # Every state change notifies, so an untimed wait is
                # honest — no poll loop, wakeup is immediate.
                self._cond.wait(remaining)
            return self.state

    def events(self, *, follow: bool = True):
        """Iterate the wire-dict event log from the beginning.

        ``follow=True`` keeps yielding as the campaign produces more,
        ending when the stream is terminal — a late subscriber replays
        to the campaign's exact current state first (the log *is* the
        stream, so the consistent-observer property carries over to
        HTTP streamers for free).  ``follow=False`` returns what has
        been logged so far without blocking.
        """
        position = 0
        while True:
            with self._cond:
                while follow and position >= len(self._log) \
                        and not self._log_done:
                    # _append/_set_state notify on every change, so
                    # followers wake the moment an event lands rather
                    # than on a poll interval.
                    self._cond.wait()
                chunk = self._log[position:]
                position += len(chunk)
                finished = self._log_done and position >= len(self._log)
            yield from chunk
            if not follow or finished:
                return


class CampaignRegistry:
    """Campaign handles keyed by spec identity, run on a worker pool.

    ``backend_factory`` (spec → :class:`~repro.sim.backends
    .CampaignBackend` or ``None``) lets tests inject counting backends;
    the default builds each session's backend from its policy.
    """

    def __init__(
        self,
        store,
        data_dir: str | pathlib.Path,
        *,
        workers: int = 2,
        backend_factory=None,
    ):
        if workers < 1:
            raise ParameterError(
                f"the service worker pool needs >= 1 worker, "
                f"got {workers!r}"
            )
        self.store = store
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._backend_factory = backend_factory
        self._lock = threading.Lock()
        self._handles: dict[str, CampaignHandle] = {}
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="campaign-worker",
        )

    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> tuple[CampaignHandle, bool]:
        """Register (or re-open) the campaign for ``spec``.

        Returns ``(handle, created)``: idempotent for queued, running
        and finished campaigns; a failed or cancelled one is re-queued
        with ``resume=True`` so only its remaining cells execute.
        """
        if spec.policy.queue is not None:
            raise ParameterError(
                "the campaign service runs submissions on its own "
                "worker pool; a distributed queue campaign is driven by "
                "its queue workers, not by a service (drop policy.queue "
                "from the submitted spec)"
            )
        id_ = campaign_id(spec)
        with self._lock:
            if self._closed:
                raise ParameterError(
                    "the service is shutting down and no longer accepts "
                    "campaign submissions"
                )
            handle = self._handles.get(id_)
            if handle is not None:
                if handle.state not in ("failed", "cancelled"):
                    return handle, False
                resume = True
                handle._reopen()
            else:
                resume = False
                results_path = (
                    self.data_dir / "campaigns" / id_ / "results.jsonl"
                )
                handle = CampaignHandle(id_, spec, results_path)
                self._handles[id_] = handle
            handle.runs += 1
            self._pool.submit(self._run, handle, resume)
            return handle, not resume and handle.runs == 1

    def get(self, id_: str) -> CampaignHandle:
        with self._lock:
            handle = self._handles.get(id_)
        if handle is None:
            raise ParameterError(
                f"unknown campaign id {id_!r}; GET /campaigns lists the "
                "known ones"
            )
        return handle

    def list(self) -> list[dict]:
        with self._lock:
            handles = list(self._handles.values())
        return [handle.snapshot() for handle in handles]

    # ------------------------------------------------------------------
    def _run(self, handle: CampaignHandle, resume: bool) -> None:
        with handle._cond:
            if handle._cancel_requested:
                handle.state = "cancelled"
                handle._log_done = True
                handle._cond.notify_all()
                return
            handle.state = "running"
            handle._cond.notify_all()
        try:
            from ..sim.executor import CampaignSession

            backend = None if self._backend_factory is None \
                else self._backend_factory(handle.spec)
            # A resumed handle recovers its own previous results file;
            # the shared store instance is passed directly so every
            # session (and every report query) warms one cache.
            session = CampaignSession(
                handle.spec, results_path=handle.results_path,
                resume=resume, store=self.store, backend=backend,
                consumers=(_LogConsumer(handle),),
            )
            with handle._cond:
                handle.session = session
                cancel_now = handle._cancel_requested
            if cancel_now:
                session.cancel()
            session.run()
            handle._set_state("finished")
        except CampaignCancelled as exc:
            handle._set_state("cancelled", exc)
        except BaseException as exc:  # noqa: BLE001 - worker must not die
            handle._set_state("failed", exc)

    # ------------------------------------------------------------------
    def shutdown(self, *, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting, then drain (or cancel) the in-flight work.

        ``drain=True`` lets queued and running campaigns finish;
        ``drain=False`` cancels them at the next cell boundary — either
        way no sink is ever torn mid-cell, and a cancelled campaign's
        results file resumes cleanly on the next submit.  ``timeout``
        bounds the drain: campaigns still running at the deadline are
        cancelled (cell-aligned) before the pool is joined.
        """
        with self._lock:
            self._closed = True
            handles = list(self._handles.values())
        if not drain:
            for handle in handles:
                handle.cancel()
        elif timeout is not None:
            deadline = time.monotonic() + timeout
            for handle in handles:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or \
                        handle.wait(max(remaining, 0.0)) not in _TERMINAL:
                    handle.cancel()
        self._pool.shutdown(wait=True)
