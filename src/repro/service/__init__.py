"""Campaign service: an always-on HTTP query/submit daemon over the store.

Everything else in this repository is a one-shot process; this package
is the long-running front end the ROADMAP's north star asks for, with
the :class:`~repro.store.CampaignStore` as its database and cache.  It
is deliberately stdlib-only — a threaded :mod:`http.server` daemon, no
web framework — and deliberately thin: the campaign engine already
exposes exactly the service-shaped seams
(:class:`~repro.sim.executor.CampaignSession` = submit/stream/poll, the
event wire format of :mod:`repro.sim.events` = the NDJSON schema,
:func:`repro.store.store.cells_from_store` = the zero-simulation query
path), so the service only binds them to HTTP.

Layers:

* :mod:`repro.service.wire` — request/response plumbing: JSON bodies
  and responses, the ``spec=`` query-parameter gate (everything enters
  through :meth:`~repro.sim.spec.CampaignSpec.from_dict`), NDJSON
  framing of the shared event wire format.
* :mod:`repro.service.coalesce` — single-flight request coalescing:
  identical concurrent cold report queries run **one** campaign;
  waiters that time out never cancel the leader's work (the result is
  still warehoused for the next query).
* :mod:`repro.service.registry` — the campaign table: one
  :class:`~repro.service.registry.CampaignHandle` per submitted spec
  identity, executed on a bounded worker pool, each publishing its
  event stream into a replayable in-memory log that any number of
  HTTP streamers can follow.
* :mod:`repro.service.app` — :class:`~repro.service.app.CampaignService`,
  the HTTP daemon itself (endpoints, graceful drain) behind
  ``repro-checkpoint serve``.

Concurrency model: many reader threads (report queries, progress polls,
event streamers) plus a small writer pool (campaign sessions) share one
store *instance* — safe because store reads are lock-free on disk
(atomic-rename publish means a reader never sees a torn entry), the
hot-cell cache takes a lock only around its map, and the event logs use
one condition variable each.  The store's
``repro_store_readers_peak_concurrent`` gauge (``GET /metrics``)
exists to *prove* the concurrency under load rather than assume it.

Observability: every request is metered into the process-wide
:func:`repro.obs.default_registry` (per-route latency histograms and
status-code counters, plus whatever the store/executor/coalescer
recorded) and served back as Prometheus text exposition at
``GET /metrics``; with a tracer installed each request is a span.
"""

from .app import CampaignService
from .coalesce import Coalescer, CoalesceStats, CoalesceTimeout
from .registry import CampaignHandle, CampaignRegistry

__all__ = [
    "CampaignService",
    "CampaignHandle",
    "CampaignRegistry",
    "Coalescer",
    "CoalesceStats",
    "CoalesceTimeout",
]
