"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

The registry is the single model behind every runtime signal the
reproduction emits — executor cell timings, store hit/miss/verify
latencies, queue claim/steal counters, coalescer outcomes and HTTP
route histograms all land here, and all export the same two ways:

* a versioned snapshot dict (``{"format": "repro-metrics", "version":
  1, "series": [...]}``), JSON-safe via the :mod:`repro.io` float
  sentinels, refused by name on unknown formats/versions/kinds like
  every other wire format in the library;
* Prometheus text exposition (:func:`render_prometheus`), served by
  the campaign service at ``GET /metrics``.

Three design points keep the instrumentation cheap enough to stay on
by default (gated ≤3% in ``benchmarks/bench_campaign_parallel.py``):

* instruments are plain objects with one lock and O(1) updates —
  components hold direct references and never pay a registry lookup on
  the hot path;
* per-instance counters (a store's lookup and reader gauges, a
  cache's :class:`~repro.store.cache.CacheStats`) *are* instruments;
  the registry only aggregates them at snapshot time, so a
  per-instance view stays exact while the process-wide view sums over
  live instances;
* disabling observability (``REPRO_OBS=off`` or
  :func:`repro.obs.set_enabled`) empties the *export* side only —
  registration and snapshots become no-ops, but instruments owned by
  components keep counting, because ``cache_stats()`` is an API the
  service's ``/healthz`` and benchmarks read, not just telemetry.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from typing import Any, Iterable, Mapping

from ..errors import ParameterError


def _float_codec():
    """The :mod:`repro.io` sentinel codec, imported lazily —
    ``repro.io`` itself imports the sim package, which imports the
    executor, which imports :mod:`repro.obs`; a module-level import
    here would close that cycle."""
    from ..io import decode_floats, encode_floats

    return encode_floats, decode_floats

__all__ = [
    "METRICS_WIRE_FORMAT",
    "METRICS_WIRE_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "snapshot_from_dict",
    "render_prometheus",
]

METRICS_WIRE_FORMAT = "repro-metrics"
METRICS_WIRE_VERSION = 1
_READ_VERSIONS = frozenset({1})

#: Latency buckets (seconds) shared by every ``*_seconds`` histogram:
#: 100µs to 10s, roughly ×2.5 per step — wide enough for a cached store
#: hit and a multi-second campaign cell on the same axis.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fields every wire series carries, plus the per-kind value fields.
_SERIES_FIELDS = frozenset({"name", "kind", "help", "unit", "labels"})
_KIND_FIELDS = {
    "counter": frozenset({"value"}),
    "gauge": frozenset({"value", "aggregate"}),
    "histogram": frozenset({"le", "counts", "sum", "count"}),
}


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ParameterError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not _LABEL_RE.match(key):
            raise ParameterError(f"invalid metric label name {key!r}")
        if not isinstance(value, str):
            raise ParameterError(
                f"metric label {key!r} value must be a string, "
                f"got {value!r}"
            )
        items.append((key, value))
    return tuple(items)


class _Instrument:
    """Shared identity/bookkeeping of one metric series instance."""

    kind = ""

    def __init__(self, name: str, *, help: str = "", unit: str = "",
                 labels: Mapping[str, str] | None = None, lock=None):
        self.name = _check_name(name)
        self.help = str(help)
        self.unit = str(unit)
        self.labels = _check_labels(labels)
        #: Guards the value; instruments updated together may share one
        #: (``lock=``) and be updated in one section (``*_held``).
        self._lock = threading.Lock() if lock is None else lock

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        """Series identity: same (name, labels) aggregate together."""
        return (self.name, self.labels)

    def _series_head(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "unit": self.unit,
            "labels": dict(self.labels),
        }


class Counter(_Instrument):
    """A monotone sum.  Name by convention ends in ``_total``."""

    kind = "counter"

    def __init__(self, name, **kwargs):
        super().__init__(name, **kwargs)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.inc_held(amount)

    def inc_held(self, amount: float = 1.0) -> None:
        """:meth:`inc`, holding the lock."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name} cannot decrease (inc {amount!r})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A settable level.  ``aggregate`` picks how multiple live
    instances of the same series combine at snapshot time: ``"sum"``
    (cache bytes across caches) or ``"max"`` (peak concurrency)."""

    kind = "gauge"

    def __init__(self, name, *, aggregate: str = "sum", **kwargs):
        super().__init__(name, **kwargs)
        if aggregate not in ("sum", "max"):
            raise ParameterError(
                f"gauge aggregate must be 'sum' or 'max', got {aggregate!r}"
            )
        self.aggregate = aggregate
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def add_held(self, amount: float) -> float:
        """Add ``amount`` holding the lock; returns the new level."""
        self._value += amount
        return self._value

    def raise_held(self, value: float) -> None:
        """Raise the level to ``value`` if higher, holding the lock."""
        if value > self._value:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed upper-bound buckets plus an implicit ``+Inf`` overflow.

    ``buckets`` are finite, strictly increasing upper bounds; counts are
    stored per bucket (non-cumulative) and rendered cumulatively for
    Prometheus.  ``observe`` is O(len(buckets)) with one lock.
    """

    kind = "histogram"

    def __init__(self, name, buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                 **kwargs):
        super().__init__(name, **kwargs)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(not math.isfinite(b) for b in bounds) \
                or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {name} buckets must be finite and strictly "
                f"increasing, got {bounds!r}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_held(value)

    def observe_held(self, value: float) -> None:
        """:meth:`observe`, holding the lock."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self._counts[index] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def counts(self) -> tuple[int, ...]:
        """Per-bucket counts; the last entry is the ``+Inf`` overflow."""
        with self._lock:
            return tuple(self._counts)

    def _absorb(self, counts: Iterable[int], total: float, n: int) -> None:
        counts = list(counts)
        if len(counts) != len(self._counts):
            raise ParameterError(
                f"histogram {self.name}: cannot absorb {len(counts)} "
                f"bucket counts into {len(self._counts)} buckets"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total
            self._count += n


def _series_dict(kind: str, key, members: list[_Instrument]) -> dict:
    """Aggregate the live instruments of one series into a wire entry."""
    head = members[0]._series_head()
    head["help"] = next((m.help for m in members if m.help), "")
    head["unit"] = next((m.unit for m in members if m.unit), "")
    if kind == "counter":
        head["value"] = sum(m.value for m in members)
    elif kind == "gauge":
        aggregate = members[0].aggregate
        values = [m.value for m in members]
        head["aggregate"] = aggregate
        head["value"] = max(values) if aggregate == "max" else sum(values)
    else:
        buckets = members[0].buckets
        for m in members[1:]:
            if m.buckets != buckets:
                raise ParameterError(
                    f"histogram {head['name']}: instances disagree on "
                    f"buckets ({m.buckets!r} vs {buckets!r})"
                )
        counts = [0] * (len(buckets) + 1)
        total, n = 0.0, 0
        for m in members:
            with m._lock:
                for i, c in enumerate(m._counts):
                    counts[i] += c
                total += m._sum
                n += m._count
        head["le"] = list(buckets)
        head["counts"] = counts
        head["sum"] = total
        head["count"] = n
    return head


class MetricsRegistry:
    """A thread-safe collection of instruments with one snapshot shape.

    Two ways in:

    * :meth:`counter` / :meth:`gauge` / :meth:`histogram` get-or-create
      a registry-owned shared instrument (same name+labels → same
      object; a kind or bucket mismatch is refused by name);
    * :meth:`register` attaches an instrument a component owns
      (weakly — a garbage-collected store drops out of the snapshot).

    Snapshots aggregate every live instrument per (name, labels) series:
    counters and histograms sum, gauges sum or take the max per their
    ``aggregate`` declaration.
    """

    def __init__(self, *, enabled: bool = True):
        self._lock = threading.Lock()
        self._owned: dict = {}
        self._weak: list = []
        self.enabled = bool(enabled)

    # -- creation ------------------------------------------------------
    def _get_or_create(self, cls, name, labels, kwargs):
        key = (_check_name(name), _check_labels(labels))
        with self._lock:
            existing = self._owned.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if cls is Histogram and "buckets" in kwargs \
                        and tuple(float(b) for b in kwargs["buckets"]) \
                        != existing.buckets:
                    raise ParameterError(
                        f"histogram {name!r} already registered with "
                        f"different buckets"
                    )
                return existing
            if cls is Histogram:
                buckets = kwargs.pop("buckets", DEFAULT_TIME_BUCKETS)
                instrument = cls(name, buckets, labels=dict(key[1]), **kwargs)
            else:
                instrument = cls(name, labels=dict(key[1]), **kwargs)
            self._owned[key] = instrument
            return instrument

    def counter(self, name, *, help="", unit="",
                labels=None) -> Counter:
        return self._get_or_create(Counter, name, labels,
                                   {"help": help, "unit": unit})

    def gauge(self, name, *, help="", unit="", labels=None,
              aggregate="sum") -> Gauge:
        return self._get_or_create(
            Gauge, name, labels,
            {"help": help, "unit": unit, "aggregate": aggregate})

    def histogram(self, name, buckets=DEFAULT_TIME_BUCKETS, *, help="",
                  unit="", labels=None) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels,
            {"buckets": buckets, "help": help, "unit": unit})

    def register(self, instrument: _Instrument) -> _Instrument:
        """Attach a component-owned instrument (weakly held).  A no-op
        when the registry is disabled — the instrument keeps counting
        for its owner, it just never exports."""
        if self.enabled:
            with self._lock:
                self._weak.append(weakref.ref(instrument))
        return instrument

    # -- aggregation ---------------------------------------------------
    def _live(self) -> list:
        with self._lock:
            weak = []
            live = list(self._owned.values())
            for ref in self._weak:
                instrument = ref()
                if instrument is not None:
                    weak.append(ref)
                    live.append(instrument)
            self._weak = weak
        return live

    def snapshot(self) -> dict:
        """The versioned, JSON-safe wire dict of every live series."""
        series: dict = {}
        if self.enabled:
            for instrument in self._live():
                key = (instrument.kind,) + instrument.key
                series.setdefault(key, []).append(instrument)
        entries = [
            _series_dict(kind, key, members)
            for (kind, *key), members in sorted(
                series.items(),
                key=lambda item: (item[0][1], item[0][2], item[0][0]))
        ]
        encode_floats, _ = _float_codec()
        return encode_floats({
            "format": METRICS_WIRE_FORMAT,
            "version": METRICS_WIRE_VERSION,
            "series": entries,
        })

    def absorb(self, snapshot: dict) -> None:
        """Fold a snapshot's totals into this registry's owned
        instruments (get-or-create per series).  Used to roll a
        campaign-private registry up into the process-wide one."""
        if not self.enabled:
            return
        for entry in snapshot_from_dict(snapshot):
            labels = entry["labels"]
            kw = {"help": entry["help"], "unit": entry["unit"]}
            if entry["kind"] == "counter":
                self.counter(entry["name"], labels=labels,
                             **kw).inc(entry["value"])
            elif entry["kind"] == "gauge":
                self.gauge(entry["name"], labels=labels,
                           aggregate=entry["aggregate"],
                           **kw).set(entry["value"])
            else:
                histogram = self.histogram(
                    entry["name"], entry["le"], labels=labels, **kw)
                histogram._absorb(entry["counts"], entry["sum"],
                                  entry["count"])

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def snapshot_from_dict(data: dict) -> list[dict]:
    """Validate a snapshot wire dict and return its decoded series.

    Refuses, by name, anything it does not understand: wrong format
    marker, unread version, unknown series kind, missing or unexpected
    series fields — the same posture as every other decoder in the
    library (better to stop than to mis-aggregate).
    """
    if not isinstance(data, dict) \
            or data.get("format") != METRICS_WIRE_FORMAT:
        raise ParameterError("not a repro-metrics snapshot")
    version = data.get("version")
    if version not in _READ_VERSIONS:
        raise ParameterError(
            f"unsupported metrics version {version!r} "
            f"(this library reads versions {sorted(_READ_VERSIONS)})"
        )
    raw = data.get("series")
    if not isinstance(raw, list):
        raise ParameterError("corrupt metrics snapshot: series must be "
                             f"a list, got {type(raw).__name__}")
    _, decode_floats = _float_codec()
    series = []
    for entry in decode_floats(raw):
        if not isinstance(entry, dict):
            raise ParameterError("corrupt metrics series entry")
        kind = entry.get("kind")
        if kind not in _KIND_FIELDS:
            raise ParameterError(f"unknown metric kind {kind!r}")
        expected = _SERIES_FIELDS | {"kind"} | _KIND_FIELDS[kind]
        got = set(entry)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ParameterError(
                f"corrupt {kind} series {entry.get('name')!r}: "
                + "; ".join(
                    part for part in (
                        f"missing fields {missing}" if missing else "",
                        f"unknown fields {extra}" if extra else "",
                    ) if part)
            )
        _check_name(entry["name"])
        _check_labels(entry["labels"])
        if kind == "histogram" and (
                not isinstance(entry["le"], list)
                or not isinstance(entry["counts"], list)
                or len(entry["counts"]) != len(entry["le"]) + 1):
            raise ParameterError(
                f"corrupt histogram series {entry['name']!r}: counts "
                "must have one entry per bucket plus overflow"
            )
        if kind == "gauge" and entry["aggregate"] not in ("sum", "max"):
            raise ParameterError(
                f"corrupt gauge series {entry['name']!r}: unknown "
                f"aggregate {entry['aggregate']!r}"
            )
        series.append(entry)
    return series


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _label_text(labels: dict, extra: tuple = ()) -> str:
    pairs = list(labels.items()) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot wire dict as Prometheus text exposition
    (version 0.0.4: ``# HELP``/``# TYPE`` headers, cumulative
    ``_bucket{le=...}`` histogram series, ``_sum`` and ``_count``)."""
    lines = []
    seen_headers = set()
    for entry in snapshot_from_dict(snapshot):
        name, kind, labels = entry["name"], entry["kind"], entry["labels"]
        if name not in seen_headers:
            seen_headers.add(name)
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(
                f"{name}{_label_text(labels)} "
                f"{_format_value(entry['value'])}"
            )
        else:
            cumulative = 0
            for bound, count in zip(entry["le"] + [float("inf")],
                                    entry["counts"]):
                cumulative += count
                le = _format_value(bound) if math.isfinite(bound) \
                    else "+Inf"
                lines.append(
                    f"{name}_bucket"
                    f"{_label_text(labels, (('le', le),))} {cumulative}"
                )
            lines.append(f"{name}_sum{_label_text(labels)} "
                         f"{_format_value(entry['sum'])}")
            lines.append(f"{name}_count{_label_text(labels)} "
                         f"{entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""
