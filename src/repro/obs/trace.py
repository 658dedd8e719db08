"""Span tracing: nested, timestamped regions of one process's work.

A :class:`Tracer` records *spans* — named intervals with a parent, a
category, a thread and free-form JSON-safe args — and exports them two
ways:

* NDJSON, one versioned span dict per line (the library's usual wire
  posture: ``format``/``version`` markers, refused by name on the way
  back in);
* Chrome trace-event JSON (``chrome://tracing`` / Perfetto loadable),
  which is what ``repro-checkpoint campaign --trace FILE`` writes.

The executor opens a ``campaign`` root span and a ``cell`` span per
``CellFinished`` it publishes (aggregation plus the synchronous
consumer fan-out); the store traces
``store.lookup`` / ``store.publish`` / ``store.preload``; the
distributed queue traces ``queue.claim`` / ``queue.steal`` /
``queue.lease-refresh``; the service traces each HTTP request.  All of
those sites guard on :func:`current_tracer` returning ``None`` — with
no tracer installed the hot paths pay a single global read.

Spans nest per *thread* (each thread keeps its own open-span stack),
and process-pool workers run in other processes entirely — so the
serial backend gives the deepest tree, while pooled backends trace the
coordinating process only.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import ParameterError
from .metrics import _float_codec

__all__ = [
    "TRACE_WIRE_FORMAT",
    "TRACE_WIRE_VERSION",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "span",
    "span_from_dict",
]

TRACE_WIRE_FORMAT = "repro-trace-span"
TRACE_WIRE_VERSION = 1
_READ_VERSIONS = frozenset({1})
_SPAN_FIELDS = ("span_id", "parent_id", "name", "category", "start",
                "duration", "thread_id", "thread_name", "args")


@dataclass
class Span:
    """One closed interval.  ``start``/``duration`` are seconds relative
    to the tracer's epoch (a monotonic clock, not wall time)."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start: float
    duration: float
    thread_id: int
    thread_name: str
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in _SPAN_FIELDS}
        payload["args"] = dict(payload["args"])
        encode_floats, _ = _float_codec()
        return encode_floats({
            "format": TRACE_WIRE_FORMAT,
            "version": TRACE_WIRE_VERSION,
            **payload,
        })


def span_from_dict(data: dict) -> Span:
    """Reconstruct a span; refuses unknown formats/versions/fields."""
    if not isinstance(data, dict) \
            or data.get("format") != TRACE_WIRE_FORMAT:
        raise ParameterError("not a repro-trace-span record")
    version = data.get("version")
    if version not in _READ_VERSIONS:
        raise ParameterError(
            f"unsupported trace version {version!r} "
            f"(this library reads versions {sorted(_READ_VERSIONS)})"
        )
    got = set(data) - {"format", "version"}
    expected = set(_SPAN_FIELDS)
    if got != expected:
        raise ParameterError(
            f"corrupt trace span: fields {sorted(got)} != "
            f"{sorted(expected)}"
        )
    _, decode_floats = _float_codec()
    payload = decode_floats({name: data[name] for name in _SPAN_FIELDS})
    if not isinstance(payload["args"], dict):
        raise ParameterError("corrupt trace span: args must be an object")
    return Span(**payload)


class Tracer:
    """Collects spans; thread-safe; one instance per traced run."""

    def __init__(self):
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, category: str = "", **args: Any) -> Iterator[Span]:
        """Open a nested span; closes (and records) on exit, even when
        the body raises.  Parenthood follows the per-thread stack."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        thread = threading.current_thread()
        record = Span(
            span_id=span_id, parent_id=parent_id, name=str(name),
            category=str(category), start=self._clock() - self._epoch,
            duration=0.0, thread_id=thread.ident or 0,
            thread_name=thread.name, args=dict(args),
        )
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.duration = \
                (self._clock() - self._epoch) - record.start
            with self._lock:
                self._spans.append(record)

    def spans(self) -> tuple[Span, ...]:
        """Every *closed* span so far, in start order."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda s: s.start))

    # -- export --------------------------------------------------------
    def write_ndjson(self, path: str | pathlib.Path) -> int:
        """One span wire dict per line; returns the number written."""
        spans = self.spans()
        with pathlib.Path(path).open("w", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record.to_dict(), sort_keys=True,
                                    allow_nan=False) + "\n")
        return len(spans)

    def to_chrome(self) -> dict:
        """The Chrome trace-event representation (complete ``"X"``
        events, microsecond timestamps, one pid)."""
        pid = os.getpid()
        encode_floats, _ = _float_codec()
        events = [
            {
                "name": record.name,
                "cat": record.category or "repro",
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": pid,
                "tid": record.thread_id,
                "args": encode_floats(dict(record.args)),
            }
            for record in self.spans()
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str | pathlib.Path) -> int:
        """Write a Chrome-loadable trace file; returns the span count."""
        trace = self.to_chrome()
        pathlib.Path(path).write_text(
            json.dumps(trace, sort_keys=True, allow_nan=False),
            encoding="utf-8",
        )
        return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# Process-wide current tracer
# ----------------------------------------------------------------------
_tracer_lock = threading.Lock()
_tracer: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` (the common, zero-cost case).

    Hot paths should guard on this themselves rather than call
    :func:`span`, which allocates a context manager even when idle.
    """
    return _tracer


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide current tracer."""
    global _tracer
    with _tracer_lock:
        _tracer = tracer
    return tracer


def uninstall_tracer() -> None:
    global _tracer
    with _tracer_lock:
        _tracer = None


@contextmanager
def span(name: str, category: str = "", **args: Any):
    """A span on the current tracer, or a no-op when none is
    installed.  Convenience for warm paths; see :func:`current_tracer`
    for the hot-path guard idiom."""
    tracer = _tracer
    if tracer is None:
        yield None
    else:
        with tracer.span(name, category, **args) as record:
            yield record
