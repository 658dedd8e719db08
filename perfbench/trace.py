"""Per-layer timing from outside the program.

The traced run wraps calls into each layer's public functions — the
policy's backend, the store and service instances the benchmark builds,
``repro.io``'s record encoders, the sink's ``emit`` and the session
bus's ``publish`` — in spans kept in memory.  A span records its layer,
start, end, the span it ran inside (per thread) and any counts its
wrapper read off the call.  Nothing under ``src/`` changes; untraced
runs install no wrapper at all.

:func:`layer_summary` turns spans into per-layer inclusive and self
time, and :func:`unattributed` charges whatever a campaign's wall clock
spent outside every wrapped call to the executor itself.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from repro.sim.backends import CampaignBackend


class SpanRecorder:
    """Spans of wrapped calls, nested per thread, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        span = {"layer": layer, "start": time.monotonic(), "end": None,
                "parent": stack[-1] if stack else None, "counts": {}}
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, **counts: int) -> None:
        span = self.spans[index]
        span["end"] = time.monotonic()
        span["counts"] = counts
        self._stack().pop()

    def wrap(self, func, layer: str, count=None):
        """``func`` timed as one ``layer`` span per call; ``count(result)``
        (optional) returns the span's counts from a successful call."""

        @functools.wraps(func)
        def timed(*args, **kwargs):
            index = self.open(layer)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, **(count(result) if count else {}))
            return result

        return timed


@contextlib.contextmanager
def patched(owner, name: str, replacement):
    """Temporarily replace ``owner.name`` (a module function)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def traced_encoders(recorder: SpanRecorder):
    """Time every ``repro.io`` record encode as an ``io`` span."""
    import repro.io as repro_io

    with patched(repro_io, "dump_result",
                 recorder.wrap(repro_io.dump_result, "io")), \
            patched(repro_io, "dump_frame",
                    recorder.wrap(repro_io.dump_frame, "io")):
        yield


def trace_store(store, recorder: SpanRecorder) -> None:
    """Wrap the store instance's cell-level and query methods."""
    store.preload = recorder.wrap(
        store.preload, "store.preload", lambda n: {"entries": int(n)})
    store.load_cell = recorder.wrap(
        store.load_cell, "store.load_cell",
        lambda hit: {"hits": int(hit is not None),
                     "misses": int(hit is None)})
    store.publish_cell = recorder.wrap(
        store.publish_cell, "store.publish_cell", lambda _: {"cells": 1})
    store.coverage = recorder.wrap(store.coverage, "store.coverage")


def trace_session(session, recorder: SpanRecorder) -> None:
    """Wrap an opened session's bus fan-out and its sink's ``emit``."""
    from repro.sim.events import SinkWriter

    session.bus.publish = recorder.wrap(
        session.bus.publish, "events", lambda _: {"events": 1})
    for consumer in session.bus.consumers:
        if isinstance(consumer, SinkWriter):
            consumer.sink.emit = recorder.wrap(consumer.sink.emit, "sinks")


class TimedBackend(CampaignBackend):
    """The policy's backend, each produced chunk timed as a ``backends``
    span (the time spent inside the backend's generator)."""

    def __init__(self, inner: CampaignBackend, recorder: SpanRecorder):
        self.inner = inner
        self.recorder = recorder

    def execute(self, config, chunks, controller):
        produced = iter(self.inner.execute(config, chunks, controller))
        while True:
            index = self.recorder.open("backends")
            try:
                item = next(produced)
            except StopIteration:
                self.recorder.close(index)
                return
            except BaseException:
                self.recorder.close(index)
                raise
            results = item[1]
            self.recorder.close(
                index, cells=len(results),
                replicas=sum(len(cell) for cell in results))
            yield item


# ----------------------------------------------------------------------
# Attribution arithmetic
# ----------------------------------------------------------------------
def layer_summary(spans, keep=None) -> dict[str, dict]:
    """Per layer: ``total`` (inclusive seconds, a layer nested in itself
    counted once), ``self`` (seconds minus wrapped child calls),
    ``calls`` and the summed span counts.

    ``keep(span)`` (optional) selects the spans to aggregate; nesting is
    resolved over every span regardless.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0})
    for index, span in enumerate(spans):
        if keep is not None and not keep(span):
            continue
        layer = span["layer"]
        duration = span["end"] - span["start"]
        entry = out[layer]
        entry["calls"] += 1
        entry["self"] += duration - child[index]
        if not _inside_same_layer(spans, span):
            entry["total"] += duration
        for name, value in span["counts"].items():
            entry[name] = entry.get(name, 0) + value
    return dict(out)


def _inside_same_layer(spans, span) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["layer"] == span["layer"]:
            return True
        parent = spans[parent]["parent"]
    return False


def unattributed(summary: dict[str, dict], wall_s: float) -> float:
    """Wall-clock seconds outside every wrapped call.

    The self times of all spans sum to the time their outermost spans
    cover, so what remains of ``wall_s`` ran in none of them.
    """
    return wall_s - sum(entry["self"] for entry in summary.values())
