"""Tests for the benchmark's own code: percentiles, output checks and
the per-layer attribution arithmetic."""

from __future__ import annotations

import json
import pathlib

import pytest

from perfbench import checks
from perfbench.stats import TooFewSamples, highest_percentile, percentile
from perfbench.trace import SpanRecorder, layer_summary, unattributed
from perfbench.workloads import END_TO_END, PER_LAYER

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestPercentile:
    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(range(999), 99)
        with pytest.raises(TooFewSamples):
            percentile(range(100), 95)

    def test_accepts_ten_beyond(self):
        assert percentile(range(1, 1001), 99) == 990
        assert percentile(range(1, 101), 90) == 90

    def test_highest_supported(self):
        assert highest_percentile(range(1, 201)) == (95.0, 190)
        assert highest_percentile(range(50)) is None


class TestOutputChecks:
    DATA = b'{"kind": "DesResult"}\n' * 4

    def test_digest(self):
        digest = checks.sha256_hex(self.DATA)
        assert checks.check_digest(self.DATA, digest) is None
        flipped = bytearray(self.DATA)
        flipped[7] ^= 0x01
        assert checks.check_digest(bytes(flipped), digest) is not None

    def test_same_bytes(self):
        assert checks.check_same_bytes(self.DATA, self.DATA) is None
        flipped = bytearray(self.DATA)
        flipped[-2] ^= 0x01
        assert "byte" in checks.check_same_bytes(bytes(flipped), self.DATA)
        assert checks.check_same_bytes(self.DATA[:-1], self.DATA)

    def test_reply(self):
        good = {"report": "tables", "simulated_cells": 0}
        assert checks.check_reply(200, good, "tables") is None
        assert checks.check_reply(
            200, {**good, "simulated_cells": 1}, "tables") is not None
        assert checks.check_reply(200, good, "other tables") is not None
        assert checks.check_reply(500, good, "tables") is not None
        assert checks.check_reply(200, None, "tables") is not None

    def test_equivalence(self):
        cell = ("triple", 1800.0, 15.0)
        reference = {cell: (0.50, 0.02, 0.01)}
        assert checks.equivalence_problems({cell: (0.52, 0.02)},
                                           reference) == []
        # Shifted beyond ci + ref_ci + allowance = 0.05.
        assert checks.equivalence_problems({cell: (0.56, 0.02)},
                                           reference)
        assert checks.equivalence_problems({cell: (None, None)}, reference)
        assert checks.equivalence_problems({}, reference)
        # An undefined CI bounds nothing.
        assert checks.equivalence_problems({cell: (0.9, None)},
                                           reference) == []


def span(layer, start, end, parent=None, **counts):
    return {"layer": layer, "start": start, "end": end, "parent": parent,
            "counts": counts}


class TestAttribution:
    #: One campaign of 25 s: a 10 s backend chunk, then a 10 s bus
    #: fan-out holding a 3 s sink emit (1 s of it encoding) and a 2 s
    #: store publish.
    SPANS = [
        span("backends", 0.0, 10.0, cells=2, replicas=8),
        span("events", 10.0, 20.0, events=1),
        span("sinks", 11.0, 14.0, parent=1),
        span("io", 12.0, 13.0, parent=2),
        span("store.publish_cell", 15.0, 17.0, parent=1, cells=1),
    ]

    def test_self_and_total(self):
        summary = layer_summary(self.SPANS)
        assert summary["events"]["total"] == 10.0
        assert summary["events"]["self"] == 5.0
        assert summary["sinks"]["total"] == 3.0
        assert summary["sinks"]["self"] == 2.0
        assert summary["io"]["total"] == 1.0
        assert summary["backends"]["cells"] == 2
        assert summary["backends"]["replicas"] == 8
        assert summary["store.publish_cell"]["cells"] == 1

    def test_unattributed(self):
        assert unattributed(layer_summary(self.SPANS), 25.0) == 5.0

    def test_layer_nested_in_itself_counts_once(self):
        spans = [span("io", 0.0, 4.0), span("io", 1.0, 2.0, parent=0)]
        summary = layer_summary(spans)
        assert summary["io"]["total"] == 4.0
        assert summary["io"]["self"] == 4.0
        assert summary["io"]["calls"] == 2

    def test_keep_filters_spans(self):
        summary = layer_summary(self.SPANS,
                                keep=lambda s: s["start"] >= 10.0)
        assert "backends" not in summary
        assert summary["events"]["self"] == 5.0

    def test_recorder_nests_wrapped_calls(self):
        recorder = SpanRecorder()
        inner = recorder.wrap(lambda x: x + 1, "io", lambda r: {"n": r})
        outer = recorder.wrap(lambda x: inner(x) * 2, "sinks")
        assert outer(1) == 4
        io_span, sink_span = recorder.spans[1], recorder.spans[0]
        assert sink_span["layer"] == "sinks" and sink_span["parent"] is None
        assert io_span["parent"] == 0 and io_span["counts"] == {"n": 2}


def test_benchmark_json_lists_the_reported_metrics():
    declared = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] \
        == list(PER_LAYER)
