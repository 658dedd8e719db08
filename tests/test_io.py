"""Result persistence: lossless JSON round-trips, corruption handling."""

from __future__ import annotations

import json
import math
import pathlib
import shutil

import pytest

from repro.errors import ParameterError
from repro.io import (
    dump_frame,
    dump_result,
    from_envelope,
    iter_campaign_runs,
    load_frame,
    load_result,
    load_results,
    save_results,
    scan_frames,
    scan_results,
    to_envelope,
)
from repro.sim.results import DesResult, MonteCarloSummary
from repro.sim.spec import Campaign, CampaignSpec

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sample_des(**kw) -> DesResult:
    defaults = dict(
        status="completed", makespan=1234.5, work_target=1000.0,
        work_done=1000.0, failures=7, rollbacks=6, work_lost=55.25,
        commits=12, risk_time=33.5, fatal_time=float("nan"),
        fatal_group=(), meta={"protocol": "triple", "seed": 42},
    )
    defaults.update(kw)
    return DesResult(**defaults)


def sample_summary() -> MonteCarloSummary:
    return MonteCarloSummary.from_samples([0.1, 0.12, 0.11], meta={"x": 1})


class TestRoundTrip:
    def test_des_result(self):
        original = sample_des()
        restored = load_result(dump_result(original))
        assert isinstance(restored, DesResult)
        assert restored.makespan == original.makespan
        assert restored.meta == original.meta
        assert math.isnan(restored.fatal_time)

    def test_fatal_result_with_group(self):
        original = sample_des(status="fatal", fatal_time=99.5,
                              fatal_group=(4, 5))
        restored = load_result(dump_result(original))
        assert restored.fatal_group == (4, 5)
        assert restored.fatal_time == 99.5
        assert math.isnan(restored.waste)  # derived property still works

    def test_infinities(self):
        original = sample_des(fatal_time=float("inf"))
        restored = load_result(dump_result(original))
        assert restored.fatal_time == float("inf")
        original = sample_des(fatal_time=float("-inf"))
        assert load_result(dump_result(original)).fatal_time == float("-inf")

    def test_summary(self):
        original = sample_summary()
        restored = load_result(dump_result(original))
        assert isinstance(restored, MonteCarloSummary)
        assert restored.mean == original.mean
        assert restored.success_ci == original.success_ci

    def test_waste_preserved_through_roundtrip(self):
        original = sample_des()
        assert load_result(dump_result(original)).waste == original.waste

    def test_float_lookalike_strings_stay_strings(self):
        """Regression: literal "nan"/"inf"/"-inf" *strings* in a payload
        must not be coerced into floats by the non-finite float encoding."""
        meta = {"note": "nan", "bound": "inf", "floor": "-inf",
                "nested": ["nan", {"deep": "inf"}]}
        restored = load_result(dump_result(sample_des(meta=dict(meta))))
        assert restored.meta == meta
        assert all(isinstance(v, str)
                   for v in (restored.meta["note"], restored.meta["bound"],
                             restored.meta["floor"]))

    def test_non_finite_floats_still_round_trip(self):
        meta = {"a": float("nan"), "b": float("inf"), "c": float("-inf")}
        restored = load_result(dump_result(sample_des(meta=meta)))
        assert math.isnan(restored.meta["a"])
        assert restored.meta["b"] == float("inf")
        assert restored.meta["c"] == float("-inf")

    def test_marker_shaped_meta_dicts_round_trip(self):
        """User dicts that *look* like the encoder's sentinels must be
        escaped, not reinterpreted."""
        meta = {
            "x": {"__float__": "nan"},
            "y": {"__str__": "inf"},
            "z": {"__dict__": "plain"},
            "w": {"__float__": float("nan")},
        }
        restored = load_result(dump_result(sample_des(meta=meta)))
        assert restored.meta["x"] == {"__float__": "nan"}
        assert isinstance(restored.meta["x"]["__float__"], str)
        assert restored.meta["y"] == {"__str__": "inf"}
        assert restored.meta["z"] == {"__dict__": "plain"}
        assert math.isnan(restored.meta["w"]["__float__"])

    def test_version_is_stamped_per_record(self):
        import json

        assert json.loads(dump_result(sample_des()))["version"] == 2
        assert json.loads(
            dump_frame(sample_des(), cell=0, replica=0, seq=0)
        )["version"] == 2


class TestMetaRoundTripProperties:
    """Hypothesis: envelopes are lossless for arbitrary meta payloads."""

    from hypothesis import given, settings, strategies as st

    meta_strings = st.dictionaries(st.text(), st.text(), max_size=8)

    @settings(max_examples=150)
    @given(meta=meta_strings)
    def test_string_valued_meta_round_trips(self, meta):
        restored = load_result(dump_result(sample_des(meta=meta)))
        assert restored.meta == meta

    @settings(max_examples=150)
    @given(meta=st.dictionaries(
        st.text(max_size=20),
        st.one_of(
            st.text(max_size=20),
            st.floats(allow_nan=False),
            st.just(float("inf")),
            st.just(float("-inf")),
            st.integers(min_value=-2**53, max_value=2**53),
            st.booleans(),
            st.none(),
            st.dictionaries(st.text(max_size=10), st.text(max_size=10),
                            max_size=3),
        ),
        max_size=6,
    ))
    def test_json_valued_meta_round_trips(self, meta):
        restored = load_result(dump_result(sample_des(meta=meta)))
        assert restored.meta == meta


class TestFiles:
    def test_save_and_stream(self, tmp_path):
        results = [sample_des(makespan=1000.0 + i) for i in range(5)]
        path = tmp_path / "runs.jsonl"
        assert save_results(results, path) == 5
        loaded = list(load_results(path))
        assert [r.makespan for r in loaded] == [r.makespan for r in results]

    def test_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_results([sample_des()], path)
        save_results([sample_summary()], path, append=True)
        loaded = list(load_results(path))
        assert len(loaded) == 2
        assert isinstance(loaded[0], DesResult)
        assert isinstance(loaded[1], MonteCarloSummary)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(dump_result(sample_des()) + "\n\n\n")
        assert len(list(load_results(path))) == 1

    def test_corrupt_line_reports_position(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(dump_result(sample_des()) + "\n{broken\n")
        with pytest.raises(ParameterError, match="runs.jsonl:2"):
            list(load_results(path))


class TestValidation:
    def test_rejects_foreign_envelope(self):
        with pytest.raises(ParameterError):
            from_envelope({"format": "something-else"})
        with pytest.raises(ParameterError):
            from_envelope([1, 2, 3])

    def test_rejects_future_version(self):
        env = to_envelope(sample_des())
        env["version"] = 99
        with pytest.raises(ParameterError, match="version"):
            from_envelope(env)

    def test_rejects_unknown_kind(self):
        env = to_envelope(sample_des())
        env["kind"] = "Mystery"
        with pytest.raises(ParameterError, match="kind"):
            from_envelope(env)

    def test_rejects_corrupt_payload(self):
        env = to_envelope(sample_des())
        env["payload"]["bogus_field"] = 1
        with pytest.raises(ParameterError, match="corrupt"):
            from_envelope(env)

    def test_rejects_unserialisable(self):
        with pytest.raises(ParameterError):
            to_envelope(object())  # type: ignore[arg-type]

    def test_rejects_bad_json(self):
        with pytest.raises(ParameterError):
            load_result("{nope")


class TestScanResults:
    """Tolerant prefix scanning (the campaign-resume recovery primitive)."""

    def test_yields_offsets_usable_for_truncation(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_results([sample_des(), sample_des(failures=9)], path)
        scanned = list(scan_results(path))
        assert len(scanned) == 2
        (first, off1), (second, off2) = scanned
        assert first.failures == 7 and second.failures == 9
        assert path.read_bytes()[:off1].endswith(b"\n")
        assert off2 == path.stat().st_size

    def test_stops_at_partial_trailing_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_results([sample_des()], path)
        full = path.read_bytes()
        path.write_bytes(full + full[: len(full) // 2])  # torn second write
        scanned = list(scan_results(path))
        assert len(scanned) == 1
        assert scanned[0][1] == len(full)

    def test_stops_at_corrupt_line_without_raising(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(dump_result(sample_des()) + "\n{broken}\n"
                        + dump_result(sample_des()) + "\n")
        scanned = list(scan_results(path))
        assert len(scanned) == 1  # nothing after the corruption is trusted

    def test_stops_at_valid_json_with_corrupt_payload(self, tmp_path):
        """Bit-flipped payloads that still parse as JSON must not escape
        as AttributeError — they end the scan like any corruption."""
        import json

        path = tmp_path / "runs.jsonl"
        bad = json.dumps({"format": "repro-results", "version": 2,
                          "kind": "DesResult", "payload": "oops"})
        path.write_text(dump_result(sample_des()) + "\n" + bad + "\n")
        scanned = list(scan_results(path))
        assert len(scanned) == 1
        with pytest.raises(ParameterError, match="payload"):
            load_result(bad)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n" + dump_result(sample_des()) + "\n\n")
        results = [r for r, _ in scan_results(path)]
        assert len(results) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(scan_results(path)) == []

    def test_rejects_midfile_corrupt_record_with_offset(self, tmp_path):
        """A JSON-parseable record failing identity checks *mid-file* —
        with intact data behind it — is corruption no append can produce:
        it must raise (with the byte offset), never silently truncate the
        intact tail away."""
        import json

        path = tmp_path / "runs.jsonl"
        first = dump_result(sample_des()) + "\n"
        bad = json.dumps({"format": "repro-results", "version": 2,
                          "kind": "DesResult", "payload": "oops"}) + "\n"
        path.write_text(first + bad + dump_result(sample_des()) + "\n")
        with pytest.raises(ParameterError, match=rf"byte offset {len(first)}"):
            list(scan_results(path))

    def test_midfile_wrong_format_also_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(dump_result(sample_des()) + "\n"
                        + '{"format": "something-else"}' + "\n"
                        + dump_result(sample_des()) + "\n")
        with pytest.raises(ParameterError, match="byte offset"):
            list(scan_results(path))

    def test_trailing_corrupt_record_still_tolerated(self, tmp_path):
        """The same damaged record at the *end* of the file is a torn
        trailing write — the scan ends silently there (resume re-runs)."""
        import json

        path = tmp_path / "runs.jsonl"
        bad = json.dumps({"format": "repro-results", "version": 2,
                          "kind": "DesResult", "payload": "oops"})
        path.write_text(dump_result(sample_des()) + "\n" + bad + "\n")
        assert len(list(scan_results(path))) == 1


class TestFrames:
    """Framed envelopes: the out-of-order sink's record format."""

    def test_round_trip(self):
        original = sample_des()
        frame = load_frame(dump_frame(original, cell=7, replica=2, seq=30))
        assert (frame.cell, frame.replica, frame.seq) == (7, 2, 30)
        assert isinstance(frame.result, DesResult)
        assert frame.result.makespan == original.makespan

    def test_summary_payloads_frame_too(self):
        frame = load_frame(dump_frame(sample_summary(), cell=0, replica=0,
                                      seq=0))
        assert isinstance(frame.result, MonteCarloSummary)

    @pytest.mark.parametrize("field,value", [
        ("cell", -1), ("replica", -2), ("seq", None), ("cell", 1.5),
        ("seq", True),
    ])
    def test_rejects_bad_framing(self, field, value):
        import json

        env = json.loads(dump_frame(sample_des(), cell=0, replica=0, seq=0))
        env[field] = value
        with pytest.raises(ParameterError, match=field):
            load_frame(json.dumps(env))

    def test_rejects_plain_result_envelope(self):
        with pytest.raises(ParameterError, match="repro-frames"):
            load_frame(dump_result(sample_des()))

    def test_dump_rejects_bad_framing(self):
        with pytest.raises(ParameterError, match="cell"):
            dump_frame(sample_des(), cell=-1, replica=0, seq=0)

    def test_scan_frames_offsets_and_truncation(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        lines = [dump_frame(sample_des(failures=i), cell=0, replica=i, seq=i)
                 for i in range(3)]
        full = "\n".join(lines) + "\n"
        path.write_text(full + lines[0][:20])  # torn fourth frame
        scanned = list(scan_frames(path))
        assert [f.replica for f, _ in scanned] == [0, 1, 2]
        assert scanned[-1][1] == len(full.encode())

    def test_scan_frames_rejects_midfile_corruption(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        good = dump_frame(sample_des(), cell=0, replica=0, seq=0)
        path.write_text(good + "\n" + '{"format": "repro-frames"}' + "\n"
                        + good + "\n")
        with pytest.raises(ParameterError, match="byte offset"):
            list(scan_frames(path))

    def test_sink_mode_mismatch_is_named_not_called_corruption(self, tmp_path):
        """Scanning one sink format's file with the other scanner is a
        mode mismatch — the intact file must not be diagnosed as damage."""
        plain, framed = tmp_path / "p.jsonl", tmp_path / "f.jsonl"
        save_results([sample_des()], plain)
        framed.write_text(
            dump_frame(sample_des(), cell=0, replica=0, seq=0) + "\n"
        )
        with pytest.raises(ParameterError, match="other sink mode"):
            list(scan_results(framed))
        with pytest.raises(ParameterError, match="other sink mode"):
            list(scan_frames(plain))


class TestIterCampaignRuns:
    def test_reads_plain_and_framed(self, tmp_path):
        plain, framed = tmp_path / "p.jsonl", tmp_path / "f.jsonl"
        runs = [sample_des(failures=i) for i in range(3)]
        save_results(runs, plain)
        framed.write_text("".join(
            dump_frame(r, cell=0, replica=i, seq=i) + "\n"
            for i, r in enumerate(runs)
        ))
        for path in (plain, framed):
            loaded = list(iter_campaign_runs(path))
            assert [r.failures for r in loaded] == [0, 1, 2]

    def test_rejects_summary_records_anywhere(self, tmp_path):
        """A summary record means the wrong file — even as the last
        intact record, it must not be silently dropped."""
        path = tmp_path / "mixed.jsonl"
        save_results([sample_des(), sample_summary()], path)
        with pytest.raises(ParameterError, match="not a campaign results"):
            list(iter_campaign_runs(path))

    def test_tolerates_torn_trailing_write(self, tmp_path):
        """An interrupted campaign's file is analysable as-is: the intact
        prefix streams, the torn tail is ignored (like the resume scans)."""
        path = tmp_path / "p.jsonl"
        good = dump_result(sample_des())
        path.write_text(good + "\n" + good[:30])
        assert len(list(iter_campaign_runs(path))) == 1

    def test_rejects_midfile_corruption(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(dump_result(sample_des()) + "\n"
                        + '{"format": "something-else"}' + "\n"
                        + dump_result(sample_des()) + "\n")
        with pytest.raises(ParameterError, match="byte offset"):
            list(iter_campaign_runs(path))

    def test_cell_indices_surface_for_frames_only(self, tmp_path):
        from repro.io import scan_campaign_runs

        plain, framed = tmp_path / "p.jsonl", tmp_path / "f.jsonl"
        save_results([sample_des()], plain)
        framed.write_text(
            dump_frame(sample_des(), cell=5, replica=0, seq=0) + "\n"
        )
        assert [c for c, _ in scan_campaign_runs(plain)] == [None]
        assert [c for c, _ in scan_campaign_runs(framed)] == [5]


class TestUnsupportedVersions:
    """An intact record in a version this library does not read is
    refused by version wherever it sits.  A torn append never ends in a
    newline, so a whole line at the tail is another writer's record, not
    damage to truncate away."""

    @staticmethod
    def write(path, lines, at, version):
        envelope = json.loads(lines[at])
        envelope["version"] = version
        lines = list(lines)
        lines[at] = json.dumps(envelope, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("version", [1, 3])
    @pytest.mark.parametrize("at", [1, -1], ids=["mid-file", "tail"])
    def test_results(self, tmp_path, version, at):
        path = tmp_path / "runs.jsonl"
        self.write(path, [dump_result(sample_des(failures=i))
                          for i in range(3)], at, version)
        with pytest.raises(ParameterError,
                           match=f"unsupported results version {version}"):
            list(scan_results(path))

    @pytest.mark.parametrize("version", [1, 3])
    @pytest.mark.parametrize("at", [1, -1], ids=["mid-file", "tail"])
    def test_frames(self, tmp_path, version, at):
        path = tmp_path / "frames.jsonl"
        self.write(path, [dump_frame(sample_des(), cell=0, replica=i, seq=i)
                          for i in range(3)], at, version)
        with pytest.raises(ParameterError,
                           match=f"unsupported frames version {version}"):
            list(scan_frames(path))

    def test_framed_payload_version_at_tail(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        lines = [dump_frame(sample_des(), cell=0, replica=i, seq=i)
                 for i in range(2)]
        last = json.loads(lines[-1])
        last["payload"]["version"] = 3
        lines[-1] = json.dumps(last, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError,
                           match="unsupported results version 3"):
            list(scan_frames(path))

    def test_campaign_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        self.write(path, [dump_result(sample_des()) for _ in range(2)],
                   -1, 3)
        with pytest.raises(ParameterError, match="version 3"):
            list(iter_campaign_runs(path))

    def test_resume_never_truncates_a_newer_record(self, tmp_path):
        """The golden ordered campaign with its last record from a newer
        writer: resume refuses and leaves the file byte-for-byte alone
        instead of truncating the record and recomputing over it."""
        path = tmp_path / "ordered_fixed.jsonl"
        shutil.copy(GOLDEN / "ordered_fixed.manifest",
                    tmp_path / "ordered_fixed.jsonl.manifest")
        lines = (GOLDEN / "ordered_fixed.jsonl").read_text().splitlines()
        self.write(path, lines, -1, 3)
        before = path.read_bytes()
        spec = CampaignSpec.load(GOLDEN / "ordered_fixed.spec.json")
        with pytest.raises(ParameterError,
                           match="unsupported results version 3"):
            Campaign(spec).resume(path)
        assert path.read_bytes() == before
