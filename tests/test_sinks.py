"""Sink layer: framed out-of-order persistence and its resume guarantees.

The framed sink's contract mirrors the ordered sink's, under weaker
ordering: records may land in any *cell* order, yet resuming from an
arbitrarily truncated file must reproduce exactly what an uninterrupted
run writes, and a file the campaign cannot have written must be refused,
never truncated.  The serial backend completes cells in grid order, so
with ``workers=1`` the framed file is byte-deterministic — which lets the
truncation matrix assert full byte identity, not just record-set
equality.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import DOUBLE_NBL, TRIPLE, scenarios
from repro import io as repro_io
from repro.errors import ParameterError
from repro.sim.adaptive import AdaptiveCI
from repro.sim.campaign import CampaignConfig
from repro.sim.executor import execute_spec
from repro.sim.sinks import (
    FramedJsonlSink,
    NullSink,
    OrderedJsonlSink,
    make_sink,
)
from repro.sim.spec import CampaignSpec, ExecutionPolicy

FRAMED = ExecutionPolicy(sink="framed")


def make_config(**overrides) -> CampaignConfig:
    fields = dict(
        protocols=(DOUBLE_NBL, TRIPLE),
        base_params=scenarios.BASE.parameters(M=600.0, n=12),
        m_values=(300.0, 600.0, 1200.0),
        phi_values=(1.0,),
        work_target=900.0,
        replicas=4,
        seed=2026,
        share_traces=True,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


def make_spec(policy: ExecutionPolicy = ExecutionPolicy(),
              **overrides) -> CampaignSpec:
    return CampaignSpec(grid=make_config(**overrides), policy=policy)


def canonical(cells):
    return [
        (c.protocol, c.M, c.phi, repro_io.dump_result(c.summary),
         tuple(repro_io.dump_result(r) for r in c.results))
        for c in cells
    ]


def record_set(path):
    """The raw runs in a campaign file, as an order-insensitive multiset."""
    return sorted(
        repro_io.dump_result(r) for r in repro_io.iter_campaign_runs(path)
    )


class TestMakeSink:
    def test_modes(self, tmp_path):
        assert isinstance(make_sink("ordered", None), NullSink)
        assert isinstance(make_sink("framed", None), NullSink)
        assert isinstance(
            make_sink("ordered", tmp_path / "a.jsonl"), OrderedJsonlSink
        )
        assert isinstance(
            make_sink("framed", tmp_path / "a.jsonl"), FramedJsonlSink
        )

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown sink mode"):
            make_sink("telepathy", tmp_path / "a.jsonl")

    def test_null_sink_keeps_requested_ordering(self):
        """sink='framed' without a results path must not silently revert
        to grid-order (head-of-line-blocked) on_cell emission."""
        assert make_sink("ordered", None).ordered is True
        assert make_sink("framed", None).ordered is False


class TestFramedWrites:
    def test_same_records_as_ordered(self, tmp_path):
        ordered, framed = tmp_path / "o.jsonl", tmp_path / "f.jsonl"
        execute_spec(make_spec(), results_path=ordered)
        execute_spec(make_spec(FRAMED), results_path=framed)
        assert record_set(ordered) == record_set(framed)

    def test_frames_carry_contiguous_sequence(self, tmp_path):
        path = tmp_path / "f.jsonl"
        execute_spec(make_spec(FRAMED), results_path=path)
        frames = [f for f, _ in repro_io.scan_frames(path)]
        assert [f.seq for f in frames] == list(range(len(frames)))
        assert len(frames) == 6 * 4  # 6 cells x 4 replicas
        # Within each cell group, replicas count up from 0.
        by_cell: dict[int, list[int]] = {}
        for f in frames:
            by_cell.setdefault(f.cell, []).append(f.replica)
        assert all(v == list(range(4)) for v in by_cell.values())

    def test_cells_identical_to_ordered_run(self, tmp_path):
        ordered = execute_spec(make_spec())
        framed = execute_spec(
            make_spec(FRAMED), results_path=tmp_path / "f.jsonl",
        )
        assert canonical(ordered.cells) == canonical(framed.cells)

    @pytest.mark.campaign
    def test_parallel_framed_matches_serial_record_set(self, tmp_path):
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        s = execute_spec(make_spec(FRAMED), results_path=serial)
        p = execute_spec(
            make_spec(ExecutionPolicy(workers=2, chunk_size=1,
                                      sink="framed")),
            results_path=parallel,
        )
        assert record_set(serial) == record_set(parallel)
        # Cells come back in grid order regardless of completion order.
        assert canonical(s.cells) == canonical(p.cells)


class TestFramedResume:
    """Satellite: truncate at frame boundaries and mid-frame; resumed
    output must equal an uninterrupted run byte for byte."""

    @pytest.fixture()
    def finished(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        execution = execute_spec(make_spec(FRAMED), results_path=path)
        return path, path.read_bytes(), execution.cells

    #: Cut points: after frame k (boundary) for several k, and mid-frame.
    @pytest.mark.parametrize("frames_kept,extra_bytes", [
        (0, 0),        # empty file
        (1, 0),        # one frame: cell 0 torn after replica 0
        (4, 0),        # exactly one complete cell
        (6, 0),        # one complete cell + half of the next
        (6, 25),       # ... plus a torn fragment of frame 7
        (11, 0),       # three frames short of three complete cells
        (23, 0),       # last frame lost
        (24, 0),       # nothing lost
    ])
    def test_truncation_matrix(self, finished, frames_kept, extra_bytes):
        path, full, cells = finished
        lines = full.split(b"\n")
        kept = b"\n".join(lines[:frames_kept]) + (b"\n" if frames_kept else b"")
        if extra_bytes:
            kept += lines[frames_kept][:extra_bytes]
        path.write_bytes(kept)

        execution = execute_spec(
            make_spec(FRAMED), results_path=path, resume=True,
        )
        assert path.read_bytes() == full
        assert canonical(execution.cells) == canonical(cells)
        expected_skipped = frames_kept // 4  # complete cells survive
        assert execution.report.cells_skipped == expected_skipped
        assert execution.report.cells_run == 6 - expected_skipped

    def test_resume_complete_file_runs_nothing(self, finished):
        path, full, cells = finished
        execution = execute_spec(
            make_spec(FRAMED), results_path=path, resume=True,
        )
        assert execution.report.cells_run == 0
        assert execution.report.cells_skipped == 6
        assert path.read_bytes() == full

    @pytest.mark.campaign
    def test_parallel_resume(self, finished):
        path, full, cells = finished
        path.write_bytes(b"\n".join(full.split(b"\n")[:9]) + b"\n")
        execution = execute_spec(
            make_spec(ExecutionPolicy(workers=2, chunk_size=1,
                                      sink="framed")),
            results_path=path, resume=True,
        )
        assert execution.report.cells_skipped == 2
        assert canonical(execution.cells) == canonical(cells)
        assert record_set(path) == sorted(
            repro_io.dump_result(r) for c in cells for r in c.results
        )

    def test_refuses_foreign_grid(self, finished):
        path, full, _ = finished
        other = make_spec(FRAMED, m_values=(450.0, 900.0, 1800.0))
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(other, results_path=path, resume=True)
        assert path.read_bytes() == full

    def test_refuses_changed_seed(self, finished):
        path, full, _ = finished
        with pytest.raises(ParameterError, match="seed"):
            execute_spec(
                make_spec(FRAMED, seed=2027), results_path=path, resume=True,
            )
        assert path.read_bytes() == full

    def test_manifest_refuses_sink_mode_switch(self, finished):
        """An ordered resume over a framed file (or vice versa) is a
        configuration drift the manifest names explicitly."""
        path, full, _ = finished
        with pytest.raises(ParameterError, match="sink"):
            execute_spec(make_spec(), results_path=path, resume=True)
        assert path.read_bytes() == full

    def test_refuses_sequence_gap(self, finished):
        """A frames file with a seq hole was reordered or hand-edited —
        an append can never produce it."""
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()
        lines = full.split(b"\n")
        del lines[2]  # drop one mid-cell frame
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(make_spec(FRAMED), results_path=path, resume=True)

    def test_refuses_reopened_cell(self, finished):
        """Frames of one cell must be one contiguous group."""
        path, full, _ = finished
        path.with_name(path.name + ".manifest").unlink()
        frames = [
            json.loads(line) for line in full.decode().splitlines()
        ]
        # Move cell 0's last frame behind cell 1's group and renumber seq
        # so the sequence invariant alone cannot catch it.
        frames.append(frames.pop(3))
        for seq, frame in enumerate(frames):
            frame["seq"] = seq
        path.write_text(
            "\n".join(json.dumps(f, sort_keys=True) for f in frames) + "\n"
        )
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(make_spec(FRAMED), results_path=path, resume=True)

    def test_refuses_unrecognisable_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("precious non-campaign content\n")
        with pytest.raises(ParameterError, match="no intact campaign records"):
            execute_spec(make_spec(FRAMED), results_path=path, resume=True)
        assert path.read_text() == "precious non-campaign content\n"

    def test_own_file_torn_in_first_frame(self, finished):
        """The campaign's own manifest vouches for a file torn before the
        first frame completed: resume restarts cleanly."""
        path, full, cells = finished
        path.write_bytes(full.split(b"\n")[0][:30])
        execution = execute_spec(
            make_spec(FRAMED), results_path=path, resume=True,
        )
        assert execution.report.cells_skipped == 0
        assert canonical(execution.cells) == canonical(cells)
        assert path.read_bytes() == full


class TestAdaptiveSinkRules:
    def test_adaptive_requires_framed_sink_when_persisted(self, tmp_path):
        controller = AdaptiveCI(max_replicas=4, tolerance=0.05)
        with pytest.raises(ParameterError, match="framed"):
            execute_spec(
                make_spec(ExecutionPolicy(controller=controller)),
                results_path=tmp_path / "a.jsonl",
            )

    def test_adaptive_without_results_is_fine(self):
        controller = AdaptiveCI(max_replicas=4, tolerance=1.0)
        execution = execute_spec(
            make_spec(ExecutionPolicy(controller=controller)),
        )
        assert execution.report.cells_run == 6

    def test_controller_ceiling_must_match_config(self, tmp_path):
        controller = AdaptiveCI(max_replicas=5, tolerance=0.05)
        with pytest.raises(ParameterError, match="max_replicas"):
            execute_spec(
                make_spec(ExecutionPolicy(sink="framed",
                                          controller=controller)),
                results_path=tmp_path / "a.jsonl",
            )

    def test_adaptive_resume_refuses_tolerance_drift(self, tmp_path):
        path = tmp_path / "a.jsonl"
        def adaptive(tolerance):
            return make_spec(ExecutionPolicy(
                sink="framed",
                controller=AdaptiveCI(max_replicas=4, tolerance=tolerance),
            ))

        execute_spec(adaptive(0.5), results_path=path)
        with pytest.raises(ParameterError, match="adaptive"):
            execute_spec(adaptive(0.05), results_path=path, resume=True)

    def test_fixed_resume_refuses_adaptive_file_without_manifest(self, tmp_path):
        """Even with the manifest gone, a file holding fewer replicas than
        the fixed controller runs cannot be mistaken for complete cells."""
        path = tmp_path / "a.jsonl"
        execution = execute_spec(
            make_spec(ExecutionPolicy(sink="framed", controller=AdaptiveCI(
                max_replicas=4, tolerance=10.0, min_replicas=2, batch=1
            ))),
            results_path=path,
        )
        # The huge tolerance stopped every cell at 2 < 4 replicas.
        assert execution.report.replicas_run == 12
        path.with_name(path.name + ".manifest").unlink()
        with pytest.raises(ParameterError, match="refusing to resume"):
            execute_spec(make_spec(FRAMED), results_path=path, resume=True)


class TestCellAtomicWrites:
    """Each cell reaches the results file as one ``write`` of its joined
    text, so a crash can tear only the trailing cell."""

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_one_write_per_cell(self, sink, tmp_path, monkeypatch):
        path = tmp_path / f"{sink}.jsonl"
        writes: list[str] = []
        real_open = pathlib.Path.open

        class CountingFile:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                writes.append(text)
                return self._fh.write(text)

            def __enter__(self):
                self._fh.__enter__()
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self._fh, name)

        def counting_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return CountingFile(fh) if self == path and "a" in mode else fh

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        spec = make_spec(policy=ExecutionPolicy(sink=sink), replicas=32,
                         m_values=(300.0, 600.0))
        execution = execute_spec(spec, results_path=path)
        monkeypatch.undo()
        assert len(writes) == len(execution.cells) == 4
        assert [w.count("\n") for w in writes] == [32] * 4
        assert "".join(writes).encode("utf-8") == path.read_bytes()


class TestKeptHandle:
    """A sink appends through one handle per campaign, opened at its
    first cell and closed however the campaign ends."""

    @staticmethod
    def _appends(monkeypatch, path) -> list:
        """Every append handle opened on ``path`` from here on."""
        handles: list = []
        real_open = pathlib.Path.open

        def recording_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if self == path and "a" in mode:
                handles.append(fh)
            return fh

        monkeypatch.setattr(pathlib.Path, "open", recording_open)
        return handles

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_one_handle_per_campaign(self, sink, tmp_path, monkeypatch):
        path = tmp_path / f"{sink}.jsonl"
        handles = self._appends(monkeypatch, path)
        execution = execute_spec(make_spec(ExecutionPolicy(sink=sink)),
                                 results_path=path)
        assert len(execution.cells) == 6
        assert len(handles) == 1 and handles[0].closed

    @pytest.mark.parametrize("sink", ["ordered", "framed"])
    def test_closed_after_cancel_and_after_a_consumer_raises(
            self, sink, tmp_path, monkeypatch):
        from repro.errors import CampaignCancelled
        from repro.sim.events import CellFinished, EventConsumer
        from repro.sim.spec import Campaign

        class Boom(RuntimeError):
            pass

        class OnFirstCell(EventConsumer):
            def __init__(self, act):
                self.act = act

            def on_event(self, event):
                if isinstance(event, CellFinished):
                    self.act()

        def cancel():
            session.cancel()

        def boom():
            raise Boom("consumer failed")

        spec = make_spec(ExecutionPolicy(sink=sink))
        for act, error in ((cancel, CampaignCancelled), (boom, Boom)):
            path = tmp_path / f"{act.__name__}.jsonl"
            handles = self._appends(monkeypatch, path)
            session = Campaign(spec).session(
                path, consumers=[OnFirstCell(act)])
            with pytest.raises(error):
                session.run()
            assert len(handles) == 1 and handles[0].closed
            assert path.read_text().count("\n") == 4  # one whole cell
            monkeypatch.undo()
            Campaign(spec).resume(path)
            assert len(path.read_text().splitlines()) == 24
