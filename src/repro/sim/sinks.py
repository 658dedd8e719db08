"""Campaign result sinks: how raw runs land on disk, and how they resume.

A sink is the durability consumer of the result-event pipeline: the
:class:`~repro.sim.events.SinkWriter` consumer feeds every finished
``backend``/``store`` cell from the event bus into a
:class:`ResultSink` (``resume`` cells are skipped — their bytes are
already in the recovered file).  What a sink receives is *text*: each
replica's canonical record line (:func:`repro.io.dump_result`), encoded
once per replica by whoever produced the cell — or, for a store hit,
the stored line the store just verified — and never re-encoded here.
The sink decides the on-disk format:

* :class:`OrderedJsonlSink` — the record lines themselves, in strict
  grid order.  The results file is an exact byte prefix of the serial
  file at all times (the historical format), which is the strongest
  possible reproducibility statement but serialises output behind the
  slowest in-flight cell.
* :class:`FramedJsonlSink` — framed records
  (:class:`repro.io.ResultFrame`: cell index + replica + file-wide
  sequence number, spelled by the :func:`repro.io.frame_record`
  template around each record line) appended the moment a cell
  completes, in *completion* order.  No head-of-line blocking; resume
  reconstructs per-cell completion from the framing alone, so
  arbitrary truncation recovers exactly like the ordered sink does.
* :class:`WorkerShardSink` — a distributed worker's private framed shard
  (:mod:`repro.sim.distributed`); re-opens instead of truncating, since a
  shard accumulates across worker restarts and the *queue* tracks which
  cells are complete.
* :class:`NullSink` — no persistence (campaigns without a results path).

Both persistent sinks implement ``recover``: scan an existing file,
identity-check every intact record against the campaign grid (protocol,
M, effective φ, per-replica seed, platform size, workload), truncate any
torn trailing cell, and report which cells are already complete.  A file
the campaign cannot have written is refused, never truncated.

Writes are cell-atomic — one ``write`` of the cell's joined text, then
the close that flushes it — so an interrupted campaign tears at most
the trailing cell, which is exactly the damage ``recover`` knows how to
undo.
"""

from __future__ import annotations

import pathlib
from abc import ABC, abstractmethod

from ..errors import ParameterError
from .adaptive import ReplicaController, stop_count
from .backends import replica_seed
from .campaign import CampaignConfig
from .results import DesResult

__all__ = [
    "ResultSink",
    "NullSink",
    "OrderedJsonlSink",
    "FramedJsonlSink",
    "WorkerShardSink",
    "make_sink",
    "SINK_MODES",
]

#: The sink modes the executor (and ``campaign --sink``) accepts.
SINK_MODES = ("ordered", "framed")


class ResultSink(ABC):
    """Receives finished cells; owns the results file and its recovery.

    ``ordered`` declares the contract with the executor: an ordered sink
    must be fed cells in grid order (the executor buffers out-of-order
    completions), an unordered one wants them the moment they finish.
    """

    #: Must cells be emitted in grid order?
    ordered: bool = True
    #: The results file (``None`` for :class:`NullSink`).
    path: pathlib.Path | None = None

    @abstractmethod
    def emit(self, plan, records) -> None:
        """Persist one finished cell: ``records`` holds one canonical
        record line (:func:`repro.io.dump_result`) per replica."""

    def begin(self) -> None:
        """Start a fresh campaign: truncate — a campaign owns its file."""
        if self.path is not None:
            self.path.write_text("")

    def recover(
        self,
        config: CampaignConfig,
        plans: list,
        controller: ReplicaController,
        trusted: bool,
    ) -> dict[int, list[DesResult]]:
        """Resume: recover completed cells (by plan index) from the file.

        Truncates the file past the last complete cell so appends continue
        cleanly, and positions the sink's internal state (e.g. the framed
        sequence counter) to match.  Raises :class:`ParameterError` rather
        than touch a file this campaign cannot have written.
        """
        return {}


class NullSink(ResultSink):
    """No persistence; recovery finds nothing.

    Still honours the requested ordering contract so ``sink="framed"``
    without a results path keeps its no-head-of-line-blocking ``on_cell``
    behaviour instead of silently reverting to grid-order buffering.
    """

    def __init__(self, ordered: bool = True):
        self.ordered = ordered

    def emit(self, plan, records) -> None:  # noqa: D102 - interface impl
        pass


def _refuse_unrecognisable(path: pathlib.Path, trusted: bool) -> None:
    """A non-empty file with zero intact records could be *anything* (a
    pointed-at notes file, a results file corrupted from byte 0).  Unless
    our own manifest vouches for it (``trusted`` — e.g. a campaign
    interrupted mid-first-record), refuse rather than wipe it."""
    if not trusted and path.stat().st_size > 0:
        raise ParameterError(
            f"{path}: no intact campaign records found; refusing to "
            "resume over a file this campaign cannot have written "
            "(delete it, or rerun without resume to start over)"
        )


def _check_identity(
    path: pathlib.Path,
    where: str,
    res: DesResult,
    plan,
    config: CampaignConfig,
    replica: int,
) -> None:
    """Refuse any intact record that does not match the campaign grid.

    Applied to *every* record — including a partial trailing cell about to
    be truncated — before the file is touched, so a foreign file is
    refused rather than destroyed and resuming under changed settings
    cannot mix two campaigns.
    """
    meta = res.meta
    expected_seed = replica_seed(config, replica)
    if (meta.get("protocol") != plan.protocol
            or float(meta.get("M", float("nan"))) != plan.M
            or float(meta.get("phi", float("nan"))) != plan.effective_phi
            or meta.get("seed") != expected_seed
            or meta.get("n") != config.base_params.n
            or res.work_target != config.work_target):
        raise ParameterError(
            f"{path}: {where} holds "
            f"({meta.get('protocol')}, M={meta.get('M')}, "
            f"phi={meta.get('phi')}, seed={meta.get('seed')}, "
            f"n={meta.get('n')}, work_target={res.work_target}) but "
            f"the campaign grid expects ({plan.protocol}, M={plan.M}, "
            f"phi={plan.effective_phi}, seed={expected_seed}, "
            f"n={config.base_params.n}, "
            f"work_target={config.work_target}); "
            "refusing to resume a different campaign's file"
        )


class OrderedJsonlSink(ResultSink):
    """Plain result envelopes in strict grid order (the historical format).

    The file is an exact byte prefix of the serial file at all times;
    recovery is positional (record ``i`` belongs to cell ``i //
    replicas``), which requires the fixed-replica controller — the
    executor refuses adaptive control on this sink.
    """

    ordered = True

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)

    def emit(self, plan, records) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in records))

    def recover(self, config, plans, controller, trusted):
        from .. import io as repro_io

        loaded: list[DesResult] = []
        offsets: list[int] = []
        for result, end in repro_io.scan_results(self.path):
            if not isinstance(result, DesResult):
                raise ParameterError(
                    f"{self.path}: cannot resume: found a "
                    f"{type(result).__name__} record where raw DES runs "
                    "were expected"
                )
            loaded.append(result)
            offsets.append(end)

        if not loaded:
            _refuse_unrecognisable(self.path, trusted)

        if len(loaded) > len(plans) * config.replicas:
            raise ParameterError(
                f"{self.path}: holds {len(loaded)} records but the "
                f"campaign grid only produces "
                f"{len(plans) * config.replicas}; refusing to resume a "
                "different campaign's file"
            )
        for pos, res in enumerate(loaded):
            _check_identity(
                self.path, f"record {pos}", res,
                plans[pos // config.replicas], config, pos % config.replicas,
            )

        n_cells = len(loaded) // config.replicas
        done = {
            plans[i].index: loaded[i * config.replicas:(i + 1) * config.replicas]
            for i in range(n_cells)
        }
        keep = offsets[n_cells * config.replicas - 1] if n_cells else 0
        with self.path.open("r+b") as fh:
            fh.truncate(keep)
        return done


class FramedJsonlSink(ResultSink):
    """Framed envelopes in completion order (no head-of-line blocking).

    Each record carries its cell index, replica index and a contiguous
    file-wide sequence number, so the file tolerates any cell completion
    order while recovery can still prove which cells are whole.  One cell
    is one atomic append (all its frames in a single write), so torn
    writes only ever affect the trailing cell group.
    """

    ordered = False

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._seq = 0

    def begin(self) -> None:
        super().begin()
        self._seq = 0

    def emit(self, plan, records) -> None:
        from .. import io as repro_io

        text = "".join(
            repro_io.frame_record(
                line, cell=plan.index, replica=r, seq=self._seq + r
            ) + "\n"
            for r, line in enumerate(records)
        )
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(text)
        self._seq += len(records)

    def recover(self, config, plans, controller, trusted):
        from .. import io as repro_io

        frames: list = []
        ends: list[int] = []
        for frame, end in repro_io.scan_frames(self.path):
            frames.append(frame)
            ends.append(end)

        if not frames:
            _refuse_unrecognisable(self.path, trusted)
            self._seq = 0
            with self.path.open("r+b") as fh:
                fh.truncate(0)
            return {}

        # Frame invariants: the sequence counter is contiguous from 0 and
        # every (cell, replica) pair is in range — an append under this
        # configuration cannot produce anything else, so violations mean a
        # foreign or hand-edited file.
        for pos, frame in enumerate(frames):
            if frame.seq != pos:
                raise ParameterError(
                    f"{self.path}: frame {pos} carries sequence number "
                    f"{frame.seq} (expected {pos}); refusing to resume a "
                    "reordered or foreign frames file"
                )
            if frame.cell >= len(plans):
                raise ParameterError(
                    f"{self.path}: frame {pos} names cell {frame.cell} but "
                    f"the campaign grid only has {len(plans)} cells; "
                    "refusing to resume a different campaign's file"
                )
            if frame.replica >= config.replicas:
                raise ParameterError(
                    f"{self.path}: frame {pos} names replica "
                    f"{frame.replica} but the campaign runs at most "
                    f"{config.replicas}; refusing to resume a different "
                    "campaign's file"
                )
            if not isinstance(frame.result, DesResult):
                raise ParameterError(
                    f"{self.path}: cannot resume: frame {pos} holds a "
                    f"{type(frame.result).__name__} record where raw DES "
                    "runs were expected"
                )
            _check_identity(
                self.path, f"frame {pos}", frame.result,
                plans[frame.cell], config, frame.replica,
            )

        # Group into cell runs: frames of one cell are contiguous (cell
        # appends are atomic) with replicas counting up from 0, and no
        # cell appears twice.
        groups: list[tuple[int, list[DesResult], int]] = []  # (cell, results, start)
        seen: set[int] = set()
        pos = 0
        while pos < len(frames):
            cell = frames[pos].cell
            if cell in seen:
                raise ParameterError(
                    f"{self.path}: frame {pos} reopens cell {cell}, which "
                    "an earlier frame group already wrote; refusing to "
                    "resume a corrupt frames file"
                )
            seen.add(cell)
            start = ends[pos - 1] if pos else 0
            results: list[DesResult] = []
            while pos < len(frames) and frames[pos].cell == cell:
                if frames[pos].replica != len(results):
                    raise ParameterError(
                        f"{self.path}: frame {pos} is replica "
                        f"{frames[pos].replica} of cell {cell} but replica "
                        f"{len(results)} was expected; refusing to resume "
                        "a corrupt frames file"
                    )
                results.append(frames[pos].result)
                pos += 1
            groups.append((cell, results, start))

        # Completeness: replay the replica controller over each group's
        # recorded wastes.  All groups but the last must be complete (an
        # atomic-append file can only tear at the tail); the last may be
        # an interrupted cell, which is dropped and re-run.
        done: dict[int, list[DesResult]] = {}
        keep = ends[-1]
        kept_frames = len(frames)
        for gi, (cell, results, start) in enumerate(groups):
            stops_at = stop_count(controller, [r.waste for r in results])
            if stops_at is not None and stops_at < len(results):
                raise ParameterError(
                    f"{self.path}: cell {cell} holds {len(results)} "
                    f"replicas but the replica controller stops it after "
                    f"{stops_at}; refusing to resume a file written under "
                    "different adaptive settings"
                )
            if stops_at == len(results):
                done[cell] = results
            elif gi == len(groups) - 1:
                keep = start  # interrupted trailing cell: drop and re-run
                kept_frames -= len(results)
            else:
                raise ParameterError(
                    f"{self.path}: cell {cell} is incomplete "
                    f"({len(results)} replicas) but later cells follow "
                    "it; cell appends are atomic, so this file was not "
                    "written by this campaign - refusing to resume"
                )

        with self.path.open("r+b") as fh:
            fh.truncate(keep)
        self._seq = kept_frames
        return done


class WorkerShardSink(FramedJsonlSink):
    """One distributed worker's framed shard (:mod:`repro.sim.distributed`).

    Same record format as :class:`FramedJsonlSink`, but the recovery
    contract is shard-local: which *cells* of the campaign are complete
    is the queue's business (done markers), not the shard's, so
    :meth:`begin` re-opens an existing shard instead of truncating it —
    it drops only a torn trailing write (the crash damage of this
    worker's own previous life) and continues the shard-local sequence.
    Whole-campaign invariants deliberately do not apply: after a restart
    this worker may re-claim the chunk it died holding and append cells
    its shard already holds intact — a benign duplicate that the merge
    step verifies and collapses.
    """

    def begin(self) -> None:
        from .. import io as repro_io

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.touch()
            self._seq = 0
            return
        keep = 0
        count = 0
        for frame, end in repro_io.scan_frames(self.path):
            if frame.seq != count:
                raise ParameterError(
                    f"{self.path}: frame {count} carries sequence number "
                    f"{frame.seq} (expected {count}); this is not a "
                    "worker shard this campaign wrote"
                )
            count += 1
            keep = end
        with self.path.open("r+b") as fh:
            fh.truncate(keep)
        self._seq = count

    def recover(self, config, plans, controller, trusted):
        raise ParameterError(
            "worker shards rejoin via begin(); completed cells are "
            "tracked by the queue's done markers, not by shard scans"
        )


def make_sink(
    mode: str, results_path: str | pathlib.Path | None
) -> ResultSink:
    """Build the sink for ``mode`` (``results_path=None`` ⇒ no-op sink)."""
    if mode not in SINK_MODES:
        raise ParameterError(
            f"unknown sink mode {mode!r}; known: {list(SINK_MODES)}"
        )
    if results_path is None:
        return NullSink(ordered=(mode == "ordered"))
    if mode == "framed":
        return FramedJsonlSink(results_path)
    return OrderedJsonlSink(results_path)
