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
  template around each record line, one cell per
  :func:`repro.io.frame_cell`) appended the moment a cell
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

Writes are cell-atomic — one ``write`` of the cell's joined text to the
handle kept open from the first append to :meth:`ResultSink.close`,
then a ``flush`` — so an interrupted campaign tears at most the
trailing cell, which is exactly the damage ``recover`` knows how to
undo.

Every framed path (resume, shard rejoin, queue merge, store export)
reads through :func:`frame_groups` — contiguous per-cell groups, the
sequence and replica-order invariants checked once — and writes whole
files through :func:`write_framed` (temp file + rename, then the
manifest); :func:`manifest_path` and :func:`write_manifest`
(write-then-rename) own the ``.manifest`` sidecar.
"""

from __future__ import annotations

import json
import os
import pathlib
from abc import ABC, abstractmethod
from typing import Iterable, Iterator

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
    "frame_groups",
    "write_framed",
    "manifest_path",
    "write_manifest",
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
    #: The results file's append handle (first append to close).
    _fh = None

    @abstractmethod
    def emit(self, plan, records) -> None:
        """Persist one finished cell: ``records`` holds one canonical
        record line (:func:`repro.io.dump_result`) per replica."""

    def _append(self, text: str) -> None:
        """Append one cell's text: one ``write``, then a ``flush``."""
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(text)
        self._fh.flush()

    def close(self) -> None:
        """Close the results file's handle (the campaign ended)."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

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
            "refusing to resume or merge a different campaign's file"
        )


def _complete(where, cell: int, results, controller) -> bool:
    """Does the replica controller stop a recovered cell exactly at its
    last replica?  ``False`` marks an incomplete cell (the rule would run
    more); a cell holding more replicas than the rule runs is refused:
    it was written under different adaptive settings."""
    stops_at = stop_count(controller, [r.waste for r in results])
    if stops_at is not None and stops_at < len(results):
        raise ParameterError(
            f"{where}: cell {cell} holds {len(results)} replicas but the "
            f"replica controller stops it after {stops_at}; it was "
            "written under different adaptive settings"
        )
    return stops_at is not None


def _check_cell(
    path: pathlib.Path,
    cell: int,
    results: list,
    plans: list,
    config: CampaignConfig,
) -> None:
    """Range, type and identity checks for one frame group of ``cell``
    (a violation means a foreign or hand-edited file or shard)."""
    if cell >= len(plans):
        raise ParameterError(
            f"{path}: a frame names cell {cell} but the campaign grid "
            f"only has {len(plans)} cells; refusing to resume or merge a "
            "different campaign's file"
        )
    if len(results) > config.replicas:
        raise ParameterError(
            f"{path}: cell {cell} holds replica {len(results) - 1} but "
            f"the campaign runs at most {config.replicas}; refusing to "
            "resume or merge a different campaign's file"
        )
    for replica, res in enumerate(results):
        if not isinstance(res, DesResult):
            raise ParameterError(
                f"{path}: cell {cell} replica {replica} holds a "
                f"{type(res).__name__} record where raw DES runs were "
                "expected"
            )
        _check_identity(path, f"cell {cell} replica {replica}", res,
                        plans[cell], config, replica)


def frame_groups(
    path: str | pathlib.Path,
) -> Iterator[tuple[int, list, int, int]]:
    """The intact frames of a framed file as contiguous per-cell groups.

    Yields ``(cell, results, start, end)``, the byte offsets bounding the
    group.  A group ends when the cell changes or the replica index goes
    back to 0 (a restarted worker re-running a cell).  Sequence numbers
    must run 0, 1, 2, … and replicas count up from 0 in each group, or
    the file is refused; a torn trailing write ends the scan silently.
    """
    from .. import io as repro_io

    cell, results, start, end = -1, [], 0, 0
    for pos, (frame, frame_end) in enumerate(repro_io.scan_frames(path)):
        if frame.seq != pos:
            raise ParameterError(
                f"{path}: frame {pos} carries sequence number "
                f"{frame.seq} (expected {pos}); refusing to resume or "
                "merge a reordered or foreign frames file"
            )
        if frame.cell != cell or frame.replica == 0:
            if results:
                yield cell, results, start, end
            cell, results, start = frame.cell, [], end
        if frame.replica != len(results):
            raise ParameterError(
                f"{path}: frame {pos} is replica {frame.replica} of cell "
                f"{cell} but replica {len(results)} was expected; "
                "refusing to resume or merge a corrupt frames file"
            )
        results.append(frame.result)
        end = frame_end
    if results:
        yield cell, results, start, end


def manifest_path(results: str | pathlib.Path) -> pathlib.Path:
    """The ``.manifest`` sidecar of a results file."""
    results = pathlib.Path(results)
    return results.with_name(results.name + ".manifest")


def write_manifest(results: str | pathlib.Path, fingerprint: dict) -> None:
    """Write a results file's manifest (the spec fingerprint) by
    write-then-rename, so a reader never sees a torn one."""
    from .distributed import _atomic_write

    _atomic_write(manifest_path(results),
                  json.dumps(fingerprint, sort_keys=True) + "\n")


def write_framed(
    out_path: str | pathlib.Path,
    fingerprint: dict,
    cells: Iterable[tuple[int, list[str]]],
) -> int:
    """Write a whole framed results file, then its manifest; returns
    the frame count.

    ``cells`` yields ``(cell_index, record_lines)`` in grid order — the
    bytes a single-machine ``sink="framed"`` run of those cells writes.
    The temp file replaces ``out_path`` only once complete; on a failed
    write (a full disk, say) it is removed and any previous output and
    manifest are left as they were.
    """
    from .. import io as repro_io

    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_name(out_path.name + f".tmp-{os.getpid()}")
    seq = 0
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for cell, records in cells:
                fh.write(repro_io.frame_cell(records, cell=cell, seq=seq))
                seq += len(records)
        os.replace(tmp, out_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    write_manifest(out_path, fingerprint)
    return seq


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
        self._append("".join(line + "\n" for line in records))

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

        self._append(repro_io.frame_cell(records, cell=plan.index,
                                         seq=self._seq))
        self._seq += len(records)

    def recover(self, config, plans, controller, trusted):
        groups = list(frame_groups(self.path))
        if not groups:
            _refuse_unrecognisable(self.path, trusted)

        # Every record must match the grid.  Cell appends are atomic, so
        # a cell is one group, and replaying the replica controller over
        # each group's wastes must find all groups but the last complete;
        # the last may be an interrupted cell, which is dropped and re-run.
        done: dict[int, list[DesResult]] = {}
        keep = self._seq = 0
        for gi, (cell, results, _, end) in enumerate(groups):
            _check_cell(self.path, cell, results, plans, config)
            if cell in done:
                raise ParameterError(
                    f"{self.path}: cell {cell} is reopened by a later "
                    "frame group; refusing to resume a corrupt frames file"
                )
            if _complete(self.path, cell, results, controller):
                done[cell] = results
                keep = end
                self._seq += len(results)
            elif gi < len(groups) - 1:
                raise ParameterError(
                    f"{self.path}: cell {cell} is incomplete "
                    f"({len(results)} replicas) but later cells follow "
                    "it; cell appends are atomic, so this file was not "
                    "written by this campaign - refusing to resume"
                )

        with self.path.open("r+b") as fh:
            fh.truncate(keep)
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()
        keep = self._seq = 0
        for _, results, _, end in frame_groups(self.path):
            keep = end
            self._seq += len(results)
        with self.path.open("r+b") as fh:
            fh.truncate(keep)

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
