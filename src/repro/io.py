"""Result persistence: JSON round-trips for simulation outputs.

Long parameter sweeps (hundreds of DES runs) need durable, versioned
results so analyses can be re-run without re-simulating.  This module
serialises the library's result types to a stable JSON envelope::

    {"format": "repro-results", "version": 2,
     "kind": "DesResult", "payload": {...}}

and, for out-of-order campaign sinks, a *framed* variant that wraps the
same payload with the record's provenance — which grid cell produced it,
which replica it is, and a contiguous file-wide sequence number::

    {"format": "repro-frames", "version": 2,
     "cell": 7, "replica": 0, "seq": 21, "payload": {...}}

Frames let records land in any cell order while still supporting exact
resume: :func:`scan_frames` reconstructs per-cell completion from the
framing alone (see :mod:`repro.sim.sinks`).

Guarantees:

* round-trips are lossless for every field, including ``nan``/``inf``
  (encoded as typed sentinels ``{"__float__": "nan"}``, since JSON has no
  literals for them) **and** payload strings that happen to spell
  ``"nan"``/``"inf"``/``"-inf"`` — strings are never reinterpreted;
* a record of any other version is refused by number wherever it sits
  — never guessed at, never silently truncated away;
* batches are streamed as JSON Lines (one envelope per line), so a
  campaign can append results as runs finish;
* the tolerant scanners (:func:`scan_results`, :func:`scan_frames`)
  forgive exactly one kind of damage — a torn *trailing* write — and
  raise, with the byte offset, on structurally invalid records that sit
  mid-file in front of further data (that is corruption, not an
  interrupted append).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import ParameterError
from .sim.results import DesResult, MonteCarloSummary

__all__ = [
    "encode_floats",
    "decode_floats",
    "dump_result",
    "load_result",
    "save_results",
    "load_results",
    "scan_results",
    "to_envelope",
    "from_envelope",
    "ResultFrame",
    "dump_frame",
    "load_frame",
    "scan_frames",
    "scan_campaign_runs",
    "iter_campaign_runs",
]

_FORMAT = "repro-results"
_FRAME_FORMAT = "repro-frames"
#: Written version.  1 spelled non-finite floats as bare strings — which
#: silently swallowed legitimate ``"nan"``/``"inf"``/``"-inf"`` *string*
#: payloads on the way back in; 2 uses typed sentinels instead and is the
#: only version read.
_VERSION = 2
_READ_VERSIONS = frozenset({2})
_KINDS = {"DesResult": DesResult, "MonteCarloSummary": MonteCarloSummary}


#: The three float values JSON cannot spell, by their stable spelling.
_FLOAT_STRINGS = {"nan": float("nan"), "inf": float("inf"),
                  "-inf": float("-inf")}
#: Single-key dicts reserved by the encoding.  ``__float__``
#: carries a non-finite float; ``__dict__`` escapes a *user* dict that
#: happens to look like a marker.
_MARKER_KEYS = frozenset({"__float__", "__dict__"})


def _encode_float(value: Any) -> Any:
    """Encode one scalar; non-finite floats become typed sentinels.

    Strings pass through untouched — nothing ever reinterprets them, so
    ``"nan"`` the string and ``nan`` the float are distinct on disk by
    construction.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
    return value


def _encode_payload(obj: Any) -> Any:
    if isinstance(obj, dict):
        enc = {k: _encode_payload(v) for k, v in obj.items()}
        if len(enc) == 1 and next(iter(enc)) in _MARKER_KEYS:
            # A user dict indistinguishable from a sentinel: escape it so
            # the decoder cannot mistake it for one.
            return {"__dict__": enc}
        return enc
    if isinstance(obj, (list, tuple)):
        return [_encode_payload(v) for v in obj]
    return _encode_float(obj)


def _decode_payload(obj: Any) -> Any:
    """Decode one payload tree: typed sentinels become floats, escaped
    dicts are unwrapped, strings are never touched."""
    if isinstance(obj, dict):
        if len(obj) == 1:
            (key, value), = obj.items()
            if (key == "__float__" and isinstance(value, str)
                    and value in _FLOAT_STRINGS):
                return _FLOAT_STRINGS[value]
            if key == "__dict__" and isinstance(value, dict):
                # Escaped user dict: decode its values, but never
                # re-interpret the dict itself as a sentinel.
                return {k: _decode_payload(v) for k, v in value.items()}
        return {k: _decode_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_payload(v) for v in obj]
    return obj


def encode_floats(obj: Any) -> Any:
    """Make an arbitrary JSON-ish tree safe for strict JSON.

    Non-finite floats become the version-2 typed sentinels
    (``{"__float__": "nan"}``); user dicts that happen to look like a
    sentinel are escaped.  This is the same encoding results envelopes
    use, exposed for other wire formats (metrics snapshots, trace spans)
    that must survive ``json.dumps(..., allow_nan=False)``.
    """
    return _encode_payload(obj)


def decode_floats(obj: Any) -> Any:
    """Inverse of :func:`encode_floats`."""
    return _decode_payload(obj)


class _VersionError(ParameterError):
    """An intact record of a known format in a version this library does
    not read."""


def _check_version(name: str, envelope: dict) -> None:
    version = envelope.get("version")
    if version not in _READ_VERSIONS:
        raise _VersionError(
            f"unsupported {name} version {version!r} "
            f"(this library reads versions {sorted(_READ_VERSIONS)})"
        )


def to_envelope(result: DesResult | MonteCarloSummary) -> dict:
    """Wrap a result in the versioned JSON envelope (as a plain dict)."""
    kind = type(result).__name__
    if kind not in _KINDS:
        raise ParameterError(f"cannot serialise {kind}")
    payload = dict(result.__dict__)
    # Tuples must survive: mark which fields need re-tupling on load.
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": kind,
        "payload": _encode_payload(payload),
    }


def from_envelope(envelope: dict) -> DesResult | MonteCarloSummary:
    """Reconstruct a result object; validates format and version."""
    if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
        raise ParameterError("not a repro-results envelope")
    _check_version("results", envelope)
    kind = envelope.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParameterError(f"unknown result kind {kind!r}")
    payload = _decode_payload(envelope.get("payload", {}))
    if not isinstance(payload, dict):
        raise ParameterError(
            f"corrupt {kind} payload: expected an object, "
            f"got {type(payload).__name__}"
        )
    try:
        if kind == "DesResult":
            payload["fatal_group"] = tuple(payload.get("fatal_group", ()))
        if kind == "MonteCarloSummary":
            payload["success_ci"] = tuple(payload.get("success_ci", (0.0, 1.0)))
        return cls(**payload)
    except TypeError as exc:
        raise ParameterError(f"corrupt {kind} payload: {exc}") from exc


def dump_result(result: DesResult | MonteCarloSummary) -> str:
    """One result as a compact JSON string."""
    return json.dumps(to_envelope(result), sort_keys=True)


def load_result(text: str) -> DesResult | MonteCarloSummary:
    """Inverse of :func:`dump_result`."""
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return from_envelope(envelope)


def save_results(
    results: Iterable[DesResult | MonteCarloSummary],
    path: str | pathlib.Path,
    *,
    append: bool = False,
) -> int:
    """Write results as JSON Lines; returns the number written."""
    path = pathlib.Path(path)
    mode = "a" if append else "w"
    count = 0
    with path.open(mode, encoding="utf-8") as fh:
        for result in results:
            fh.write(dump_result(result) + "\n")
            count += 1
    return count


def _scan_envelopes(
    path: pathlib.Path,
    decode: Callable[[dict], Any],
    expected_format: str | None = None,
) -> Iterator[tuple[Any, int]]:
    """Shared tolerant-prefix scanner behind :func:`scan_results` and
    :func:`scan_frames`.

    ``decode`` turns one parsed JSON object into a record (raising
    :class:`ParameterError` on structural corruption).  Four failure
    modes are distinguished:

    * a line that is not even JSON, or the file's **last** line failing to
      decode — a torn trailing write; the scan ends silently and resume
      re-executes from there;
    * an intact record of the *other* known envelope format (a results
      file scanned as frames or vice versa, named by ``expected_format``)
      — a sink-mode mismatch, reported as such wherever it sits, since a
      torn write can never produce a whole foreign-format record;
    * an intact record of a known format in a version this library does
      not read — refused by version wherever it sits, for the same
      reason: a torn append never ends in a newline, so a whole line is
      a whole record some other writer meant, not damage to truncate;
    * a line that parses as JSON but fails record checks **with further
      data behind it** — mid-file corruption an append can never produce;
      raises with the record's byte offset so the damage can be inspected
      (and is never silently "resumed over").
    """
    offset = 0
    with path.open("rb") as fh:
        for raw in fh:
            end = offset + len(raw)
            if not raw.endswith(b"\n"):
                return  # partial trailing write (interrupted mid-record)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                return
            if line:
                try:
                    envelope = json.loads(line)
                except json.JSONDecodeError:
                    return  # torn/binary garbage: treat as truncation point
                try:
                    record = decode(envelope)
                except ParameterError as exc:
                    fmt = envelope.get("format") \
                        if isinstance(envelope, dict) else None
                    if (expected_format is not None
                            and fmt in (_FORMAT, _FRAME_FORMAT)
                            and fmt != expected_format):
                        raise ParameterError(
                            f"{path}: holds {fmt!r} records where "
                            f"{expected_format!r} records were expected; "
                            "was this file written with the other sink "
                            "mode?"
                        ) from exc
                    if isinstance(exc, _VersionError):
                        raise ParameterError(
                            f"{path}: record at byte offset {offset}: "
                            f"{exc}; refusing to scan past it"
                        ) from exc
                    if fh.read(1):
                        raise ParameterError(
                            f"{path}: corrupt record at byte offset "
                            f"{offset} with intact data after it ({exc}); "
                            "this is mid-file damage, not an interrupted "
                            "append - refusing to scan past it"
                        ) from exc
                    return  # torn trailing record: normal truncation point
                yield record, end
            offset = end


def scan_results(
    path: str | pathlib.Path,
) -> Iterator[tuple[DesResult | MonteCarloSummary, int]]:
    """Tolerantly stream the valid prefix of a JSON Lines results file.

    Yields ``(result, end_offset)`` pairs, where ``end_offset`` is the byte
    offset just past the record's newline — i.e. the length the file can be
    truncated to while keeping every record seen so far.  Scanning stops
    (without raising) at a torn *trailing* write: a non-JSON line, or a
    final line that parses but fails record checks — exactly the recovery
    behaviour an interrupted campaign needs (:mod:`repro.sim.sinks`
    resumes from the last intact record).  A JSON-parseable record that
    fails those checks *mid-file* — with intact data after it — raises
    instead, surfacing the byte offset: appends cannot produce that shape,
    so it is corruption that must not be silently truncated away.

    Contrast :func:`load_results`, which treats any bad line as an error.
    """
    yield from _scan_envelopes(
        pathlib.Path(path), from_envelope, expected_format=_FORMAT
    )


def load_results(path: str | pathlib.Path) -> Iterator[DesResult | MonteCarloSummary]:
    """Stream results back from a JSON Lines file."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield load_result(line)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from exc


# ----------------------------------------------------------------------
# Framed records (out-of-order campaign sinks)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResultFrame:
    """One framed record: a result plus its campaign provenance.

    ``cell`` is the grid-cell index in the campaign's deterministic plan
    order, ``replica`` the replica index within that cell, and ``seq`` the
    file-wide write sequence (0, 1, 2, ... with no gaps) — the invariant a
    resume scan checks to tell "interrupted append" from "foreign file".
    """

    cell: int
    replica: int
    seq: int
    result: DesResult | MonteCarloSummary


def frame_envelope(
    result: DesResult | MonteCarloSummary, *, cell: int, replica: int, seq: int
) -> dict:
    """Wrap a result in the framed envelope (as a plain dict)."""
    for name, value in (("cell", cell), ("replica", replica), ("seq", seq)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParameterError(
                f"frame {name} must be a non-negative integer, got {value!r}"
            )
    return {
        "format": _FRAME_FORMAT,
        "version": _VERSION,
        "cell": cell,
        "replica": replica,
        "seq": seq,
        "payload": to_envelope(result),
    }


def frame_from_envelope(envelope: dict) -> ResultFrame:
    """Reconstruct a :class:`ResultFrame`; validates format and framing."""
    if not isinstance(envelope, dict) or envelope.get("format") != _FRAME_FORMAT:
        raise ParameterError("not a repro-frames envelope")
    _check_version("frames", envelope)
    fields = {}
    for name in ("cell", "replica", "seq"):
        value = envelope.get(name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParameterError(
                f"corrupt frame: {name} must be a non-negative integer, "
                f"got {value!r}"
            )
        fields[name] = value
    return ResultFrame(result=from_envelope(envelope.get("payload")), **fields)


def dump_frame(
    result: DesResult | MonteCarloSummary, *, cell: int, replica: int, seq: int
) -> str:
    """One framed result as a compact JSON string."""
    return json.dumps(
        frame_envelope(result, cell=cell, replica=replica, seq=seq),
        sort_keys=True,
    )


def load_frame(text: str) -> ResultFrame:
    """Inverse of :func:`dump_frame`."""
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return frame_from_envelope(envelope)


def scan_frames(
    path: str | pathlib.Path,
) -> Iterator[tuple[ResultFrame, int]]:
    """Tolerantly stream the valid prefix of a framed JSON Lines file.

    The framed twin of :func:`scan_results`: yields ``(frame,
    end_offset)`` pairs, ends silently at a torn trailing write, and
    raises (with the byte offset) on mid-file corruption or a sink-mode
    mismatch.
    """
    yield from _scan_envelopes(
        pathlib.Path(path), frame_from_envelope,
        expected_format=_FRAME_FORMAT,
    )


def _campaign_entry(envelope: Any) -> tuple[int | None, DesResult | MonteCarloSummary]:
    """Decode either campaign record shape into ``(cell_index, result)``.

    ``cell_index`` is the frame's grid-cell index, or ``None`` for plain
    (ordered-sink) records, whose file position *is* grid order.
    """
    if isinstance(envelope, dict) and envelope.get("format") == _FRAME_FORMAT:
        frame = frame_from_envelope(envelope)
        return frame.cell, frame.result
    return None, from_envelope(envelope)


def scan_campaign_runs(
    path: str | pathlib.Path,
) -> Iterator[tuple[int | None, DesResult]]:
    """Stream ``(cell_index, run)`` pairs out of a campaign results file.

    Accepts both sink formats — plain result envelopes (the ordered sink,
    ``cell_index=None``) and framed envelopes (the out-of-order sink) —
    deciding per line, so offline analyses (``repro-checkpoint report
    --from-campaign``) never need to know how a campaign was executed.
    Tolerant like the resume scanners: a torn *trailing* write ends the
    stream silently (an interrupted campaign's file is analysable as-is),
    while mid-file corruption raises.  Any *intact* record that is not a
    :class:`DesResult` raises wherever it sits: a campaign sink only ever
    holds raw runs, so anything else means the wrong file was pointed at.
    """
    path = pathlib.Path(path)
    for (cell, result), _ in _scan_envelopes(path, _campaign_entry):
        if not isinstance(result, DesResult):
            raise ParameterError(
                f"{path}: expected raw DES runs but found a "
                f"{type(result).__name__} record; this is not a campaign "
                "results file"
            )
        yield cell, result


def iter_campaign_runs(path: str | pathlib.Path) -> Iterator[DesResult]:
    """The raw DES runs of a campaign file (:func:`scan_campaign_runs`
    without the cell indices)."""
    for _, run in scan_campaign_runs(path):
        yield run
