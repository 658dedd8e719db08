"""Result persistence: JSON round-trips for simulation outputs.

Long parameter sweeps (hundreds of DES runs) need durable, versioned
results so analyses can be re-run without re-simulating.  This module
serialises the library's result types to a stable JSON envelope::

    {"format": "repro-results", "version": 2,
     "kind": "DesResult", "payload": {...}}

One result's canonical *record text* is its :func:`dump_result` line
(keys sorted, non-finite floats as typed sentinels).  That line is
produced once per replica and is the text every writer uses: the
campaign sinks append it, the results store digests and files it, and a
store hit hands back the stored line it just verified.

The record codec has one reference and one fast path.  The reference
is the generic walker: :func:`to_envelope` / :func:`from_envelope` over
any payload tree, serialised with ``json.dumps(..., sort_keys=True)``.
The fast path serves the records the engines write — a
:class:`~repro.sim.results.DesResult` whose fields are exact
``int``/``float``/``str`` values, whose ``fatal_group`` is a tuple of
ints and whose ``meta`` holds only the engine-written keys: encoding
fills one fixed template in ``sort_keys`` order, decoding extracts the
fields directly under strict shape checks.  Anything else (bools, numpy
scalars, user or marker-like ``meta``, summaries) takes the walker, and
both paths spell and accept exactly the same lines.  A whole campaign
cell held as columns (:class:`~repro.sim.results.CellBlock`) is encoded
by :func:`dump_cell` through the same template, its cell-constant text
formatted once per cell, to the same lines; :func:`load_cell` checks
and reads such lines back as one block, as a store hit does.

For out-of-order campaign sinks, a *framed* variant wraps the same
record with its provenance — which grid cell produced it, which replica
it is, and a contiguous file-wide sequence number::

    {"cell": 7, "format": "repro-frames", "payload": {...},
     "replica": 0, "seq": 21, "version": 2}

A frame is one fixed template around a record line
(:func:`frame_record`); :func:`dump_frame` is that template over
:func:`dump_result`, so there is one spelling of a frame.  Frames let
records land in any cell order while still supporting exact resume:
:func:`scan_frames` reconstructs per-cell completion from the framing
alone (see :mod:`repro.sim.sinks`).

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

import dataclasses
import json
import json.encoder
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import ParameterError
from .sim.results import ROW_FIELDS, CellBlock, DesResult, MonteCarloSummary

__all__ = [
    "encode_floats",
    "decode_floats",
    "dump_result",
    "dump_cell",
    "load_cell",
    "load_result",
    "save_results",
    "load_results",
    "scan_results",
    "to_envelope",
    "from_envelope",
    "ResultFrame",
    "frame_record",
    "frame_cell",
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
    # A number test first: an unhashable (corrupt) value must be refused,
    # not raise TypeError out of the set lookup.
    if not (isinstance(version, (int, float))
            and version in _READ_VERSIONS):
        raise _VersionError(
            f"unsupported {name} version {version!r} "
            f"(this library reads versions {sorted(_READ_VERSIONS)})"
        )


#: :class:`DesResult`'s fields in ``sort_keys`` order (the order every
#: record line spells them in), the numeric ones among them, and the
#: ``meta`` keys the engines write.
_DES_FIELDS = tuple(sorted(f.name for f in dataclasses.fields(DesResult)))
_DES_FIELDSET = frozenset(_DES_FIELDS)
_DES_NUMBERS = tuple(name for name in _DES_FIELDS
                     if name not in ("fatal_group", "meta", "status"))
_DES_META_KEYS = frozenset(
    ("protocol", "period", "phi", "seed", "n", "M", "engine"))
#: The fields the engines write as exact ints (a store refuses others).
COUNT_FIELDS = ("commits", "failures", "rollbacks")
#: The JSON types a fast-path ``meta`` value may decode to.
_META_TYPES = frozenset((str, int, float))
_NUMBER_TYPES = frozenset((int, float))
#: The record line of a :class:`DesResult` — ``json.dumps`` of its
#: envelope with ``sort_keys`` and the default separators — as one
#: template with a ``%s`` slot per field, in :data:`_DES_FIELDS` order.
_DES_TEMPLATE = (
    '{"format": ' + json.dumps(_FORMAT) + ', "kind": "DesResult", '
    '"payload": {' + ", ".join(f"{json.dumps(name)}: %s"
                               for name in _DES_FIELDS)
    + '}, "version": ' + str(_VERSION) + "}"
)
#: Each engine-written meta key's ``"key": `` prefix, in sorted order
#: (``seed`` sorts last).
_DES_META_PREFIXES = tuple((key, json.dumps(key) + ": ")
                           for key in sorted(_DES_META_KEYS))
#: The JSON text of each non-finite float's typed sentinel, by the
#: float's ``repr``.
_SENTINEL_TEXT = {name: json.dumps({"__float__": name})
                  for name in _FLOAT_STRINGS}
_escape = json.encoder.encode_basestring_ascii


def _number_texts(values) -> list[str] | None:
    """The JSON texts of a column of numbers: ``repr`` of an exact
    ``int`` or finite ``float`` is what ``json`` writes for it, and a
    non-finite float becomes its typed sentinel.  ``None`` when any
    value is another type (a bool, a numpy scalar...)."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        return None
    texts = list(map(repr, values))
    if _SENTINEL_TEXT.keys().isdisjoint(texts):
        return texts
    return [_SENTINEL_TEXT.get(text, text) for text in texts]


def _meta_text(value) -> str | None:
    """A fast-path ``meta`` value's JSON text (a ``str``, an exact
    ``int`` or a finite ``float``), else ``None``."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int or (kind is float and value - value == 0.0):
        return repr(value)
    return None


def _column_texts(name: str, values) -> list[str] | None:
    """The JSON texts of one per-replica column, or ``None`` when a
    value falls outside the template's shape."""
    if name == "status":
        if not {str}.issuperset(map(type, values)):
            return None
        return list(map(_escape, values))
    if name == "fatal_group":
        if not ({tuple}.issuperset(map(type, values)) and {int}.issuperset(
                type(member) for group in values for member in group)):
            return None
        return ["[" + ", ".join(map(repr, group)) + "]" for group in values]
    if name == "seed":
        if {int}.issuperset(map(type, values)):
            return list(map(repr, values))
        texts = list(map(_meta_text, values))
        return None if None in texts else texts
    return _number_texts(values)


def _meta_parts(meta) -> list[str] | None:
    """The ``"key": value`` texts of a fast-path ``meta`` dict, in
    sorted order; ``None`` when it is not one."""
    if type(meta) is not dict or not meta.keys() <= _DES_META_KEYS:
        return None
    parts = []
    for key, prefix in _DES_META_PREFIXES:
        if key in meta:
            text = _meta_text(meta[key])
            if text is None:
                return None
            parts.append(prefix + text)
    return parts


def _encode_cell(meta, work_target, columns: dict) -> list[str] | None:
    """Every replica's record line from one cell's columns.

    The cell-constant text — ``meta`` but the seed, and
    ``work_target`` — is formatted once into a per-cell copy of
    :data:`_DES_TEMPLATE`, leaving a ``%s`` slot per per-replica field
    (the seed's inside ``meta``); each line is then one ``%``.
    ``None`` when a value falls outside the template's exact shape
    (user ``meta``, bools, numpy scalars...); the generic walker then
    encodes the rows.
    """
    parts = _meta_parts(meta)
    target = _number_texts((work_target,))
    if parts is None or target is None or "seed" in meta and "seed" in columns:
        return None
    parts = [part.replace("%", "%%") for part in parts]
    if "seed" in columns:
        parts.append('"seed": %s')
    slots, texts = [], []
    for name in _DES_FIELDS:
        if name == "work_target":
            slots.append(target[0])
            continue
        if name == "meta":
            slots.append("{" + ", ".join(parts) + "}")
            if "seed" not in columns:
                continue
            name = "seed"
        else:
            slots.append("%s")
        column = _column_texts(name, columns[name])
        if column is None:
            return None
        texts.append(column)
    template = _DES_TEMPLATE % tuple(slots)
    return [template % row for row in zip(*texts)]


def dump_cell(block) -> tuple[str, ...]:
    """Every replica's record line of a :class:`~repro.sim.results.
    CellBlock`, byte-identical to :func:`dump_result` per row: one
    per-cell template (:func:`_encode_cell`) over the block's columns,
    or each row alone when the block has no columnar shape."""
    lines = None if block.columns is None else _encode_cell(
        block.meta, block.work_target, block.columns)
    if lines is None:
        return tuple(dump_result(row) for row in block.rows)
    return tuple(lines)


def _dump_des_result(result: DesResult) -> str | None:
    """The fast path of :func:`dump_result`: the one-row case of
    :func:`_encode_cell` — the same template and value texts, filled in
    one ``%`` (a per-record copy of the template would cost more than
    it saves) — byte-identical to the generic walker.  ``None`` when a
    value falls outside the template's exact shape; the generic walker
    then encodes the result."""
    fields = result.__dict__
    if fields.keys() != _DES_FIELDSET:
        return None
    parts = _meta_parts(fields["meta"])
    group = fields["fatal_group"]
    if (parts is None or type(fields["status"]) is not str
            or type(group) is not tuple
            or any(type(member) is not int for member in group)):
        return None
    texts = []
    for name in _DES_FIELDS:
        value = fields[name]
        kind = type(value)
        if kind is float:
            text = repr(value)
            texts.append(_SENTINEL_TEXT.get(text, text))
        elif kind is int:
            texts.append(repr(value))
        elif name == "meta":
            texts.append("{" + ", ".join(parts) + "}")
        elif name == "fatal_group":
            texts.append("[" + ", ".join(map(repr, group)) + "]")
        elif name == "status":
            texts.append(_escape(value))
        else:
            return None
    return _DES_TEMPLATE % tuple(texts)


def _des_fields(payload: Any) -> dict | None:
    """A ``DesResult`` payload's field values under the fast path's
    strict shape checks (sentinels become :data:`_FLOAT_STRINGS`
    floats), or ``None`` when it is not exactly the shape
    :func:`_dump_des_result` writes.  The one copy of those rules, for
    :func:`_load_des_result` and :func:`load_cell`."""
    if type(payload) is not dict or payload.keys() != _DES_FIELDSET:
        return None
    fields = payload.copy()
    meta, group = fields["meta"], fields["fatal_group"]
    if (type(fields["status"]) is not str or type(meta) is not dict
            or not meta.keys() <= _DES_META_KEYS
            or not _META_TYPES.issuperset(map(type, meta.values()))
            or type(group) is not list
            or not {int}.issuperset(map(type, group))):
        return None
    fields["meta"], fields["fatal_group"] = meta.copy(), tuple(group)
    for name in _DES_NUMBERS:
        value = fields[name]
        if type(value) not in _NUMBER_TYPES:
            # A typed sentinel: {"__float__": "nan" | "inf" | "-inf"}.
            if type(value) is not dict or len(value) != 1:
                return None
            value = value.get("__float__")
            if type(value) is not str or value not in _FLOAT_STRINGS:
                return None
            fields[name] = _FLOAT_STRINGS[value]
    return fields


def _load_des_result(payload: Any) -> DesResult | None:
    """The fast path of :func:`from_envelope` for a ``DesResult``
    payload (:func:`_des_fields`); ``None`` leaves it to the generic
    walker, which also refuses what is corrupt."""
    fields = _des_fields(payload)
    return None if fields is None else DesResult(**fields)


def load_cell(lines) -> CellBlock | None:
    """The inverse of :func:`dump_cell`: one cell's record lines as a
    columnar :class:`~repro.sim.results.CellBlock` carrying them, from
    one batched ``json.loads`` and one cell-template re-encode
    (:func:`_encode_cell`) that must give back every line.  The
    template fixes the envelope, key order and separators, so that
    proves each line loads to its row and dumps back to itself: the
    check :func:`load_result` then :func:`dump_result` makes.  ``None``
    when the lines are not that shape (a row without a seed, a count not
    an int, ``meta`` or ``work_target`` differing between rows, any
    error) leaves the verdict, and its wording, to that per-line check."""
    # The seed key is in every template line (quotes inside strings are
    # escaped): a cheap refusal before the decode.
    if not lines or not all('"seed": ' in line for line in lines):
        return None
    try:
        envelopes = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        return None
    if len(envelopes) != len(lines):
        return None
    rows = []
    for envelope in envelopes:
        fields = _des_fields(envelope.get("payload")) \
            if type(envelope) is dict else None
        if fields is None or "seed" not in fields["meta"]:
            return None
        fields["seed"] = fields["meta"].pop("seed")
        rows.append(fields)
    # The template spells row 0's meta and work target on every line,
    # so the lines are given back only if every row shares them.
    meta, work_target = rows[0]["meta"], rows[0]["work_target"]
    columns = {name: [row[name] for row in rows] for name in ROW_FIELDS}
    if not all({int}.issuperset(map(type, columns[name]))
               for name in COUNT_FIELDS) \
            or _encode_cell(meta, work_target, columns) != list(lines):
        return None
    return CellBlock(meta, work_target, columns, records=tuple(lines))


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
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParameterError(f"unknown result kind {kind!r}")
    if kind == "DesResult":
        result = _load_des_result(envelope.get("payload"))
        if result is not None:
            return result
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
    """One result as a compact JSON string: its record line.

    A :class:`DesResult` of the engines' exact shape takes the template
    fast path (:func:`_dump_des_result`); anything else — and the
    reference the fast path is tested against — is
    ``json.dumps(to_envelope(result), sort_keys=True)``.
    """
    if type(result) is DesResult:
        line = _dump_des_result(result)
        if line is not None:
            return line
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


def _check_framing(cell, replica, seq) -> None:
    for name, value in (("cell", cell), ("replica", replica), ("seq", seq)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParameterError(
                f"frame {name} must be a non-negative integer, got {value!r}"
            )


def frame_envelope(
    result: DesResult | MonteCarloSummary, *, cell: int, replica: int, seq: int
) -> dict:
    """Wrap a result in the framed envelope (as a plain dict)."""
    _check_framing(cell, replica, seq)
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


#: ``json.dumps(frame_envelope(...), sort_keys=True)`` with the record
#: line spliced in as the payload: the keys in sorted order, the
#: default separators.
_FRAME_TEMPLATE = (
    '{"cell": %d, "format": ' + json.dumps(_FRAME_FORMAT)
    + ', "payload": %s, "replica": %d, "seq": %d, "version": '
    + str(_VERSION) + "}"
)


def frame_record(record: str, *, cell: int, replica: int, seq: int) -> str:
    """Frame one record line (a :func:`dump_result` string).

    Byte-identical to serialising :func:`frame_envelope` of the record's
    result, without decoding or re-encoding the record.
    """
    _check_framing(cell, replica, seq)
    return _FRAME_TEMPLATE % (cell, record, replica, seq)


def frame_cell(records, *, cell: int, seq: int) -> str:
    """One cell's frames as file text: replica ``r`` of ``records``
    framed by :func:`frame_record` with sequence number ``seq + r``,
    each line newline-terminated.  The framing is checked once."""
    _check_framing(cell, 0, seq)
    return "".join(_FRAME_TEMPLATE % (cell, record, replica, seq + replica)
                   + "\n" for replica, record in enumerate(records))


def dump_frame(
    result: DesResult | MonteCarloSummary, *, cell: int, replica: int, seq: int
) -> str:
    """One framed result as a compact JSON string."""
    return frame_record(dump_result(result), cell=cell, replica=replica,
                        seq=seq)


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
