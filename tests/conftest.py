"""Shared fixtures: paper scenarios at reference MTBFs, protocol sets."""

from __future__ import annotations

import errno
import json
import pathlib

import pytest

from repro import (
    DOUBLE_BLOCKING,
    DOUBLE_BOF,
    DOUBLE_NBL,
    TRIPLE,
    TRIPLE_BOF,
    Parameters,
    scenarios,
)

#: All five buddy protocol specs.
ALL_PROTOCOLS = (DOUBLE_BLOCKING, DOUBLE_NBL, DOUBLE_BOF, TRIPLE, TRIPLE_BOF)

#: The three protocols the paper's figures evaluate.
FIGURE_PROTOCOLS = (DOUBLE_BOF, DOUBLE_NBL, TRIPLE)


@pytest.fixture
def base_7h() -> Parameters:
    """Base scenario at the Fig. 5 reference MTBF (7 hours)."""
    return scenarios.BASE.parameters(M="7h")


@pytest.fixture
def exa_7h() -> Parameters:
    """Exa scenario at the Fig. 8 reference MTBF (7 hours)."""
    return scenarios.EXA.parameters(M="7h")


@pytest.fixture
def base_1min() -> Parameters:
    """Base scenario in the high-failure regime used by the risk figures."""
    return scenarios.BASE.parameters(M="1min")


@pytest.fixture(params=ALL_PROTOCOLS, ids=lambda s: s.key)
def any_protocol(request):
    """Parametrised over every buddy protocol spec."""
    return request.param


@pytest.fixture(params=FIGURE_PROTOCOLS, ids=lambda s: s.key)
def figure_protocol(request):
    """Parametrised over the three protocols evaluated in §VI."""
    return request.param


@pytest.fixture
def full_disk(monkeypatch):
    """Make every temp file (``*.tmp-*``) written through
    :meth:`pathlib.Path.open` raise ENOSPC on its second ``write``, as a
    disk that fills up part-way through a file would."""
    real_open = pathlib.Path.open

    class FullFile:
        def __init__(self, fh):
            self._fh = fh
            self._writes = 0

        def write(self, text):
            if self._writes:
                raise OSError(errno.ENOSPC, "No space left on device")
            self._writes += 1
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return FullFile(fh) if ".tmp-" in self.name and "w" in mode else fh

    monkeypatch.setattr(pathlib.Path, "open", open_)


def store_rows(store_dir) -> dict:
    """Every committed index row of a results store by hash, as
    ``(data file, row)`` — where each entry's bytes live."""
    from repro.store.segments import load_segments

    return {hash_: (segment.data_path, row)
            for segment in load_segments(pathlib.Path(store_dir) / "segments")
            for hash_, row in segment.entries.items()}


def read_entry(store_dir, hash_: str) -> bytes:
    """The stored bytes of one entry, as its index row points at them."""
    path, row = store_rows(store_dir)[hash_]
    with path.open("rb") as fh:
        fh.seek(row.offset)
        return fh.read(row.length)


def _edit_rows(store_dir, edit) -> None:
    """Apply ``edit(row)`` to every index row of every segment (a row
    is the list the ``.idx`` file stores) and rewrite the indexes."""
    for idx in (pathlib.Path(store_dir) / "segments").glob("*.idx"):
        index = json.loads(idx.read_text())
        for row in index["entries"]:
            edit(row)
        idx.write_text(json.dumps(index, sort_keys=True) + "\n")


def rewrite_entry(store_dir, hash_: str, data: bytes) -> None:
    """Replace one entry's stored bytes with ``data``: appended to its
    segment's data file, its index row pointed at them."""
    path, _ = store_rows(store_dir)[hash_]
    offset = path.stat().st_size
    with path.open("ab") as fh:
        fh.write(data)

    def edit(row):
        if row[0] == hash_:
            row[1:3] = [offset, len(data)]

    _edit_rows(store_dir, edit)


def stamp_entries(store_dir, mtime: float, hashes=None) -> None:
    """Set the publish stamp of the index rows of ``hashes`` (every row
    when ``None``): the age ``gc`` judges an entry by."""
    def edit(row):
        if hashes is None or row[0] in hashes:
            row[3] = float(mtime)

    _edit_rows(store_dir, edit)
