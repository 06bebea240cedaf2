"""Per-cell column tables and their CSV form.

A table holds one read-only array per field, one entry per cell, and is
worked on column by column.  A slice or an int array of positions picks a
table of those cells; iterating gives plain rows, which only the benchmark
reads.  ``write_cell_csv`` formats a table's CSV a block of rows at a time,
into the same bytes as a row at a time.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import CellKey, cell_bits

# Rows formatted per write in ``write_cell_csv``.
_WRITE_BLOCK = 1 << 12


class CellTable:
    """Base of the frozen-dataclass tables.  ``_columns`` maps each array
    field, in CSV order, to the numpy dtype of one cell's entry (such as
    ``"(2,)f8"`` for two floats).  Ids are strictly ascending unless a
    subclass sets ``_ascending`` False."""

    _columns: dict[str, str] = {}
    _ascending = True

    def __post_init__(self) -> None:
        for name, spec in self._columns.items():
            dtype = np.dtype(spec)
            col = np.asarray(getattr(self, name), dtype=dtype.base).view()
            if col.shape != (len(self.cell_id), *dtype.shape):
                raise ValueError(f"column {name} has the wrong shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self._ascending and (np.diff(self.cell_id) <= 0).any():
            raise ValueError("cell ids must be strictly ascending")

    def __len__(self) -> int:
        return len(self.cell_id)

    def __getitem__(self, index: slice | np.ndarray):
        """The table of the cells a slice or an int array picks."""
        if not isinstance(index, (slice, np.ndarray)):
            raise TypeError(f"tables take a slice or an int array, not {type(index).__name__}")
        return dataclasses.replace(
            self, **{name: getattr(self, name)[index] for name in self._columns}
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self)
        )

    def __iter__(self) -> Iterator[SimpleNamespace]:
        """One plain row per cell, whose fields are the ``_columns`` names
        holding Python values (a list for a multi-value entry); in a table
        with an ``n_observed`` width, ``cell_id`` becomes ``cell``, a
        ``CellKey``.  Only ``benchmarks/`` reads rows, until ROADMAP item 4
        moves it to columns."""
        names = list(self._columns)
        cols = [getattr(self, name).tolist() for name in names[1:]]
        if hasattr(self, "n_observed"):
            names[0] = "cell"
            ids = map(CellKey, map(tuple, cell_bits(self.cell_id, self.n_observed).tolist()))
        else:
            ids = self.cell_id.tolist()
        return (SimpleNamespace(**dict(zip(names, row))) for row in zip(ids, *cols))


def read_cell_csv(path: str | Path, header: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cell ids (int64) and the other columns (float64) of a table CSV, in
    file order.  Raises ValueError, naming the file, for a byte that is not
    ASCII, another header, a short, long or non-numeric row, an id that is
    not an integer, a non-finite value, or a negative or repeated id."""
    try:
        with open(path, encoding="ascii") as fh:
            found = fh.readline().rstrip("\r\n").split(",")
            if found != header:
                raise ValueError(f"unexpected header {found}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no rows
                data = np.loadtxt(
                    fh, delimiter=",", comments=None, ndmin=1,
                    dtype=[("id", "i8"), ("values", "f8", (len(header) - 1,))],
                )
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {exc}") from None
    ids, values = data["id"], data["values"]
    if not np.isfinite(values).all():
        raise ValueError(f"{path} holds a non-finite value")
    if (ids < 0).any() or len(np.unique(ids)) < len(ids):
        raise ValueError(f"{path}: cell ids must be distinct non-negative integers")
    return ids, values


def write_cell_csv(path: str | Path, header: list[str], columns: Sequence[np.ndarray]) -> None:
    """Write (k,) or (k, m) columns as CSV, rows ending in CRLF as csv.writer
    ends them: integers and flags exactly, as integers; floats at 12
    significant digits; anything else as its str.  Rows are formatted
    ``_WRITE_BLOCK`` at a time, one ``%`` and one write per block, into the
    bytes a row-at-a-time writer gives (``tests/test_tables.py`` keeps one
    as the reference).  The file is written through ``atomic_write``."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    fields = [c[:, j] for c in cols for j in range(c.shape[1])]
    formats = {"f": "%.12g", "b": "%d", "i": "%d", "u": "%d"}
    row = ",".join(formats.get(f.dtype.kind, "%s") for f in fields) + "\r\n"
    with atomic_write(path, newline="", encoding="ascii") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), _WRITE_BLOCK):
            # Python values keep each column's values; one float64 array would
            # round integers above 2**53.
            block = [f[start : start + _WRITE_BLOCK].tolist() for f in fields]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs):
    """``open(tmp, mode, **kwargs)`` for a temporary file beside ``path``.
    When the block ends normally the temporary replaces ``path``; on any
    error it is removed and any old file stays whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
