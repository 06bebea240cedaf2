"""Per-cell column tables and their CSV form.

A table holds one read-only array per field, one entry per cell, and is
worked on column by column.  A slice or an int array of positions picks a
table of those cells; iterating gives plain rows, which only the benchmark
reads.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import CellKey, cell_bits


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
    file order.  Raises ValueError for another header, a short, long or
    non-numeric row, an id that is not an integer, a non-finite value, or a
    negative or repeated id."""
    with open(path, encoding="ascii") as fh:
        found = fh.readline().rstrip("\r\n").split(",")
        if found != header:
            raise ValueError(f"unexpected header in {path}: {found}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no rows
            data = np.loadtxt(
                fh, delimiter=",", comments=None, ndmin=1,
                dtype=[("id", "i8"), ("values", "f8", (len(header) - 1,))],
            )
    ids, values = data["id"], data["values"]
    if not np.isfinite(values).all():
        raise ValueError(f"{path} holds a non-finite value")
    if (ids < 0).any() or len(np.unique(ids)) < len(ids):
        raise ValueError(f"{path}: cell ids must be distinct non-negative integers")
    return ids, values


def write_cell_csv(path: str | Path, header: list[str], columns: Sequence[np.ndarray]) -> None:
    """Write (k,) or (k, m) columns as CSV, rows ending in CRLF as csv.writer
    ends them: integers and flags exactly, as integers; floats at 12
    significant digits; anything else as its str.  The file is written
    through ``atomic_write``."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    kinds = [c.dtype.kind for c in cols for _ in range(c.shape[1])]
    fmt = ["%.12g" if k == "f" else "%d" if k in "biu" else "%s" for k in kinds]
    # Python objects keep each column's values; one float64 array would round
    # integers above 2**53.
    rows = np.hstack([c.astype(object) for c in cols])
    with atomic_write(path, newline="", encoding="ascii") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


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
