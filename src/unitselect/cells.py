"""Per-cell counts of finite samples and bound-label construction.

``aggregate`` counts one regime's samples into a dense
``(2**n_observed, 4)`` int64 table: one row per cell id, one column per
``x*2 + y``, so a row holds the counts of (x', y'), (x', y), (x, y') and
(x, y).  It returns a map from the id of each cell seen to that cell's row,
a view of the table.  Estimates are raw frequentist ratios (no smoothing),
and a cell earns labels only when both regimes observed it at least
``threshold`` times, both experimental arms are populated, and the estimated
interval is consistent.  Everything else lands in a drop log with a reason
code.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    benefit_bounds_array,
    value_range,
)
from .datagen import REGIMES, SHARD_SIZE, row_codes
from .model import cell_bits, cell_ids, check_cell_space, random_stream
from .tables import CellTable, read_cell_csv, write_cell_csv

__all__ = [
    "DEFAULT_THRESHOLD",
    "BELOW_THRESHOLD",
    "ZERO_ARM",
    "INCONSISTENT",
    "LabelTable",
    "DropTable",
    "SplitSpec",
    "IneligibleCellError",
    "aggregate",
    "estimate",
    "build_labels",
    "split",
    "write_labels_csv",
    "read_labels_csv",
    "write_drops_csv",
]

DEFAULT_THRESHOLD = 1300

# Drop-log reason codes.
BELOW_THRESHOLD = "BELOW_THRESHOLD"
ZERO_ARM = "ZERO_ARM"
INCONSISTENT = "INCONSISTENT"


class IneligibleCellError(ValueError):
    """A cell's counts cannot support a frequentist estimate."""


@dataclass(frozen=True, eq=False)
class LabelTable(CellTable):
    """Bound labels of cells of ``n_observed`` bits, as columns, in ascending
    id order from ``build_labels`` and shuffled by ``split``."""

    cell_id: np.ndarray
    n_observed: int
    lower_label: np.ndarray
    upper_label: np.ndarray
    n_exp: np.ndarray
    n_obs: np.ndarray

    _columns = dict(cell_id="i8", lower_label="f8", upper_label="f8", n_exp="i8", n_obs="i8")
    _ascending = False


@dataclass(frozen=True, eq=False)
class DropTable(CellTable):
    """The drop log: cells of ``n_observed`` bits with a reason code, as
    columns."""

    cell_id: np.ndarray
    n_observed: int
    reason: np.ndarray
    n_exp: np.ndarray
    n_obs: np.ndarray

    _columns = dict(cell_id="i8", reason="O", n_exp="i8", n_obs="i8")


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


def _table_of(counts: Mapping[int, np.ndarray]) -> np.ndarray | None:
    """The (2**k, 4) int64 table whose rows a count map holds; None if empty."""
    if not counts:
        return None
    table = getattr(next(iter(counts.values())), "base", None)
    if not (
        isinstance(table, np.ndarray)
        and table.dtype == np.int64
        and table.shape == (1 << (table.size // 4 - 1).bit_length(), 4)
    ):
        raise ValueError("a count map's rows must be views of the table aggregate made")
    return table


def aggregate(
    samples: np.ndarray,
    regime: str,
    into: dict[int, np.ndarray] | None = None,
    *,
    n_observed: int | None = None,
) -> dict[int, np.ndarray]:
    """Count one regime's samples per cell.

    ``samples`` is either a (n, n_observed+2) array of 0/1 values as produced
    by datagen, where any other value raises ValueError, or a 1-D integer
    array of row codes ``cell_id*4 + x*2 + y`` as ``datagen.iter_codes``
    yields them, whose width the keyword ``n_observed`` gives and where a
    code outside [0, 4 * 2**n_observed) raises ValueError.  More than
    ``MAX_CELLS`` cells raise CellSpaceTooLarge.  The result maps the id of
    each cell seen to its row of one (2**n_observed, 4) int64 table, whose
    column ``x*2 + y`` counts the rows with that x and y.  Pass a returned
    map as ``into`` to merge across shards: its table is added to, and a key
    is inserted only for a cell seen for the first time.  An ``into`` of
    another width, or whose rows are not views of such a table, raises
    ValueError; a refused call changes nothing.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if not isinstance(samples, np.ndarray) or samples.ndim not in (1, 2):
        raise ValueError("samples must be a (n, n_observed+2) array or a 1-D array of codes")
    if samples.ndim == 2:
        if samples.shape[1] < 3:
            raise ValueError("samples must be a (n, n_observed+2) array")
        if n_observed not in (None, samples.shape[1] - 2):
            raise ValueError(f"samples hold {samples.shape[1] - 2} observed bits, not {n_observed}")
        n_observed = samples.shape[1] - 2
    elif samples.dtype.kind not in "iu" or type(n_observed) is not int or n_observed < 1:
        raise ValueError("row codes must be an integer array, with n_observed >= 1 given")
    n_cells = check_cell_space(n_observed)
    out = {} if into is None else into
    table = _table_of(out)
    if table is None:
        table = np.zeros((n_cells, 4), dtype=np.int64)
    elif len(table) != n_cells:
        raise ValueError(f"into counts cells of another width than {n_observed} bits")
    # In chunks, so the temporaries stay small; all are checked before any is
    # counted.  For integers the range decides, about 10 times faster.
    chunks = [samples[start : start + SHARD_SIZE] for start in range(0, len(samples), SHARD_SIZE)]
    if samples.ndim == 1:
        if not all(chunk.min() >= 0 and chunk.max() < 4 * n_cells for chunk in chunks):
            raise ValueError(f"row codes must lie in [0, 4 * 2**{n_observed})")
        codes = (chunk.astype(np.intp, copy=False) for chunk in chunks)
    else:
        if samples.dtype.kind in "biu":
            binary = all(chunk.min() >= 0 and chunk.max() <= 1 for chunk in chunks)
        else:
            binary = all(((chunk == 0) | (chunk == 1)).all() for chunk in chunks)
        if not binary:
            raise ValueError("samples must hold only 0/1 values")
        codes = map(row_codes, chunks)
    unseen = ~table.any(axis=1)
    for chunk in codes:
        table += np.bincount(chunk, minlength=4 * n_cells).reshape(-1, 4)
    new = np.flatnonzero(unseen & table.any(axis=1)).tolist()
    out.update(zip(new, map(table.__getitem__, new)))
    return out


def _arms(exp: np.ndarray, obs: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """From count rows, or arrays of them: (treated, treated_y1, control,
    control_y1) and the observational counts in ``ObservationalJoint`` order."""
    arms = (exp[..., 2] + exp[..., 3], exp[..., 3], exp[..., 0] + exp[..., 1], exp[..., 1])
    return arms, obs[..., ::-1]


def estimate(
    exp_row: np.ndarray, obs_row: np.ndarray
) -> tuple[ExperimentalDistribution, ObservationalJoint]:
    """Frequentist ratios for one cell from its experimental and
    observational count rows; raises when an arm is empty."""
    arms, obs = _arms(np.asarray(exp_row), np.asarray(obs_row))
    treated, treated_y1, control, control_y1 = arms
    if treated == 0 or control == 0:
        raise IneligibleCellError("empty experimental arm")
    if obs.sum() == 0:
        raise IneligibleCellError("no observational samples")
    exp = ExperimentalDistribution(float(treated_y1 / treated), float(control_y1 / control))
    return exp, ObservationalJoint(*(obs / obs.sum()).tolist())


def _clamp(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """min(max(a, lo), hi) elementwise, with Python's tie rule: an endpoint
    replaces a only when strictly beyond it, so a zero keeps its sign."""
    a = np.where(lo > a, lo, a)
    return np.where(hi < a, hi, a)


def build_labels(
    exp_map: Mapping[int, np.ndarray],
    obs_map: Mapping[int, np.ndarray],
    v: BenefitVector,
    threshold: int = DEFAULT_THRESHOLD,
) -> tuple[LabelTable, DropTable]:
    """Bound labels for every eligible cell, plus the drop log.

    The maps are ``aggregate``'s, one per regime; the width is that of
    their tables, which must agree.  A cell is eligible when it was seen at
    least ``threshold`` times in each regime.  Cells seen in neither map
    appear in neither table, and both tables are in ascending id order.  The
    estimates and bounds are those of ``estimate`` and ``benefit_bounds``,
    computed for all cells at once.
    """
    tables = [_table_of(m) for m in (exp_map, obs_map)]
    widths = {len(t) for t in tables if t is not None}
    if len(widths) > 1:
        raise ValueError("cells of different widths cannot share a label table")
    n_observed = max(widths, default=1).bit_length() - 1
    ids = np.union1d(*(np.fromiter(m, np.int64, len(m)) for m in (exp_map, obs_map)))
    exp, obs = (np.zeros((len(ids), 4), np.int64) if t is None else t[ids] for t in tables)
    (treated, treated_y1, control, control_y1), obs = _arms(exp, obs)
    n_exp = treated + control
    n_obs = obs.sum(axis=1)

    reason = np.full(len(ids), "", dtype=object)
    below = (n_exp < threshold) | (n_obs < threshold)
    reason[below] = BELOW_THRESHOLD
    reason[~below & ((treated == 0) | (control == 0) | (n_obs == 0))] = ZERO_ARM
    est = np.flatnonzero(reason == "")
    exp = np.stack([treated_y1[est] / treated[est], control_y1[est] / control[est]], axis=1)
    obs = obs[est] / n_obs[est, None]
    lower, upper, consistent = benefit_bounds_array(v, exp, obs)
    reason[est[~consistent]] = INCONSISTENT

    lo, hi = value_range(v)
    ok, out = est[consistent], np.flatnonzero(reason != "")
    labels = LabelTable(
        ids[ok], n_observed, _clamp(lower[consistent], lo, hi),
        _clamp(upper[consistent], lo, hi), n_exp[ok], n_obs[ok],
    )
    return labels, DropTable(ids[out], n_observed, reason[out], n_exp[out], n_obs[out])


def split(labeled: LabelTable, spec: SplitSpec) -> tuple[LabelTable, LabelTable]:
    """Seeded shuffle, then the first ceil(test_fraction * n) cells form the
    test set.  Returns (train, test), each in shuffled order."""
    if not labeled:
        raise ValueError("cannot split an empty label table")
    rng = random_stream(spec.seed)
    order = rng.permutation(len(labeled))
    n_test = math.ceil(spec.test_fraction * len(labeled))
    return labeled[order[n_test:]], labeled[order[:n_test]]


def _labels_header(n_observed: int) -> list[str]:
    bits = [f"z{i + 1}" for i in range(n_observed)]
    return ["cell_id", *bits, "lower_label", "upper_label", "n_exp", "n_obs"]


def write_labels_csv(labels: LabelTable, path: str | Path) -> None:
    """Write the labels in table order, the cell bits after each id."""
    bits = cell_bits(labels.cell_id, labels.n_observed)
    cols = [getattr(labels, name) for name in labels._columns]
    write_cell_csv(path, _labels_header(labels.n_observed), [cols[0], bits, *cols[1:]])


def read_labels_csv(path: str | Path) -> LabelTable:
    """Load written labels in file order, with ``read_cell_csv``'s checks;
    the bits must be 0/1 and spell each row's id, and counts must be
    integers."""
    with open(path, "rb") as fh:  # read_cell_csv refuses a byte that is not ASCII
        n_observed = fh.readline().count(b",") - 4
    ids, vals = read_cell_csv(path, _labels_header(max(n_observed, 1)))
    bits, counts = vals[:, :n_observed], vals[:, -2:]
    if not ((bits == 0) | (bits == 1)).all() or (cell_ids(bits) != ids).any():
        raise ValueError(f"cell_id/bits mismatch in {path}")
    if (counts != np.trunc(counts)).any():
        raise ValueError(f"{path}: n_exp and n_obs must be integers")
    return LabelTable(ids, n_observed, *vals[:, n_observed:-2].T, *counts.T)


def write_drops_csv(drops: DropTable, path: str | Path) -> None:
    header = ["cell_id", "reason", "n_exp", "n_obs"]
    write_cell_csv(path, header, [getattr(drops, name) for name in drops._columns])
