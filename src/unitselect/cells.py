"""Per-cell counts of finite samples and bound-label construction.

Counts of one regime's samples live in a dense ``(2**n_observed, 4)`` int64
count table: one row per cell id, one column per ``x*2 + y``, so a row holds
the counts of (x', y'), (x', y), (x, y') and (x, y), and a cell is seen when
its row is nonzero.  ``aggregate(samples, regime, into=None)`` returns such
a table, or adds to the one passed as ``into``, shard by shard: a block of
0/1 columns gives its width by its columns, and row codes count into a
table, whose rows give theirs.  ``build_labels`` labels from two tables,
one per regime, so memory follows the table and not the cells seen.  A
dict passed as ``into`` with a block, or as both arguments of
``build_labels``, is the older count-map form, a map from the id of each
cell seen to a view of its row; it stays only until the benchmark's
appendix pipeline counts into tables (ROADMAP item 4).  Estimates are raw
frequentist ratios (no smoothing), and a cell earns labels only when both
regimes observed it at least ``threshold`` times, both experimental arms are
populated, and the estimated interval is consistent.  Everything else lands
in a drop log with a reason code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    benefit_bounds_array,
    clamp_to_range,
)
from .datagen import REGIMES, SHARD_SIZE, row_codes
from .model import cell_bits, cell_ids, check_cell_space, check_integer, check_number, check_seed
from .model import random_stream
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
    "check_threshold",
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
        if not 0.0 < check_number(self.test_fraction, "test_fraction") < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        check_seed(self.seed)


def check_threshold(threshold: int) -> int:
    """``threshold`` itself, if it can bound a cell's sample counts: an int
    with threshold >= 0."""
    return check_integer(threshold, "threshold", 0)


def _is_table(counts: object) -> bool:
    """Whether ``counts`` is a count table: a (2**k, 4) int64 array with
    k >= 1, as a model has at least one observed bit."""
    return (
        isinstance(counts, np.ndarray)
        and counts.dtype == np.int64
        and counts.size >= 8
        and counts.shape == (1 << (counts.size // 4 - 1).bit_length(), 4)
    )


def _table_of(counts: dict[int, np.ndarray]) -> np.ndarray | None:
    """The count table whose rows a count map holds, which must be the base
    of every row: a map merged from two maps is refused, since only one
    table's counts would be read.  None if the map is empty."""
    if not counts:
        return None
    table = getattr(next(iter(counts.values())), "base", None)
    if not (_is_table(table) and all(getattr(r, "base", None) is table for r in counts.values())):
        raise ValueError("a count map's rows must be views of the table aggregate made")
    return table


def aggregate(
    samples: np.ndarray,
    regime: str,
    into: np.ndarray | dict[int, np.ndarray] | None = None,
) -> np.ndarray | dict[int, np.ndarray]:
    """Count one regime's samples per cell.

    ``samples`` is either a (n, n_observed+2) bool or integer array of 0/1
    values, whose columns give its width and where any other dtype or value
    raises ValueError, or a 1-D integer array of row codes ``cell_id*4 +
    x*2 + y`` as ``datagen.iter_codes`` yields them, counted into the count
    table ``into``, whose rows give their width, and where a code outside
    [0, 4 * len(into)) raises ValueError, as do codes with no table to count
    into.  More than ``MAX_CELLS`` cells raise CellSpaceTooLarge.  The result
    is a (2**n_observed, 4) int64 count table whose row ``cell_id``, column
    ``x*2 + y``, counts the rows of that cell with that x and y: a new one,
    or ``into`` itself with these counts added, to merge across shards.  An
    ``into`` that is not a writable count table of at least one bit, or of
    another width, raises ValueError; a refused call changes nothing.

    A dict ``into`` is the count-map form (see the module docstring), for
    blocks only: its table is added to, a key is inserted for each cell
    seen for the first time, and the map is returned.  A map whose rows are
    not all views of one table (say, two maps merged into one dict) raises
    ValueError.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if isinstance(into, dict):
        table = _table_of(into)
        seen = np.False_ if table is None else table.any(axis=1)
    elif into is None or (_is_table(into) and into.flags.writeable):
        table = into
    else:
        raise ValueError("into must be a writable (2**n_observed, 4) int64 count table")
    if not isinstance(samples, np.ndarray) or samples.ndim not in (1, 2):
        raise ValueError("samples must be a (n, n_observed+2) array or a 1-D array of codes")
    if samples.ndim == 2:
        if samples.shape[1] < 3:
            raise ValueError("samples must be a (n, n_observed+2) array")
        n_observed = samples.shape[1] - 2
    elif samples.dtype.kind in "iu" and isinstance(into, np.ndarray):
        n_observed = len(into).bit_length() - 1
    else:
        raise ValueError("row codes must be an integer array, counted into a count table")
    n_cells = check_cell_space(n_observed)
    if table is None:
        table = np.zeros((n_cells, 4), dtype=np.int64)
    elif len(table) != n_cells:
        raise ValueError(f"into counts cells of another width than {n_observed} bits")
    # In chunks, so the temporaries stay small.
    chunks = [samples[start : start + SHARD_SIZE] for start in range(0, len(samples), SHARD_SIZE)]
    if samples.ndim == 1:
        if not all(chunk.min() >= 0 and chunk.max() < 4 * n_cells for chunk in chunks):
            raise ValueError(f"row codes must lie in [0, 4 * 2**{n_observed})")
        codes = (chunk.astype(np.intp, copy=False) for chunk in chunks)
    elif samples.dtype.kind in "biu" and all(
        chunk.min() >= 0 and chunk.max() <= 1 for chunk in chunks
    ):
        codes = map(row_codes, chunks)
    else:
        raise ValueError("samples must be a bool or integer array of 0/1 values")
    for chunk in codes:
        table += np.bincount(chunk, minlength=table.size).reshape(-1, 4)
    if not isinstance(into, dict):
        return table
    # Made while the last chunk is still referenced: a view's small
    # allocation would otherwise land in that freed buffer and pin it.
    new = np.flatnonzero(table.any(axis=1) & ~seen).tolist()
    into.update(zip(new, map(table.__getitem__, new)))
    return into


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


def build_labels(
    exp_counts: np.ndarray | dict[int, np.ndarray],
    obs_counts: np.ndarray | dict[int, np.ndarray],
    v: BenefitVector,
    threshold: int = DEFAULT_THRESHOLD,
) -> tuple[LabelTable, DropTable]:
    """Bound labels for every eligible cell, plus the drop log.

    The counts are ``aggregate``'s count tables, one per regime, of one
    width, else ValueError; a cell is seen when its row is nonzero in
    either.  Two count maps are taken too, where a cell is seen when either
    map holds its key; a table paired with a map, or two empty maps, which
    have no width, raise ValueError.  A cell
    is eligible when it was seen at least ``threshold`` times in each
    regime; ``check_threshold`` must accept ``threshold``.  Cells seen in
    neither regime appear in neither table, and both tables are in
    ascending id order.  The estimates and bounds are those of ``estimate``
    and ``benefit_bounds``, computed for all cells at once, and the labels
    are clamped by ``clamp_to_range``.
    """
    ids = None
    if isinstance(exp_counts, dict) and isinstance(obs_counts, dict):
        # The keys say which cells a map saw, even where a row built by hand
        # is zero; an empty map has no table, and its rows are gathered as
        # zeros.
        ids = np.union1d(*(np.fromiter(m, np.int64, len(m)) for m in (exp_counts, obs_counts)))
        exp_counts, obs_counts = _table_of(exp_counts), _table_of(obs_counts)
    elif not (_is_table(exp_counts) and _is_table(obs_counts)):
        raise ValueError("counts must be two (2**n_observed, 4) int64 tables, or two count maps")
    check_threshold(threshold)
    tables = [t for t in (exp_counts, obs_counts) if t is not None]
    if not tables:
        raise ValueError("two empty count maps give no width to label cells of")
    if len({t.shape for t in tables}) > 1:
        raise ValueError("cells of different widths cannot share a label table")
    n_observed = len(tables[0]).bit_length() - 1
    if ids is None:
        ids = np.flatnonzero(exp_counts.any(axis=1) | obs_counts.any(axis=1))
    exp_rows, obs_rows = (
        np.zeros((len(ids), 4), np.int64) if t is None else t[ids] for t in (exp_counts, obs_counts)
    )
    (treated, treated_y1, control, control_y1), obs = _arms(exp_rows, obs_rows)
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

    ok, out = est[consistent], np.flatnonzero(reason != "")
    labels = LabelTable(
        ids[ok], n_observed, clamp_to_range(lower[consistent], v),
        clamp_to_range(upper[consistent], v), n_exp[ok], n_obs[ok],
    )
    return labels, DropTable(ids[out], n_observed, reason[out], n_exp[out], n_obs[out])


def split(labeled: LabelTable, spec: SplitSpec) -> tuple[LabelTable, LabelTable]:
    """Seeded shuffle, then the first ceil(test_fraction * n) < n cells form
    the test set.  Returns (train, test), each in shuffled order."""
    if not labeled:
        raise ValueError("cannot split an empty label table")
    rng = random_stream(spec.seed)
    order = rng.permutation(len(labeled))
    n_test = math.ceil(spec.test_fraction * len(labeled))
    if n_test == len(labeled):
        raise ValueError(f"test_fraction {spec.test_fraction} leaves no training cell")
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
