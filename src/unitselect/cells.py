"""Per-cell aggregation of finite samples and bound-label construction.

Counting is plain tallying, estimates are raw frequentist ratios (no
smoothing), and a cell earns labels only when both regimes observed it at
least ``threshold`` times, both experimental arms are populated, and the
estimated interval is consistent.  Everything else lands in a drop log with a
reason code.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
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
from .datagen import REGIMES
from .model import CellKey, cell_bits, cell_ids
from .tables import CellTable, read_cell_csv, write_cell_csv

__all__ = [
    "DEFAULT_THRESHOLD",
    "BELOW_THRESHOLD",
    "ZERO_ARM",
    "INCONSISTENT",
    "CellCounts",
    "LabeledCell",
    "DroppedCell",
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

# aggregate packs each row as id * 4 + x * 2 + y, which must fit in an int64.
_MAX_OBSERVED = 61


class IneligibleCellError(ValueError):
    """A cell's counts cannot support a frequentist estimate."""


@dataclass
class CellCounts:
    """Tallies for one cell, across both regimes."""

    exp_treated: int = 0
    exp_treated_y1: int = 0
    exp_control: int = 0
    exp_control_y1: int = 0
    obs_xy: int = 0
    obs_xyp: int = 0
    obs_xpy: int = 0
    obs_xpyp: int = 0

    @property
    def n_exp(self) -> int:
        return self.exp_treated + self.exp_control

    @property
    def n_obs(self) -> int:
        return self.obs_xy + self.obs_xyp + self.obs_xpy + self.obs_xpyp


@dataclass(frozen=True)
class LabeledCell:
    """A cell eligible for training, with its estimated bound labels."""

    cell: CellKey
    lower_label: float
    upper_label: float
    n_exp: int
    n_obs: int


@dataclass(frozen=True)
class DroppedCell:
    cell: CellKey
    reason: str
    n_exp: int
    n_obs: int


@dataclass(frozen=True, eq=False)
class LabelTable(CellTable):
    """Bound labels of cells of ``n_observed`` bits, as columns, in ascending
    id order from ``build_labels`` and shuffled by ``split``.  Its rows are
    ``LabeledCell``s."""

    cell_id: np.ndarray
    n_observed: int
    lower_label: np.ndarray
    upper_label: np.ndarray
    n_exp: np.ndarray
    n_obs: np.ndarray

    _columns = dict(cell_id="i8", lower_label="f8", upper_label="f8", n_exp="i8", n_obs="i8")
    _ascending = False

    def __iter__(self) -> Iterator[LabeledCell]:
        cols = (getattr(self, name).tolist() for name in list(self._columns)[1:])
        return map(LabeledCell, self._keys(), *cols)


@dataclass(frozen=True, eq=False)
class DropTable(CellTable):
    """The drop log: cells of ``n_observed`` bits with a reason code, as
    columns.  Its rows are ``DroppedCell``s."""

    cell_id: np.ndarray
    n_observed: int
    reason: np.ndarray
    n_exp: np.ndarray
    n_obs: np.ndarray

    _columns = dict(cell_id="i8", reason="O", n_exp="i8", n_obs="i8")

    def __iter__(self) -> Iterator[DroppedCell]:
        cols = (getattr(self, name).tolist() for name in list(self._columns)[1:])
        return map(DroppedCell, self._keys(), *cols)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


def aggregate(
    samples: np.ndarray,
    regime: str,
    into: dict[CellKey, CellCounts] | None = None,
) -> dict[CellKey, CellCounts]:
    """Tally samples into per-cell counts for one regime.

    ``samples`` is a (n, n_observed+2) array of 0/1 values as produced by
    datagen; any other value raises ValueError.  Pass ``into`` to merge
    across shards; the merge is plain addition, so shard order never
    matters.  A cell already in ``into`` keeps its key object; a key is built
    only for a cell seen for the first time.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if not isinstance(samples, np.ndarray) or samples.ndim != 2 or samples.shape[1] < 3:
        raise ValueError("samples must be a (n, n_observed+2) array")
    n_observed = samples.shape[1] - 2
    if n_observed > _MAX_OBSERVED:
        raise ValueError(f"at most {_MAX_OBSERVED} observed bits can be counted")
    if not ((samples == 0) | (samples == 1)).all():
        raise ValueError("samples must hold only 0/1 values")
    out = {} if into is None else into

    xy = samples[:, -2].astype(np.int64) * 2 + samples[:, -1].astype(np.int64)
    codes, hits = np.unique(cell_ids(samples[:, :n_observed]) * 4 + xy, return_counts=True)
    ids, cell_of_code = np.unique(codes >> 2, return_inverse=True)
    tallies = np.zeros((len(ids), 4), dtype=np.int64)
    tallies[cell_of_code, codes & 3] = hits
    counts_by_bits = {key.bits: counts for key, counts in out.items()}
    keys = map(tuple, cell_bits(ids, n_observed).tolist())
    for bits, (c00, c01, c10, c11) in zip(keys, tallies.tolist()):
        counts = counts_by_bits.get(bits)
        if counts is None:
            counts = out[CellKey(bits)] = CellCounts()
        if regime == "experimental":
            counts.exp_treated += c10 + c11
            counts.exp_treated_y1 += c11
            counts.exp_control += c00 + c01
            counts.exp_control_y1 += c01
        else:
            counts.obs_xy += c11
            counts.obs_xyp += c10
            counts.obs_xpy += c01
            counts.obs_xpyp += c00
    return out


def estimate(counts: CellCounts) -> tuple[ExperimentalDistribution, ObservationalJoint]:
    """Frequentist ratios for one cell; raises when an arm is empty."""
    if counts.exp_treated == 0 or counts.exp_control == 0:
        raise IneligibleCellError("empty experimental arm")
    if counts.n_obs == 0:
        raise IneligibleCellError("no observational samples")
    exp = ExperimentalDistribution(
        p_y_do_x=counts.exp_treated_y1 / counts.exp_treated,
        p_y_do_xp=counts.exp_control_y1 / counts.exp_control,
    )
    n = counts.n_obs
    obs = ObservationalJoint(
        p_xy=counts.obs_xy / n,
        p_xyp=counts.obs_xyp / n,
        p_xpy=counts.obs_xpy / n,
        p_xpyp=counts.obs_xpyp / n,
    )
    return exp, obs


def _clamp(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """min(max(a, lo), hi) elementwise, with Python's tie rule: an endpoint
    replaces a only when strictly beyond it, so a zero keeps its sign."""
    a = np.where(lo > a, lo, a)
    return np.where(hi < a, hi, a)


def build_labels(
    exp_map: Mapping[CellKey, CellCounts],
    obs_map: Mapping[CellKey, CellCounts],
    v: BenefitVector,
    threshold: int = DEFAULT_THRESHOLD,
) -> tuple[LabelTable, DropTable]:
    """Bound labels for every eligible cell, plus the drop log.

    A cell is eligible when it was seen at least ``threshold`` times in each
    regime.  Cells seen in neither map appear in neither table, and every
    cell must have the same width.  Both tables are in ascending id order.
    The estimates and bounds are those of ``estimate`` and
    ``benefit_bounds``, computed for all cells at once.
    """
    keys = list(set(exp_map) | set(obs_map))
    n_observed = len(keys[0].bits) if keys else 0
    if any(len(k.bits) != n_observed for k in keys):
        raise ValueError("cells of different widths cannot share a label table")
    bits = np.array([k.bits for k in keys], dtype=np.uint8).reshape(len(keys), n_observed)
    order = np.argsort(cell_ids(bits))
    keys = [keys[i] for i in order.tolist()]
    ids = cell_ids(bits[order])
    empty = CellCounts()
    counts = np.array(
        [
            (e.exp_treated, e.exp_treated_y1, e.exp_control, e.exp_control_y1)
            + (o.obs_xy, o.obs_xyp, o.obs_xpy, o.obs_xpyp)
            for e, o in ((exp_map.get(k, empty), obs_map.get(k, empty)) for k in keys)
        ],
        dtype=np.int64,
    ).reshape(-1, 8)
    treated, treated_y1, control, control_y1 = counts[:, :4].T
    n_exp = treated + control
    n_obs = counts[:, 4:].sum(axis=1)

    reason = np.full(len(keys), "", dtype=object)
    below = (n_exp < threshold) | (n_obs < threshold)
    reason[below] = BELOW_THRESHOLD
    reason[~below & ((treated == 0) | (control == 0) | (n_obs == 0))] = ZERO_ARM
    est = np.flatnonzero(reason == "")
    exp = np.stack([treated_y1[est] / treated[est], control_y1[est] / control[est]], axis=1)
    obs = counts[est, 4:] / n_obs[est, None]
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
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
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
    with open(path, encoding="ascii") as fh:
        n_observed = len(fh.readline().split(",")) - 5
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
