"""Exact ground truth per cell: distributions, benefit values and bounds.

Everything here is closed-form enumeration over the exogenous noise bits and
the latent characteristic completions; no sampling is involved.  The informer
table is the oracle that sampled estimates and learned predictions are judged
against.

A cell fixes only the observed characteristics.  Its exact distributions are
mixtures, over the 2**n_unobserved latent completions, of the per-profile
distributions; the mixture weights are the product-Bernoulli probabilities of
the completions.  Bounds for the cell are computed from the *mixed*
distributions (mixing per-completion bounds instead would not be the interval
the estimable distributions imply).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import starmap
from pathlib import Path

import numpy as np

from .bounds import (
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    ResponseProfile,
    benefit_bounds_array,
    check_distributions,
    exact_benefit,
)
from .model import (
    CellKey,
    ConfigError,
    FullProfile,
    ScmConfig,
    cell_bits,
    counterfactual_pair,
    eval_x,
    eval_y,
)
from .model import m_value as _m_value
from .tables import CellTable, read_cell_csv, write_cell_csv

__all__ = [
    "CellSpaceTooLarge",
    "InformerRecord",
    "InformerTable",
    "exact_experimental",
    "exact_observational",
    "response_profile",
    "true_benefit_profile",
    "completion_weights",
    "cell_truth",
    "informer_table",
    "write_informer_csv",
    "read_informer_csv",
]

# informer_table refuses cell spaces larger than this.
MAX_CELLS = 1 << 24

# The exp and obs columns are in the field order of their classes.
INFORMER_HEADER = (
    ["cell_id"]
    + [f.name for cls in (ExperimentalDistribution, ObservationalJoint) for f in fields(cls)]
    + ["true_f", "true_lower", "true_upper"]
)

_CHUNK_CELLS = 2048


class CellSpaceTooLarge(ValueError):
    """The observed cell space exceeds the enumeration guard."""


@dataclass(frozen=True)
class InformerRecord:
    """Exact truth for one cell: distributions, benefit and its bounds."""

    cell: CellKey
    exp: ExperimentalDistribution
    obs: ObservationalJoint
    true_f: float
    true_lower: float
    true_upper: float


@dataclass(frozen=True, eq=False)
class InformerTable(CellTable):
    """Exact truth for a run of cells, as columns.

    ``exp`` is (k, 2) in ``ExperimentalDistribution`` field order and ``obs``
    is (k, 4) in ``ObservationalJoint`` order; ids lie in the cell space of
    ``n_observed`` bits.  Its rows are ``InformerRecord``s.
    """

    cell_id: np.ndarray
    n_observed: int
    exp: np.ndarray
    obs: np.ndarray
    true_f: np.ndarray
    true_lower: np.ndarray
    true_upper: np.ndarray

    _columns = dict(
        cell_id="i8", exp="(2,)f8", obs="(4,)f8", true_f="f8", true_lower="f8", true_upper="f8"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_observed < 1 or (self.cell_id >> self.n_observed).any():
            raise ConfigError(f"cell ids out of range for {self.n_observed} observed bits")

    def __iter__(self) -> Iterator[InformerRecord]:
        return map(
            InformerRecord,
            self._keys(),
            starmap(ExperimentalDistribution, self.exp.tolist()),
            starmap(ObservationalJoint, self.obs.tolist()),
            self.true_f.tolist(),
            self.true_lower.tolist(),
            self.true_upper.tolist(),
        )


def _check_profile(profile: FullProfile, config: ScmConfig) -> None:
    if len(profile.bits) != config.n_total:
        raise ConfigError(
            f"profile has {len(profile.bits)} bits, config expects {config.n_total}"
        )


def exact_experimental(profile: FullProfile, config: ScmConfig) -> ExperimentalDistribution:
    """Causal effects of a full profile: the noise-weighted outcome under each
    forced treatment."""
    _check_profile(profile, config)
    q1 = config.bern_uy
    q0 = 1.0 - q1
    pair0 = counterfactual_pair(profile, 0, config)
    pair1 = counterfactual_pair(profile, 1, config)
    return ExperimentalDistribution(
        p_y_do_x=q0 * pair0[1] + q1 * pair1[1],
        p_y_do_xp=q0 * pair0[0] + q1 * pair1[0],
    )


def exact_observational(profile: FullProfile, config: ScmConfig) -> ObservationalJoint:
    """Joint P(x, y) of a full profile, enumerating the four (u_x, u_y) combinations."""
    _check_profile(profile, config)
    m_x = _m_value(profile, config.weights_x)
    m_y = _m_value(profile, config.weights_y)
    joint = {(1, 1): 0.0, (1, 0): 0.0, (0, 1): 0.0, (0, 0): 0.0}
    for u_x, w_x in ((0, 1.0 - config.bern_ux), (1, config.bern_ux)):
        for u_y, w_y in ((0, 1.0 - config.bern_uy), (1, config.bern_uy)):
            x = eval_x(m_x, u_x)
            y = eval_y(x, m_y, u_y, config.constant_c)
            joint[(x, y)] += w_x * w_y
    return ObservationalJoint(
        p_xy=joint[(1, 1)],
        p_xyp=joint[(1, 0)],
        p_xpy=joint[(0, 1)],
        p_xpyp=joint[(0, 0)],
    )


def response_profile(profile: FullProfile, config: ScmConfig) -> ResponseProfile:
    """Response-type distribution of a full profile, mixing the two outcome-noise
    branches by their probabilities."""
    _check_profile(profile, config)
    q1 = config.bern_uy
    masses = {(0, 1): 0.0, (1, 1): 0.0, (0, 0): 0.0, (1, 0): 0.0}
    masses[counterfactual_pair(profile, 0, config)] += 1.0 - q1
    masses[counterfactual_pair(profile, 1, config)] += q1
    return ResponseProfile(
        p_complier=masses[(0, 1)],
        p_always=masses[(1, 1)],
        p_never=masses[(0, 0)],
        p_defier=masses[(1, 0)],
    )


def true_benefit_profile(
    profile: FullProfile, config: ScmConfig, v: BenefitVector
) -> float:
    """Exact benefit of a full profile."""
    return exact_benefit(v, response_profile(profile, config))


def _completion_weights(config: ScmConfig) -> np.ndarray:
    """Product-Bernoulli weight of every latent completion.

    Completion index j encodes the latent bits with the first unobserved
    characteristic as the least-significant bit.
    """
    n_u = config.n_unobserved
    bits = cell_bits(np.arange(1 << n_u), n_u)
    p = np.asarray(config.bern_z[config.n_observed :])
    return np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)


def completion_weights(cell: CellKey, config: ScmConfig) -> np.ndarray:
    """Mixture weights over the latent completions of a cell.

    Characteristics are mutually independent, so the weights do not depend on
    the observed bits; the cell argument only pins the expected width.
    """
    if len(cell.bits) != config.n_observed:
        raise ConfigError(
            f"cell has {len(cell.bits)} bits, config expects {config.n_observed}"
        )
    return _completion_weights(config)


def _profile_grid(bits: np.ndarray, config: ScmConfig) -> dict[str, np.ndarray]:
    """Exact per-profile quantities for a batch of full profiles.

    ``bits`` is a (k, n_total) 0/1 array; every returned array has length k.
    This is the vectorized twin of the scalar operations above and is checked
    against them in the test suite.
    """
    w_x = np.asarray(config.weights_x)
    w_y = np.asarray(config.weights_y)
    m_x = bits @ w_x
    m_y = bits @ w_y
    c = config.constant_c

    def y_bit(x, u_y: float) -> np.ndarray:
        s = c * x + m_y + u_y
        return (((0.0 < s) & (s < 1.0)) | ((1.0 < s) & (s < 2.0))).astype(np.float64)

    # Outcome under forced treatment, per outcome-noise branch.
    y_x1 = {0: y_bit(1.0, 0.0), 1: y_bit(1.0, 1.0)}
    y_x0 = {0: y_bit(0.0, 0.0), 1: y_bit(0.0, 1.0)}
    q = {1: config.bern_uy, 0: 1.0 - config.bern_uy}
    r = {1: config.bern_ux, 0: 1.0 - config.bern_ux}

    p_do_x = q[0] * y_x1[0] + q[1] * y_x1[1]
    p_do_xp = q[0] * y_x0[0] + q[1] * y_x0[1]

    nat_x = {0: (m_x + 0.0 > 0.5).astype(np.float64), 1: (m_x + 1.0 > 0.5).astype(np.float64)}
    p_xy = np.zeros_like(m_x)
    p_xyp = np.zeros_like(m_x)
    p_xpy = np.zeros_like(m_x)
    p_xpyp = np.zeros_like(m_x)
    for u_x in (0, 1):
        x = nat_x[u_x]
        for u_y in (0, 1):
            y = np.where(x == 1.0, y_x1[u_y], y_x0[u_y])
            w = r[u_x] * q[u_y]
            p_xy += w * x * y
            p_xyp += w * x * (1.0 - y)
            p_xpy += w * (1.0 - x) * y
            p_xpyp += w * (1.0 - x) * (1.0 - y)

    p_complier = np.zeros_like(m_x)
    p_always = np.zeros_like(m_x)
    p_never = np.zeros_like(m_x)
    p_defier = np.zeros_like(m_x)
    for u_y in (0, 1):
        y0, y1 = y_x0[u_y], y_x1[u_y]
        p_complier += q[u_y] * (1.0 - y0) * y1
        p_always += q[u_y] * y0 * y1
        p_never += q[u_y] * (1.0 - y0) * (1.0 - y1)
        p_defier += q[u_y] * y0 * (1.0 - y1)

    return {
        "p_do_x": p_do_x,
        "p_do_xp": p_do_xp,
        "p_xy": p_xy,
        "p_xyp": p_xyp,
        "p_xpy": p_xpy,
        "p_xpyp": p_xpyp,
        "p_complier": p_complier,
        "p_always": p_always,
        "p_never": p_never,
        "p_defier": p_defier,
    }


def _cell_block(ids: np.ndarray, config: ScmConfig, v: BenefitVector) -> InformerTable:
    """Exact truth for a batch of cell ids."""
    n_obs = config.n_observed
    n_u = config.n_unobserved
    n_comp = 1 << n_u
    k = len(ids)

    full = np.empty((k * n_comp, config.n_total))
    full[:, :n_obs] = np.repeat(cell_bits(ids, n_obs), n_comp, axis=0)
    if n_u:
        full[:, n_obs:] = np.tile(cell_bits(np.arange(n_comp), n_u), (k, 1))
    grid = _profile_grid(full, config)

    weights = _completion_weights(config)
    f_profiles = (
        v.beta * grid["p_complier"]
        + v.gamma * grid["p_always"]
        + v.theta * grid["p_never"]
        + v.delta * grid["p_defier"]
    )

    def mix(*names: str) -> np.ndarray:
        return np.stack([grid[name].reshape(k, n_comp) @ weights for name in names], axis=1)

    exp = mix("p_do_x", "p_do_xp")
    obs = mix("p_xy", "p_xyp", "p_xpy", "p_xpyp")
    true_lower, true_upper, _ = benefit_bounds_array(v, exp, obs)
    true_f = f_profiles.reshape(k, n_comp) @ weights
    return InformerTable(ids, n_obs, exp, obs, true_f, true_lower, true_upper)


def _chunk_of(cell_id: int, n_cells: int) -> np.ndarray:
    """The ids of the ``_CHUNK_CELLS`` block that holds a cell."""
    start = cell_id - cell_id % _CHUNK_CELLS
    return np.arange(start, min(start + _CHUNK_CELLS, n_cells))


def cell_truth(cell: CellKey, config: ScmConfig, v: BenefitVector) -> InformerRecord:
    """The cell's row of ``informer_table``, bit for bit: it is computed in
    the table's block of cells, as a one-row block would mix in another order.

    So one call costs the work of up to ``_CHUNK_CELLS`` cells.  For many
    cells, index ``informer_table(config, v)`` or read its columns."""
    if len(cell.bits) != config.n_observed:
        raise ConfigError(
            f"cell has {len(cell.bits)} bits, config expects {config.n_observed}"
        )
    ids = _chunk_of(cell.id, 1 << config.n_observed)
    return _cell_block(ids, config, v)[cell.id - int(ids[0])]


def informer_table(config: ScmConfig, v: BenefitVector) -> InformerTable:
    """Exact truth for every cell, in ascending cell-id order."""
    n_cells = 1 << config.n_observed
    if n_cells > MAX_CELLS:
        raise CellSpaceTooLarge(
            f"2**{config.n_observed} cells exceeds the guard of {MAX_CELLS}"
        )
    blocks = [
        _cell_block(_chunk_of(start, n_cells), config, v)
        for start in range(0, n_cells, _CHUNK_CELLS)
    ]
    return InformerTable(
        n_observed=config.n_observed,
        **{
            name: np.concatenate([getattr(b, name) for b in blocks])
            for name in InformerTable._columns
        },
    )


def write_informer_csv(table: InformerTable, path: str | Path) -> None:
    """Write the table with probabilities at 12 significant digits."""
    write_cell_csv(path, INFORMER_HEADER, [getattr(table, n) for n in table._columns])


def read_informer_csv(path: str | Path, n_observed: int | None = None) -> InformerTable:
    """Load a written table.  When ``n_observed`` is omitted it is inferred
    from the row count, which must then be a power of two (a full table).
    Besides ``read_cell_csv``'s checks, ids must lie in the cell space and
    the distributions pass ``check_distributions``."""
    ids, vals = read_cell_csv(path, INFORMER_HEADER)
    if n_observed is None:
        n = len(ids)
        n_observed = max(n - 1, 0).bit_length()
        if n != 1 << n_observed:
            raise ValueError(f"{path} has {n} rows, not a full power-of-two cell table")
    exp, obs = check_distributions(vals[:, :2], vals[:, 2:6])
    return InformerTable(ids, n_observed, exp, obs, *vals[:, 6:].T)
