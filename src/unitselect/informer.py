"""Exact ground truth per cell: distributions, benefit values and bounds.

Everything here is closed-form enumeration over the exogenous noise bits and
the latent characteristic completions; no sampling is involved.  The informer
table is the oracle that sampled estimates and learned predictions are judged
against.  It runs the sampler's mechanism: ``model.eval_x`` and ``eval_y``,
called on one profile by the scalar functions here and on arrays of every
(cell, completion) profile by ``informer_table``.

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
    check_cell_space,
    counterfactual_pair,
    eval_x,
    eval_y,
)
from .model import m_value as _m_value
from .tables import CellTable, read_cell_csv, write_cell_csv

__all__ = [
    "InformerRecord",
    "InformerTable",
    "exact_experimental",
    "exact_observational",
    "response_profile",
    "true_benefit_profile",
    "completion_weights",
    "informer_table",
    "write_informer_csv",
    "read_informer_csv",
]

# The exp and obs columns are in the field order of their classes.
INFORMER_HEADER = (
    ["cell_id"]
    + [f.name for cls in (ExperimentalDistribution, ObservationalJoint) for f in fields(cls)]
    + ["true_f", "true_lower", "true_upper"]
)

# Cells per _cell_block call.  The mixing matmul may sum in an order that
# depends on the block's shape, so the table's bits are those of this size.
_CHUNK_CELLS = 2048


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


def completion_weights(config: ScmConfig) -> np.ndarray:
    """Mixture weights over the latent completions of a cell: the
    product-Bernoulli weight of every completion.

    Characteristics are mutually independent, so every cell has the same
    weights.  Completion index j encodes the latent bits with the first
    unobserved characteristic as the least-significant bit.
    """
    n_u = config.n_unobserved
    bits = cell_bits(np.arange(1 << n_u), n_u)
    p = np.asarray(config.bern_z[config.n_observed :])
    return np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)


def _cell_block(ids: np.ndarray, config: ScmConfig, v: BenefitVector) -> InformerTable:
    """Exact truth for a batch of cell ids: the scalar functions above, run
    on every (cell, completion) profile at once and mixed per cell."""
    n_obs = config.n_observed
    n_u = config.n_unobserved
    n_comp = 1 << n_u
    k = len(ids)

    full = np.empty((k * n_comp, config.n_total))
    full[:, :n_obs] = np.repeat(cell_bits(ids, n_obs), n_comp, axis=0)
    if n_u:
        full[:, n_obs:] = np.tile(cell_bits(np.arange(n_comp), n_u), (k, 1))
    m_x = full @ np.asarray(config.weights_x)
    m_y = full @ np.asarray(config.weights_y)
    c = config.constant_c
    r = (1.0 - config.bern_ux, config.bern_ux)
    q = (1.0 - config.bern_uy, config.bern_uy)

    # Per profile, in ObservationalJoint and in ResponseProfile field order.
    joint = np.zeros((4, len(full)))
    types = np.zeros((4, len(full)))
    for u_x in (0, 1):
        x = eval_x(m_x, u_x)
        for u_y in (0, 1):
            y = eval_y(x, m_y, u_y, c)
            joint += r[u_x] * q[u_y] * np.stack([x & y, x & ~y, ~x & y, ~x & ~y])
    for u_y in (0, 1):
        y0 = eval_y(0, m_y, u_y, c)
        y1 = eval_y(1, m_y, u_y, c)
        types += q[u_y] * np.stack([~y0 & y1, y0 & y1, ~y0 & ~y1, y0 & ~y1])
    # P(y | do(x)) is compliers plus always-takers and P(y | do(x')) always-takers
    # plus defiers: the same noise masses as the forced outcomes, added exactly.
    do = np.stack([types[0] + types[1], types[1] + types[3]])
    f = v.beta * types[0] + v.gamma * types[1] + v.theta * types[2] + v.delta * types[3]

    weights = completion_weights(config)

    def mix(rows: np.ndarray) -> np.ndarray:
        # One contiguous matmul per row; a batched one may sum in another order.
        return np.stack([row.reshape(k, n_comp) @ weights for row in rows], axis=1)

    exp, obs = mix(do), mix(joint)
    true_lower, true_upper, _ = benefit_bounds_array(v, exp, obs)
    true_f = f.reshape(k, n_comp) @ weights
    return InformerTable(ids, n_obs, exp, obs, true_f, true_lower, true_upper)


def informer_table(config: ScmConfig, v: BenefitVector) -> InformerTable:
    """Exact truth for every cell, in ascending cell-id order."""
    n_cells = check_cell_space(config.n_observed)
    blocks = [
        _cell_block(np.arange(start, min(start + _CHUNK_CELLS, n_cells)), config, v)
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


def read_informer_csv(path: str | Path) -> InformerTable:
    """Load a written full table; its width is inferred from the row count,
    which must be a power of two.  Besides ``read_cell_csv``'s checks, ids
    must lie in the cell space and the distributions pass
    ``check_distributions``."""
    ids, vals = read_cell_csv(path, INFORMER_HEADER)
    n_observed = max(len(ids) - 1, 0).bit_length()
    if len(ids) != 1 << n_observed:
        raise ValueError(f"{path} has {len(ids)} rows, not a full power-of-two cell table")
    exp, obs = check_distributions(vals[:, :2], vals[:, 2:6])
    return InformerTable(ids, n_observed, exp, obs, *vals[:, 6:].T)
