"""Structural causal model with binary characteristics, a threshold treatment
mechanism and a double-window outcome mechanism.

The model family: ``n_observed + n_unobserved`` independent Bernoulli
characteristics ``z``, a binary treatment ``x = [m_x(z) + u_x > 0.5]`` and a
binary outcome ``y = [c*x + m_y(z) + u_y in (0,1) or (1,2)]``, where ``m_x``
and ``m_y`` are fixed linear scores of the characteristics and ``u_x``, ``u_y``
are Bernoulli noise bits.  All threshold comparisons are strict; a score that
lands exactly on 0, 0.5, 1 or 2 takes the zero branch.

``eval_x`` and ``eval_y`` are the one statement of the two mechanisms.  They
take scalars or numpy arrays alike: the sampler in ``datagen`` and the exact
per-cell truth in ``informer`` call them on arrays, so both run the same model.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_CELLS",
    "CellSpaceTooLarge",
    "check_cell_space",
    "ConfigError",
    "ScmConfig",
    "FullProfile",
    "cell_ids",
    "cell_bits",
    "check_integer",
    "check_number",
    "check_seed",
    "random_stream",
    "default_config",
    "random_config",
    "m_value",
    "eval_x",
    "eval_y",
    "counterfactual_pair",
]


# The largest cell space: informer_table enumerates it, aggregate counts into it.
MAX_CELLS = 1 << 24


class ConfigError(ValueError):
    """A model configuration or profile violates its invariants."""


class CellSpaceTooLarge(ValueError):
    """The observed cell space exceeds the per-cell table guard."""


def check_cell_space(n_observed: int) -> int:
    """2**n_observed cells, or CellSpaceTooLarge when that exceeds MAX_CELLS."""
    n_cells = 1 << n_observed
    if n_cells > MAX_CELLS:
        raise CellSpaceTooLarge(f"2**{n_observed} cells exceeds the guard of {MAX_CELLS}")
    return n_cells


@dataclass(frozen=True)
class ScmConfig:
    """Full parameterization of the data-generating model.

    The first ``n_observed`` characteristics are visible to downstream
    consumers; the remaining ``n_unobserved`` are latent.  ``weights_x`` and
    ``weights_y`` are the linear score columns for the treatment and outcome
    mechanisms, ``bern_z`` holds one Bernoulli parameter per characteristic,
    and ``experiment_assign_prob`` is the treatment assignment rate under
    randomized experiments.  The widths pass ``check_integer`` and every
    other value ``check_number``, a list entry by entry, and probabilities
    lie in [0, 1]; ConfigError carries the message.
    """

    n_observed: int
    n_unobserved: int
    weights_x: tuple[float, ...]
    weights_y: tuple[float, ...]
    bern_z: tuple[float, ...]
    bern_ux: float
    bern_uy: float
    constant_c: float
    experiment_assign_prob: float = 0.5

    def __post_init__(self) -> None:
        try:
            n = check_integer(self.n_observed, "n_observed", 1)
            n += check_integer(self.n_unobserved, "n_unobserved", 0)
            for f in fields(self)[2:]:
                value = getattr(self, f.name)
                if f.name in ("weights_x", "weights_y", "bern_z"):
                    if not isinstance(value, (list, tuple)) or len(value) != n:
                        raise ValueError(
                            f"{f.name} must be a list of n_observed + n_unobserved = {n} "
                            f"numbers, got {value!r}"
                        )
                    value = tuple(check_number(x, f"{f.name}[{i}]") for i, x in enumerate(value))
                else:
                    value = check_number(value, f.name)
                object.__setattr__(self, f.name, value)
            probs = {f"bern_z[{i}]": p for i, p in enumerate(self.bern_z)}
            for name in ("bern_ux", "bern_uy", "experiment_assign_prob"):
                probs[name] = getattr(self, name)
            for name, p in probs.items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def n_total(self) -> int:
        return self.n_observed + self.n_unobserved

    @classmethod
    def from_dict(cls, data: dict) -> "ScmConfig":
        """Build a config from parsed JSON: one key per field, where only
        fields with a default may be left out and no other key may appear."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"config has unknown key {unknown[0]!r}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"config is missing key {missing[0]!r}")
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})

    @classmethod
    def load(cls, path: str | Path) -> "ScmConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def dump(self, path: str | Path) -> None:
        """Write the config as indented JSON through ``tables.atomic_write``."""
        from .tables import atomic_write  # tables imports this module

        with atomic_write(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    def canonical_json(self) -> str:
        """Whitespace- and order-normalized serialization.

        Two configs have equal canonical JSON iff their parsed values are
        equal, regardless of how the source files were formatted.
        """
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical serialization."""
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


@dataclass(frozen=True)
class FullProfile:
    """One complete assignment of all characteristics, observed then latent."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(map(int, self.bits))
        if not {0, 1}.issuperset(bits):
            raise ConfigError(f"bit vector must contain only 0/1, got {bits}")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


def cell_ids(bits: np.ndarray) -> np.ndarray:
    """Int64 ids of the rows of a (k, n) 0/1 array: column 0, the first
    observed characteristic, is the least-significant bit, so ids run
    0 .. 2**n - 1.  Bits are not checked."""
    # Built in the narrowest unsigned type that holds them: less memory to move.
    dtype = np.min_scalar_type((1 << min(bits.shape[1], 64)) - 1)
    ids = np.zeros(len(bits), dtype=dtype)
    for i in range(bits.shape[1]):
        ids |= bits[:, i].astype(dtype) << i
    return ids.astype(np.int64)


def cell_bits(ids: np.ndarray, n_bits: int) -> np.ndarray:
    """(k, n_bits) uint8 bits of an integer id array, least-significant
    first; the inverse of ``cell_ids``."""
    out = np.empty((len(ids), n_bits), dtype=np.uint8)
    for i in range(n_bits):
        out[:, i] = (ids >> i) & 1
    return out


def check_integer(value: int, name: str, low: int | None = None) -> int:
    """``value`` itself, if it is an ``int``, never a bool, a float or a
    str, and at least ``low`` when a low is given; ValueError otherwise."""
    if type(value) is not int:  # refuses 1.5, True and "1"
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def check_number(value: float, name: str) -> float:
    """``value`` as a float, if it is a finite ``int`` or ``float``, never a
    bool or a str; ValueError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_seed(seed: int) -> int:
    """``seed`` itself, if it can key a stream: an int with 0 <= seed < 2**64."""
    if not 0 <= check_integer(seed, "seed") < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def random_stream(key: int) -> np.random.Generator:
    """The generator of the random stream keyed ``key``, which ``check_seed``
    must accept; every stream is built here."""
    return np.random.Generator(np.random.Philox(key=check_seed(key)))


@cache
def default_config() -> ScmConfig:
    """The reference model bundled with the package (15 observed + 5 latent)."""
    text = resources.files("unitselect").joinpath("data/appendix_model.json").read_text()
    return ScmConfig.from_dict(json.loads(text))


def random_config(n_observed: int, n_unobserved: int, seed: int) -> ScmConfig:
    """Draw a model of the same family with random parameters.

    Weights and the outcome constant are uniform on [-1, 1]; every Bernoulli
    parameter is uniform on [0, 1]; the assignment rate keeps its default.
    Useful for desk-scale models where the full cell space can be enumerated.
    """
    rng = random_stream(seed)
    n = n_observed + n_unobserved
    return ScmConfig(
        n_observed=n_observed,
        n_unobserved=n_unobserved,
        weights_x=tuple(rng.uniform(-1.0, 1.0, n)),
        weights_y=tuple(rng.uniform(-1.0, 1.0, n)),
        bern_z=tuple(rng.uniform(0.0, 1.0, n)),
        bern_ux=float(rng.uniform(0.0, 1.0)),
        bern_uy=float(rng.uniform(0.0, 1.0)),
        constant_c=float(rng.uniform(-1.0, 1.0)),
    )


def m_value(profile: FullProfile, weights: Sequence[float]) -> float:
    """Linear score of a profile: dot product of its bits with a weight column."""
    if len(profile.bits) != len(weights):
        raise ConfigError(
            f"profile has {len(profile.bits)} bits but weight column has "
            f"{len(weights)} entries"
        )
    return float(sum(w for b, w in zip(profile.bits, weights) if b))


def eval_x(m_x, u_x):
    """Treatment mechanism: m_x + u_x > 0.5 (strict), as a bool, or elementwise
    as a bool array."""
    return m_x + u_x > 0.5


def eval_y(x, m_y, u_y, c: float):
    """Outcome mechanism: c*x + m_y + u_y lies strictly inside (0,1) or (1,2),
    as a bool, or elementwise as a bool array."""
    s = c * x + m_y + u_y
    return ((0.0 < s) & (s < 1.0)) | ((1.0 < s) & (s < 2.0))


def counterfactual_pair(
    profile: FullProfile, u_y: int, config: ScmConfig
) -> tuple[bool, bool]:
    """Outcome under both forced treatments, as (y without treatment, y with treatment)."""
    m_y = m_value(profile, config.weights_y)
    return (
        eval_y(0, m_y, u_y, config.constant_c),
        eval_y(1, m_y, u_y, config.constant_c),
    )
