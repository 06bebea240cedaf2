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
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_CELLS",
    "CellSpaceTooLarge",
    "check_cell_space",
    "ConfigError",
    "ScmConfig",
    "FullProfile",
    "CellKey",
    "cell_ids",
    "cell_bits",
    "random_stream",
    "ExogenousAssignment",
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


def _as_prob(value: float, name: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return p


@dataclass(frozen=True)
class ScmConfig:
    """Full parameterization of the data-generating model.

    The first ``n_observed`` characteristics are visible to downstream
    consumers; the remaining ``n_unobserved`` are latent.  ``weights_x`` and
    ``weights_y`` are the linear score columns for the treatment and outcome
    mechanisms, ``bern_z`` holds one Bernoulli parameter per characteristic,
    and ``experiment_assign_prob`` is the treatment assignment rate under
    randomized experiments.
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
        if self.n_observed < 1:
            raise ConfigError(f"n_observed must be >= 1, got {self.n_observed}")
        if self.n_unobserved < 0:
            raise ConfigError(f"n_unobserved must be >= 0, got {self.n_unobserved}")
        n = self.n_observed + self.n_unobserved
        for name in ("weights_x", "weights_y", "bern_z"):
            vec = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vec)
            if len(vec) != n:
                raise ConfigError(
                    f"{name} must have length n_observed + n_unobserved = {n}, "
                    f"got {len(vec)}"
                )
            if not all(np.isfinite(vec)):
                raise ConfigError(f"{name} contains non-finite entries")
        for p in self.bern_z:
            _as_prob(p, "bern_z entry")
        object.__setattr__(self, "bern_ux", _as_prob(self.bern_ux, "bern_ux"))
        object.__setattr__(self, "bern_uy", _as_prob(self.bern_uy, "bern_uy"))
        object.__setattr__(
            self,
            "experiment_assign_prob",
            _as_prob(self.experiment_assign_prob, "experiment_assign_prob"),
        )
        if not np.isfinite(self.constant_c):
            raise ConfigError("constant_c must be finite")
        object.__setattr__(self, "constant_c", float(self.constant_c))

    @property
    def n_total(self) -> int:
        return self.n_observed + self.n_unobserved

    @classmethod
    def from_dict(cls, data: dict) -> "ScmConfig":
        """Build a config from parsed JSON: one key per field, where only
        fields with a default may be left out and unknown keys are ignored.
        Both widths must be JSON integers, and every other field a JSON
        number or a list of them: no string, boolean or null."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        try:
            kwargs = {
                f.name: data[f.name]
                for f in fields(cls)
                if f.default is MISSING or f.name in data
            }
            for name in ("n_observed", "n_unobserved"):
                if type(kwargs[name]) is not int:  # refuses 15.7, true and "15"
                    raise ConfigError(f"{name} must be an integer, got {kwargs[name]!r}")
            for name, value in kwargs.items():
                items = value if isinstance(value, (list, tuple)) else [value]
                # float() would load true as 1.0 and "0.5" as 0.5.
                if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in items):
                    raise ConfigError(f"{name} must hold numbers, got {value!r}")
            return cls(**kwargs)
        except KeyError as exc:
            raise ConfigError(f"config is missing key {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ConfigError(f"config has a value of the wrong type: {exc}") from exc

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


_BINARY = frozenset((0, 1))


def _check_bits(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(map(int, bits))
    if not _BINARY.issuperset(out):
        raise ConfigError(f"bit vector must contain only 0/1, got {out}")
    return out


@dataclass(frozen=True)
class FullProfile:
    """One complete assignment of all characteristics, observed then latent."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _check_bits(self.bits))

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class CellKey:
    """An assignment of the observed characteristics only.

    The integer ``id`` encodes the bits with the first observed characteristic
    as the least-significant bit, so ids run 0 .. 2**n_observed - 1.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = _check_bits(self.bits)
        if not bits:
            raise ConfigError("CellKey needs at least one observed bit")
        object.__setattr__(self, "bits", bits)

    @property
    def id(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    @classmethod
    def from_id(cls, cell_id: int, n_observed: int) -> "CellKey":
        if not 0 <= cell_id < (1 << n_observed):
            raise ConfigError(
                f"cell id {cell_id} out of range for {n_observed} observed bits"
            )
        return cls(tuple((cell_id >> i) & 1 for i in range(n_observed)))


def cell_ids(bits: np.ndarray) -> np.ndarray:
    """Int64 ids of the rows of a (k, n) 0/1 array, encoded as ``CellKey.id``:
    column 0 is the least-significant bit.  Bits are not checked."""
    # Built in the narrowest unsigned type that holds them: less memory to move.
    dtype = np.min_scalar_type((1 << min(bits.shape[1], 64)) - 1)
    ids = np.zeros(len(bits), dtype=dtype)
    for i in range(bits.shape[1]):
        ids |= bits[:, i].astype(dtype) << i
    return ids.astype(np.int64)


def cell_bits(ids: np.ndarray, n_bits: int) -> np.ndarray:
    """(k, n_bits) uint8 bits of an integer id array; the inverse of
    ``cell_ids`` and the array form of ``CellKey.from_id``."""
    out = np.empty((len(ids), n_bits), dtype=np.uint8)
    for i in range(n_bits):
        out[:, i] = (ids >> i) & 1
    return out


def random_stream(key: int) -> np.random.Generator:
    """The generator of the random stream keyed ``key``; every stream is built here."""
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ExogenousAssignment:
    """One realization of all exogenous noise bits."""

    z: tuple[int, ...]
    u_x: int
    u_y: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _check_bits(self.z))
        object.__setattr__(self, "u_x", int(self.u_x))
        object.__setattr__(self, "u_y", int(self.u_y))


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
