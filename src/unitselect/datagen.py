"""Finite-data simulation: experimental and observational samples from a model.

Sampling is deterministic given (config, regime, n_samples, seed) and is
organized in fixed-size shards so that the output does not depend on how many
samples are requested at a time: shard ``s`` is generated from a counter-based
Philox stream keyed by ``seed ^ s``, and the first k samples of any run are
byte-identical to a run asked for only k samples.

Per sample the uniform stream is consumed in a fixed order: one uniform per
characteristic (observed first, then unobserved), one for the treatment noise,
one for the outcome noise, and, in the experimental regime only, one for the
randomized treatment assignment.  A bit is 1 when its uniform is strictly
below the corresponding probability.

Rows expose only what a study would record: the observed characteristics,
treatment and outcome.  Latent characteristics and noise are drawn but never
written.  A dataset is a (n, n_observed+2) uint8 array of 0/1 columns
``z1..zn, x, y``, produced whole (``generate_array``) or shard by shard
(``iter_blocks``), and stored as CSV or as packed uint32 words.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .model import ExogenousAssignment, ScmConfig, cell_bits, cell_ids

__all__ = [
    "SHARD_SIZE",
    "REGIMES",
    "DatasetMeta",
    "DatasetFormatError",
    "draw_exogenous",
    "iter_blocks",
    "generate_array",
    "write_dataset",
    "read_dataset",
    "read_meta",
    "meta_path",
]

SHARD_SIZE = 1 << 18
REGIMES = ("experimental", "observational")

_KEY_MASK = (1 << 64) - 1
# Packed rows keep the observed bits in a uint32 alongside x and y.
_PACKED_X_BIT = 30
_PACKED_Y_BIT = 31
_MAX_PACKED_OBSERVED = 30


class DatasetFormatError(ValueError):
    """A dataset file or its sidecar does not have the expected shape."""


@dataclass(frozen=True)
class DatasetMeta:
    """Sidecar describing how a dataset file was produced."""

    kind: str
    n: int
    seed: int
    n_observed: int
    config_fingerprint: str

    def __post_init__(self) -> None:
        if self.kind not in REGIMES:
            raise DatasetFormatError(f"unknown regime {self.kind!r}")
        if self.n < 0:
            raise DatasetFormatError("n must be nonnegative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetMeta":
        return cls(**d)


def draw_exogenous(uniforms: Sequence[float], config: ScmConfig) -> ExogenousAssignment:
    """Map one sample's exogenous uniforms to bits.

    Expects exactly n_total + 2 uniforms in stream order: characteristics,
    treatment noise, outcome noise.
    """
    n = config.n_total
    if len(uniforms) != n + 2:
        raise ValueError(f"expected {n + 2} uniforms, got {len(uniforms)}")
    z = tuple(int(uniforms[i] < config.bern_z[i]) for i in range(n))
    return ExogenousAssignment(
        z=z,
        u_x=int(uniforms[n] < config.bern_ux),
        u_y=int(uniforms[n + 1] < config.bern_uy),
    )


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed ^ shard) & _KEY_MASK))


def _gen_shard(
    config: ScmConfig, regime: str, shard: int, m: int, seed: int
) -> np.ndarray:
    """Rows [shard*SHARD_SIZE, shard*SHARD_SIZE + m) as a (m, n_observed+2) 0/1 array."""
    experimental = regime == "experimental"
    width = config.n_total + 2 + (1 if experimental else 0)
    u = _shard_rng(seed, shard).random((m, width))

    bern_z = np.asarray(config.bern_z)
    z = u[:, : config.n_total] < bern_z
    u_y = u[:, config.n_total + 1] < config.bern_uy

    zf = z.astype(np.float64)
    if experimental:
        x = u[:, config.n_total + 2] < config.experiment_assign_prob
    else:
        u_x = u[:, config.n_total] < config.bern_ux
        m_x = zf @ np.asarray(config.weights_x)
        x = m_x + u_x > 0.5

    m_y = zf @ np.asarray(config.weights_y)
    s = config.constant_c * x + m_y + u_y
    y = ((0.0 < s) & (s < 1.0)) | ((1.0 < s) & (s < 2.0))

    out = np.empty((m, config.n_observed + 2), dtype=np.uint8)
    out[:, : config.n_observed] = z[:, : config.n_observed]
    out[:, config.n_observed] = x
    out[:, config.n_observed + 1] = y
    return out


def iter_blocks(
    config: ScmConfig, regime: str, n_samples: int, seed: int
) -> Iterator[np.ndarray]:
    """Yield the dataset shard by shard; concatenation order is sample order."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    for shard in range(n_shards):
        m = min(SHARD_SIZE, n_samples - shard * SHARD_SIZE)
        yield _gen_shard(config, regime, shard, m, seed)


def generate_array(
    config: ScmConfig, regime: str, n_samples: int, seed: int
) -> np.ndarray:
    """Whole dataset as a (n_samples, n_observed+2) uint8 array."""
    blocks = list(iter_blocks(config, regime, n_samples, seed))
    if not blocks:
        return np.empty((0, config.n_observed + 2), dtype=np.uint8)
    return np.concatenate(blocks, axis=0)


def meta_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def _csv_header(n_observed: int) -> bytes:
    cols = [f"z{i + 1}" for i in range(n_observed)] + ["x", "y"]
    return (",".join(cols) + "\n").encode("ascii")


def _block_to_csv_bytes(block: np.ndarray) -> np.ndarray:
    # Byte template: digit, separator, digit, separator, ..., digit, newline.
    m, n_cols = block.shape
    out = np.empty((m, 2 * n_cols), dtype=np.uint8)
    out[:, 0::2] = block + ord("0")
    out[:, 1::2] = ord(",")
    out[:, -1] = ord("\n")
    return out


def _block_to_packed(block: np.ndarray, n_observed: int) -> np.ndarray:
    if n_observed > _MAX_PACKED_OBSERVED:
        raise DatasetFormatError(
            f"packed format holds at most {_MAX_PACKED_OBSERVED} observed bits"
        )
    words = cell_ids(block[:, :n_observed]).astype(np.uint32)
    words |= block[:, n_observed].astype(np.uint32) << _PACKED_X_BIT
    words |= block[:, n_observed + 1].astype(np.uint32) << _PACKED_Y_BIT
    return words.astype("<u4")


def write_dataset(
    path: str | Path,
    config: ScmConfig,
    regime: str,
    n_samples: int,
    seed: int,
    fmt: str | None = None,
) -> DatasetMeta:
    """Generate a dataset and stream it to ``path``; returns the sidecar meta.

    ``fmt`` is "csv" or "packed"; when omitted it is inferred from the suffix
    (".csv" vs anything else).  A JSON sidecar is written next to the file.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix == ".csv" else "packed"
    if fmt not in ("csv", "packed"):
        raise ValueError(f"unknown format {fmt!r}")

    with open(path, "wb") as fh:
        if fmt == "csv":
            fh.write(_csv_header(config.n_observed))
        for block in iter_blocks(config, regime, n_samples, seed):
            if fmt == "csv":
                _block_to_csv_bytes(block).tofile(fh)
            else:
                _block_to_packed(block, config.n_observed).tofile(fh)

    meta = DatasetMeta(
        kind=regime,
        n=n_samples,
        seed=seed,
        n_observed=config.n_observed,
        config_fingerprint=config.fingerprint,
    )
    with open(meta_path(path), "w", encoding="ascii") as fh:
        json.dump(meta.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def read_meta(path: str | Path) -> DatasetMeta:
    if not Path(path).exists():
        raise FileNotFoundError(f"no such dataset {path}")
    mp = meta_path(path)
    try:
        with open(mp, "r", encoding="ascii") as fh:
            return DatasetMeta.from_dict(json.load(fh))
    except FileNotFoundError:
        # the dataset exists, so this is a broken pair rather than a bad path
        raise DatasetFormatError(f"missing dataset sidecar {mp}") from None
    except (json.JSONDecodeError, TypeError) as exc:
        raise DatasetFormatError(f"bad dataset sidecar {mp}: {exc}") from None


def _read_csv(path: Path, n_observed: int) -> np.ndarray:
    n_cols = n_observed + 2
    raw = path.read_bytes()
    header = _csv_header(n_observed)
    if not raw.startswith(header):
        raise DatasetFormatError(f"unexpected CSV header in {path}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=len(header))
    if body.size % (2 * n_cols):
        raise DatasetFormatError(f"ragged CSV body in {path}")
    rows = body.reshape(-1, 2 * n_cols)
    if rows.size:
        seps = rows[:, 1::2]
        if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
            raise DatasetFormatError(f"malformed CSV rows in {path}")
    # uint8 arithmetic: a byte below "0" wraps past 1, so <= 1 means 0 or 1.
    vals = rows[:, 0::2] - np.uint8(ord("0"))
    if not (vals <= 1).all():
        raise DatasetFormatError(f"non-binary values in {path}")
    return vals


def _read_packed(path: Path, n_observed: int) -> np.ndarray:
    if n_observed > _MAX_PACKED_OBSERVED:
        raise DatasetFormatError(
            f"packed format holds at most {_MAX_PACKED_OBSERVED} observed bits"
        )
    words = np.fromfile(path, dtype="<u4")
    out = np.empty((len(words), n_observed + 2), dtype=np.uint8)
    out[:, :n_observed] = cell_bits(words, n_observed)
    out[:, n_observed] = (words >> np.uint32(_PACKED_X_BIT)) & 1
    out[:, n_observed + 1] = (words >> np.uint32(_PACKED_Y_BIT)) & 1
    stray = words & ~(
        np.uint32((1 << n_observed) - 1)
        | np.uint32(1 << _PACKED_X_BIT)
        | np.uint32(1 << _PACKED_Y_BIT)
    )
    if stray.any():
        raise DatasetFormatError(f"stray bits in packed file {path}")
    return out


def read_dataset(path: str | Path) -> tuple[np.ndarray, DatasetMeta]:
    """Load a dataset and its sidecar; returns ((n, n_observed+2) uint8, meta)."""
    path = Path(path)
    meta = read_meta(path)
    if path.suffix == ".csv":
        data = _read_csv(path, meta.n_observed)
    else:
        data = _read_packed(path, meta.n_observed)
    if len(data) != meta.n:
        raise DatasetFormatError(f"{path} has {len(data)} rows, sidecar says {meta.n}")
    return data, meta
