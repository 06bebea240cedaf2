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

Because each shard has its own stream, shards can be made in any order and
on any thread.  With more than one CPU, ``iter_blocks`` generates shards
ahead of its consumer on one worker thread per CPU (numpy releases the
interpreter lock while it fills and compares arrays) and yields them in
shard order; the bytes are the same as when one thread makes them all.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .model import ExogenousAssignment, ScmConfig, cell_bits, cell_ids
from .tables import atomic_write

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
# Rows drawn at a time within a shard: measured fastest with one worker
# thread per CPU.
_CHUNK_ROWS = 1 << 14
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
    """Rows [shard*SHARD_SIZE, shard*SHARD_SIZE + m) as a (m, n_observed+2) 0/1 array.

    The shard is drawn ``_CHUNK_ROWS`` rows at a time from its one generator,
    which continues its stream across calls, so the rows do not depend on the
    chunk size and each chunk's temporaries stay in cache."""
    experimental = regime == "experimental"
    n, n_obs = config.n_total, config.n_observed
    # One probability per uniform column, in stream order.
    probs = np.array(
        [*config.bern_z, config.bern_ux, config.bern_uy]
        + ([config.experiment_assign_prob] if experimental else [])
    )
    weights_x = np.asarray(config.weights_x)
    weights_y = np.asarray(config.weights_y)
    rng = _shard_rng(seed, shard)
    out = np.empty((m, n_obs + 2), dtype=np.uint8)
    for start in range(0, m, _CHUNK_ROWS):
        bits = rng.random((min(_CHUNK_ROWS, m - start), len(probs))) < probs
        zf = bits[:, :n].astype(np.float64)
        if experimental:
            x = bits[:, n + 2]
        else:
            x = zf @ weights_x + bits[:, n] > 0.5
        s = config.constant_c * x + zf @ weights_y + bits[:, n + 1]
        rows = out[start : start + len(bits)]
        rows[:, :n_obs] = bits[:, :n_obs]
        rows[:, n_obs] = x
        rows[:, n_obs + 1] = ((0.0 < s) & (s < 1.0)) | ((1.0 < s) & (s < 2.0))
    return out


def _n_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def iter_blocks(
    config: ScmConfig, regime: str, n_samples: int, seed: int
) -> Iterator[np.ndarray]:
    """Yield the dataset shard by shard; concatenation order is sample order.

    With more than one CPU and more than one shard, worker threads generate
    up to one shard per CPU ahead of the consumer.  Closing the iterator
    waits for the shards in flight; a worker's error is raised here."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    sizes = [min(SHARD_SIZE, n_samples - shard * SHARD_SIZE) for shard in range(n_shards)]
    workers = min(_n_cpus(), n_shards)
    if workers < 2:
        for shard, m in enumerate(sizes):
            yield _gen_shard(config, regime, shard, m, seed)
        return
    # Imported here: concurrent.futures imports logging, which would slow
    # every command's start-up.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="unitselect-datagen")
    try:
        ahead = deque()
        for shard, m in enumerate(sizes):
            ahead.append(pool.submit(_gen_shard, config, regime, shard, m, seed))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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


def _check_packable(n_observed: int) -> None:
    if n_observed > _MAX_PACKED_OBSERVED:
        raise DatasetFormatError(
            f"packed format holds at most {_MAX_PACKED_OBSERVED} observed bits"
        )


def _block_to_packed(block: np.ndarray, n_observed: int) -> np.ndarray:
    words = cell_ids(block[:, :n_observed]).astype(np.uint32)
    words |= block[:, n_observed].astype(np.uint32) << _PACKED_X_BIT
    words |= block[:, n_observed + 1].astype(np.uint32) << _PACKED_Y_BIT
    return words.astype("<u4")


def write_dataset(
    path: str | Path, config: ScmConfig, regime: str, n_samples: int, seed: int
) -> DatasetMeta:
    """Generate a dataset and stream it to ``path``; returns the sidecar meta.

    The format follows the suffix, as in ``read_dataset``: CSV for ".csv",
    packed for anything else.  A JSON sidecar is written next to the file.
    Arguments are checked before anything is written, and both files are
    written through ``tables.atomic_write``, so a failed run leaves an old
    dataset and its sidecar whole.
    """
    path = Path(path)
    csv = path.suffix == ".csv"
    if not csv:
        _check_packable(config.n_observed)
    meta = DatasetMeta(
        kind=regime,
        n=n_samples,
        seed=seed,
        n_observed=config.n_observed,
        config_fingerprint=config.fingerprint,
    )

    with atomic_write(path, "wb") as fh:
        if csv:
            fh.write(_csv_header(config.n_observed))
        for block in iter_blocks(config, regime, n_samples, seed):
            if csv:
                _block_to_csv_bytes(block).tofile(fh)
            else:
                _block_to_packed(block, config.n_observed).tofile(fh)
    with atomic_write(meta_path(path), "w", encoding="ascii") as fh:
        json.dump(dataclasses.asdict(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def read_meta(path: str | Path) -> DatasetMeta:
    if not Path(path).exists():
        raise FileNotFoundError(f"no such dataset {path}")
    mp = meta_path(path)
    try:
        with open(mp, "r", encoding="ascii") as fh:
            return DatasetMeta(**json.load(fh))
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
    _check_packable(n_observed)
    if path.stat().st_size % 4:
        raise DatasetFormatError(f"packed file {path} is not a whole number of words")
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
