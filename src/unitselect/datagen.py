"""Finite-data simulation: experimental and observational samples from a model.

Sampling is deterministic given (config, regime, n_samples, seed) and is
organized in fixed-size shards so that the output does not depend on how many
samples are requested at a time: shard ``s`` is generated from a counter-based
Philox stream keyed by ``seed ^ s`` (``check_seed`` keeps seeds in
[0, 2**64)), and the first k samples of any run are byte-identical to a run
asked for only k samples.

Per sample the uniform stream is consumed in a fixed order: one uniform per
characteristic (observed first, then unobserved), one for the treatment noise,
one for the outcome noise, and, in the experimental regime only, one for the
randomized treatment assignment.  A bit is 1 when its uniform is strictly
below the corresponding probability.  Treatment (when not assigned) and
outcome are ``model.eval_x`` and ``eval_y`` run on a chunk of rows at once.

Rows expose only what a study would record: the observed characteristics,
treatment and outcome.  Latent characteristics and noise are drawn but never
written.  A dataset is a (n, n_observed+2) uint8 array of 0/1 columns
``z1..zn, x, y``, produced whole (``generate_array``) or shard by shard
(``iter_blocks``), and stored as CSV or as packed uint32 words: fixed-width
records after a header (CSV) or none (packed), with a JSON sidecar naming the
format.  ``iter_dataset`` reads a stored dataset back shard by shard, so a
reader holds one shard at a time; ``read_dataset`` reads it whole.

Because each shard has its own stream, shards can be made in any order and
on any thread.  ``iter_blocks`` generates shards ahead of its consumer on
one worker thread per CPU it may run on, one thread on one CPU (numpy
releases the interpreter lock while it fills and compares arrays), and
yields them in shard order; the bytes do not depend on the number of CPUs.
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

from .model import ExogenousAssignment, ScmConfig, cell_bits, cell_ids, eval_x, eval_y
from .tables import atomic_write

__all__ = [
    "SHARD_SIZE",
    "REGIMES",
    "DatasetMeta",
    "DatasetFormatError",
    "check_seed",
    "draw_exogenous",
    "iter_blocks",
    "generate_array",
    "write_dataset",
    "iter_dataset",
    "read_dataset",
    "read_meta",
    "meta_path",
]

SHARD_SIZE = 1 << 18
# Rows drawn at a time within a shard: measured fastest with one worker
# thread per CPU.
_CHUNK_ROWS = 1 << 14
REGIMES = ("experimental", "observational")

# Packed rows keep the observed bits from bit 0 of a uint32, x at bit 30 and
# y at bit 31.
_PACKED_X_BIT = 30
_MAX_PACKED_OBSERVED = 30


class DatasetFormatError(ValueError):
    """A dataset file or its sidecar does not have the expected shape."""


@dataclass(frozen=True)
class DatasetMeta:
    """Sidecar describing how a dataset file was produced.  ``format`` is
    "csv" or "packed", or None in a sidecar written before it was recorded."""

    kind: str
    n: int
    seed: int
    n_observed: int
    config_fingerprint: str
    format: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGIMES:
            raise DatasetFormatError(f"unknown regime {self.kind!r}")
        for name in ("n", "seed", "n_observed"):
            if type(getattr(self, name)) is not int:  # refuses 4.0, true and "4"
                raise DatasetFormatError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 0:
            raise DatasetFormatError("n must be nonnegative")
        if self.n_observed < 1:
            raise DatasetFormatError("n_observed must be at least 1")
        if not isinstance(self.config_fingerprint, str):
            raise DatasetFormatError("config_fingerprint must be a string")
        if self.format not in (None, "csv", "packed"):
            raise DatasetFormatError(f"format must be 'csv' or 'packed', got {self.format!r}")


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


def check_seed(seed: int) -> int:
    """``seed`` itself, if it can key a stream: 0 <= seed < 2**64."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed ^ shard))


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
        x = bits[:, n + 2] if experimental else eval_x(zf @ weights_x, bits[:, n])
        rows = out[start : start + len(bits)]
        rows[:, :n_obs] = bits[:, :n_obs]
        rows[:, n_obs] = x
        rows[:, n_obs + 1] = eval_y(x, zf @ weights_y, bits[:, n + 1], config.constant_c)
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

    Worker threads, one per CPU but no more than there are shards, generate
    up to one shard per worker ahead of the consumer; an empty dataset starts
    no thread.  Closing the iterator waits for the shards in flight; a
    worker's error is raised here."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    check_seed(seed)
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    sizes = [min(SHARD_SIZE, n_samples - shard * SHARD_SIZE) for shard in range(n_shards)]
    if n_shards == 0:
        return
    workers = min(_n_cpus(), n_shards)
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


def _block_to_csv_bytes(block: np.ndarray) -> np.ndarray:
    # Byte template: digit, separator, digit, separator, ..., digit, newline.
    m, n_cols = block.shape
    out = np.empty((m, 2 * n_cols), dtype=np.uint8)
    out[:, 0::2] = block + ord("0")
    out[:, 1::2] = ord(",")
    out[:, -1] = ord("\n")
    return out


def _layout(path: Path, n_observed: int) -> tuple[str, bytes, int]:
    """(format, header, bytes per row) of a dataset file: CSV for the suffix
    ".csv", packed uint32 words for any other."""
    if path.suffix == ".csv":
        cols = [f"z{i + 1}" for i in range(n_observed)] + ["x", "y"]
        return "csv", (",".join(cols) + "\n").encode("ascii"), 2 * (n_observed + 2)
    if n_observed > _MAX_PACKED_OBSERVED:
        raise DatasetFormatError(
            f"packed format holds at most {_MAX_PACKED_OBSERVED} observed bits"
        )
    return "packed", b"", 4


def write_dataset(
    path: str | Path, config: ScmConfig, regime: str, n_samples: int, seed: int
) -> DatasetMeta:
    """Generate a dataset and stream it to ``path``; returns the sidecar meta.

    The format follows the suffix, as in ``iter_dataset``: CSV for ".csv",
    packed for anything else.  A JSON sidecar is written next to the file.
    Arguments are checked before anything is written, and both files are
    written through ``tables.atomic_write``, so a failed run leaves an old
    dataset and its sidecar whole.
    """
    path = Path(path)
    fmt, header, _ = _layout(path, config.n_observed)
    meta = DatasetMeta(
        kind=regime,
        n=n_samples,
        seed=seed,
        n_observed=config.n_observed,
        config_fingerprint=config.fingerprint,
        format=fmt,
    )

    n = config.n_observed
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        for block in iter_blocks(config, regime, n_samples, seed):
            if header:
                _block_to_csv_bytes(block).tofile(fh)
            else:
                words = cell_ids(block[:, :n]) | cell_ids(block[:, n:]) << _PACKED_X_BIT
                words.astype("<u4").tofile(fh)
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


def iter_dataset(path: str | Path) -> Iterator[np.ndarray]:
    """Yield a stored dataset ``SHARD_SIZE`` rows at a time, as uint8 blocks
    of (m, n_observed+2) 0/1 values in file order.

    The sidecar, the header, the body's size and its row count are checked
    before any row is decoded, and each block before it is yielded; a failed
    check raises DatasetFormatError.
    """
    path = Path(path)
    meta = read_meta(path)
    n_obs = meta.n_observed
    fmt, header, row_bytes = _layout(path, n_obs)
    if meta.format not in (None, fmt):
        raise DatasetFormatError(f"{meta_path(path)} describes a {meta.format} file, not {path}")
    allowed = np.uint32((1 << n_obs) - 1 | 3 << _PACKED_X_BIT)
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            raise DatasetFormatError(f"unexpected CSV header in {path}")
        size = os.fstat(fh.fileno()).st_size - len(header)
        if size % row_bytes:
            raise DatasetFormatError(
                f"ragged CSV body in {path}" if header
                else f"packed file {path} is not a whole number of words"
            )
        if size // row_bytes != meta.n:
            raise DatasetFormatError(f"{path} has {size // row_bytes} rows, sidecar says {meta.n}")
        for start in range(0, meta.n, SHARD_SIZE):
            m = min(SHARD_SIZE, meta.n - start)
            if header:
                rows = np.fromfile(fh, np.uint8, m * row_bytes).reshape(m, row_bytes)
                seps = rows[:, 1::2]
                if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
                    raise DatasetFormatError(f"malformed CSV rows in {path}")
                # uint8 arithmetic: a byte below "0" wraps past 1, so <= 1 means 0 or 1.
                block = rows[:, 0::2] - np.uint8(ord("0"))
                if not (block <= 1).all():
                    raise DatasetFormatError(f"non-binary values in {path}")
            else:
                words = np.fromfile(fh, "<u4", m)
                if (words & ~allowed).any():
                    raise DatasetFormatError(f"stray bits in packed file {path}")
                block = cell_bits(words, n_obs + 2)  # the top two columns are 0
                block[:, n_obs:] = cell_bits(words >> np.uint32(_PACKED_X_BIT), 2)
            yield block


def read_dataset(path: str | Path) -> tuple[np.ndarray, DatasetMeta]:
    """Load a whole dataset and its sidecar; returns ((n, n_observed+2) uint8,
    meta).  The data are the blocks of ``iter_dataset``, concatenated."""
    meta = read_meta(path)
    blocks = [np.empty((0, meta.n_observed + 2), np.uint8), *iter_dataset(path)]
    return np.concatenate(blocks), meta
