"""Finite-data simulation: experimental and observational samples from a model.

Sampling is deterministic given (config, regime, n_samples, seed) and is
organized in fixed-size shards so that the output does not depend on how many
samples are requested at a time: shard ``s`` is generated from a counter-based
Philox stream keyed by ``seed ^ s`` (``model.check_seed`` keeps seeds in
[0, 2**64)), and the first k samples of any run are byte-identical to a run
asked for only k samples.

Per sample the uniform stream is consumed in a fixed order: one uniform per
characteristic (observed first, then unobserved), one for the treatment noise,
one for the outcome noise, and, in the experimental regime only, one for the
randomized treatment assignment.  A bit is 1 when its uniform is strictly
below the corresponding probability.  The uniforms are never formed: each is
a raw 64-bit Philox word ``w``, the uniform ``Generator.random`` would make of
it is ``(w >> 11) * 2**-53``, and that lies below ``p`` exactly when ``w``
lies below the integer threshold ``ceil(p * 2**53) << 11``, so the bits are
the ones the float comparison gives (a bit of probability 1 is always 1).
Treatment (when not assigned) and outcome are ``model.eval_x`` and
``eval_y`` run on a chunk of rows at once.

Rows expose only what a study would record: the observed characteristics,
treatment and outcome.  Latent characteristics and noise are drawn but never
written.  ``iter_blocks`` is the one generator: it yields a dataset shard by
shard as (m, n_observed+2) uint8 blocks of 0/1 columns ``z1..zn, x, y``, or,
with ``packed=True``, as (m,) little-endian uint32 words of the packed
format.  ``write_dataset`` stores a dataset as CSV or packed: fixed-width
records after a header (CSV) or none (packed), with a JSON sidecar naming the
format.  It formats the digits of a CSV file from blocks and writes the
words of a packed file as the workers made them.  ``iter_codes`` is the one
reader: it yields a stored dataset shard by shard, checked, as int64 row
codes ``cell_id*4 + x*2 + y``, the form ``cells.aggregate`` counts, so a
reader holds one shard at a time; ``read_dataset`` unpacks those codes into
one whole block.  ``row_codes`` is the one fold of 0/1 columns into those
codes: ``iter_codes`` folds a CSV shard's checked digits with it, and
``cells.aggregate`` a block, so this module alone knows the row layouts.

Because each shard has its own stream, shards can be made in any order and
on any thread.  ``iter_blocks`` generates shards ahead of its consumer on
one worker thread per CPU it may run on, one thread on one CPU (numpy
releases the interpreter lock while it fills and compares arrays), and
yields them in shard order; the bytes do not depend on the number of CPUs.
The consumer allocates each shard's block or words and a worker fills
them, drawing at most ``_CHUNK_WORDS`` raw words at a time, so a worker's
memory stays near two of those budgets whatever the width, and a shard is
freed where it was allocated.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import ScmConfig, cell_bits, cell_ids, check_cell_space, check_integer, check_seed
from .model import eval_x, eval_y, random_stream
from .tables import atomic_write

__all__ = [
    "SHARD_SIZE",
    "REGIMES",
    "DatasetMeta",
    "DatasetFormatError",
    "iter_blocks",
    "row_codes",
    "write_dataset",
    "iter_codes",
    "read_dataset",
    "read_meta",
    "meta_path",
]

SHARD_SIZE = 1 << 18
# Raw Philox words drawn at a time within a shard (1 MiB of uint64): a chunk
# is the largest power of two of rows, at least 4, whose words fit.
_CHUNK_WORDS = 1 << 17
REGIMES = ("experimental", "observational")

# Packed rows keep the observed bits from bit 0 of a uint32, x at bit 30 and
# y at bit 31.
_PACKED_X_BIT = 30
_SWAP_XY = np.array([0, 2, 1, 3], dtype=np.uint32)
# The bytes "0," read as a little-endian uint16.
_DIGIT_COMMA = np.uint16(ord("0") | ord(",") << 8)
_NEWLINE_SHIFT = np.uint16((ord(",") - ord("\n")) << 8)  # "0\n" + this is "0,"


class DatasetFormatError(ValueError):
    """A dataset file or its sidecar does not have the expected shape."""


@dataclass(frozen=True)
class DatasetMeta:
    """Sidecar describing how a dataset file was produced: every field is
    required, and ``n_observed`` must pass ``check_cell_space``."""

    kind: str
    n: int
    seed: int
    n_observed: int
    config_fingerprint: str
    format: str

    def __post_init__(self) -> None:
        if self.kind not in REGIMES:
            raise DatasetFormatError(f"unknown regime {self.kind!r}")
        try:
            check_integer(self.n, "n", 0)
            check_integer(self.n_observed, "n_observed", 1)
            check_seed(self.seed)
            check_cell_space(self.n_observed)
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from None
        if not isinstance(self.config_fingerprint, str):
            raise DatasetFormatError("config_fingerprint must be a string")
        if self.format not in ("csv", "packed"):
            raise DatasetFormatError(f"format must be 'csv' or 'packed', got {self.format!r}")


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    """The generator of shard ``shard``: the one place its stream is keyed."""
    return random_stream(seed ^ shard)


def _bit_rule(probs: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a (rows, len(probs)) uint64 array of raw Philox words to
    0/1 uint8 bits: bit j is 1 when the uniform ``Generator.random`` makes of
    its word lies strictly below ``probs[j]``.

    That uniform is ``k * 2**-53`` with ``k = w >> 11``, and ``k * 2**-53 < p``
    iff ``k < ceil(p * 2**53)`` iff ``w < ceil(p * 2**53) << 11``.  For p = 1
    that threshold is 2**64, which no uint64 holds, so its bit is set to 1."""
    steps = [math.ceil(math.ldexp(p, 53)) for p in probs]
    limits = np.array([c << 11 if c < 1 << 53 else 0 for c in steps], dtype=np.uint64)
    always = np.flatnonzero(np.array(steps) == 1 << 53)

    def bits(raw: np.ndarray) -> np.ndarray:
        out = (raw < limits).view(np.uint8)
        out[:, always] = 1
        return out

    return bits


def _gen_shard(
    config: ScmConfig, regime: str, shard: int, seed: int, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with rows [shard*SHARD_SIZE, shard*SHARD_SIZE + m) and
    return it: a (m, n_observed+2) uint8 array gets 0/1 columns, an (m,)
    "<u4" array the words of the packed format.

    The shard is drawn a chunk of rows at a time from its one bit generator,
    which continues its stream across calls, so the rows do not depend on
    the chunk size.  A chunk holds at most ``_CHUNK_WORDS`` raw words, so
    the words and the float copy of a chunk's characteristics each take at
    most 1 MiB at any width."""
    experimental = regime == "experimental"
    n, n_obs = config.n_total, config.n_observed
    # One probability per raw word of a row, in stream order.
    probs = [*config.bern_z, config.bern_ux, config.bern_uy]
    if experimental:
        probs.append(config.experiment_assign_prob)
    to_bits = _bit_rule(probs)
    chunk = 1 << max(2, (_CHUNK_WORDS // len(probs)).bit_length() - 1)
    weights_x = np.asarray(config.weights_x)
    weights_y = np.asarray(config.weights_y)
    id_weights = 2.0 ** np.arange(n_obs)
    stream = _shard_rng(seed, shard).bit_generator
    for start in range(0, len(out), chunk):
        rows = out[start : start + chunk]
        bits = to_bits(stream.random_raw((len(rows), len(probs))))
        zf = bits[:, :n].astype(np.float64)
        x = bits[:, n + 2] if experimental else eval_x(zf @ weights_x, bits[:, n])
        y = eval_y(x, zf @ weights_y, bits[:, n + 1], config.constant_c)
        if out.ndim == 1:
            # Exact in any summation order: the guard keeps ids below 2**24.
            rows[:] = zf[:, :n_obs] @ id_weights
            rows |= x.astype(np.uint32) << _PACKED_X_BIT
            rows |= y.astype(np.uint32) << _PACKED_X_BIT + 1
        else:
            rows[:, :n_obs] = bits[:, :n_obs]
            rows[:, n_obs] = x
            rows[:, n_obs + 1] = y
    return out


def _n_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def iter_blocks(
    config: ScmConfig, regime: str, n_samples: int, seed: int, *, packed: bool = False
) -> Iterator[np.ndarray]:
    """Yield the dataset shard by shard; concatenation order is sample order.

    Each shard is an (m, n_observed+2) uint8 block of 0/1 columns ``z1..zn,
    x, y``, or with ``packed`` the (m,) "<u4" words of the packed format: the
    cell id from bit 0, x at bit 30 and y at bit 31.

    Worker threads, one per CPU but no more than there are shards, generate
    up to one shard per worker ahead of the consumer; an empty dataset starts
    no thread.  Each shard's array is allocated here, on the consuming
    thread, and filled by a worker: an array a worker allocated would be
    freed into that worker's malloc arena, which keeps it.  Closing the
    iterator waits for the shards in flight; a worker's error is raised
    here."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    check_integer(n_samples, "n_samples", 0)
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
        row, dtype = ((), "<u4") if packed else ((config.n_observed + 2,), np.uint8)
        for shard, m in enumerate(sizes):
            out = np.empty((m, *row), dtype)
            ahead.append(pool.submit(_gen_shard, config, regime, shard, seed, out))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def meta_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def _block_to_csv_bytes(block: np.ndarray) -> np.ndarray:
    # Byte template: digit, separator, digit, separator, ..., digit, newline.
    m, n_cols = block.shape
    out = np.empty((m, 2 * n_cols), dtype=np.uint8)
    np.add(block, ord("0"), out=out[:, 0::2])
    out[:, 1::2] = ord(",")
    out[:, -1] = ord("\n")
    return out


def _layout(path: Path, n_observed: int) -> tuple[str, bytes, int]:
    """(format, header, bytes per row) of a dataset file, whose width
    ``DatasetMeta`` bounds: CSV for ".csv", packed uint32 words otherwise."""
    if path.suffix == ".csv":
        cols = [f"z{i + 1}" for i in range(n_observed)] + ["x", "y"]
        return "csv", (",".join(cols) + "\n").encode("ascii"), 2 * (n_observed + 2)
    return "packed", b"", 4


def write_dataset(
    path: str | Path, config: ScmConfig, regime: str, n_samples: int, seed: int
) -> DatasetMeta:
    """Generate a dataset and stream it to ``path``; returns the sidecar meta.

    The format follows the suffix, as in ``iter_codes``: CSV for ".csv",
    packed for anything else.  A CSV file's digits are formatted from the
    blocks of ``iter_blocks``; a packed file asks it for ``packed`` words
    and writes them as they come.  A JSON sidecar is written next to the
    file.  Arguments are checked before anything is written, and both files
    are written through ``tables.atomic_write``, so a failed run leaves an
    old dataset and its sidecar whole.
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

    with atomic_write(path, "wb") as fh:
        fh.write(header)
        for shard in iter_blocks(config, regime, n_samples, seed, packed=fmt == "packed"):
            (_block_to_csv_bytes(shard) if header else shard).tofile(fh)
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
    except (ValueError, TypeError) as exc:  # bad JSON, or a field DatasetMeta refuses
        raise DatasetFormatError(f"bad dataset sidecar {mp}: {exc}") from None


def iter_codes(path: str | Path) -> Iterator[np.ndarray]:
    """Yield a stored dataset ``SHARD_SIZE`` rows at a time, as int64 row
    codes ``cell_id*4 + x*2 + y`` in file order.

    The sidecar, the header, the body's size and its row count are checked
    before any row is decoded, and each shard's separators, digits or stray
    bits before it is yielded; a failed check raises DatasetFormatError.
    """
    path = Path(path)
    meta = read_meta(path)
    n_obs = meta.n_observed
    fmt, header, row_bytes = _layout(path, n_obs)
    if meta.format != fmt:
        raise DatasetFormatError(f"{meta_path(path)} describes a {meta.format} file, not {path}")
    # Packed words hold nothing but the id, x and y.
    stray = None if header else ~np.uint32((1 << n_obs) - 1 | 3 << _PACKED_X_BIT)
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
                yield row_codes(_csv_digits(fh, m, n_obs, path))
                continue
            words = np.fromfile(fh, "<u4", m)
            if (words & stray).any():
                raise DatasetFormatError(f"stray bits in packed file {path}")
            swapped = _SWAP_XY[words >> _PACKED_X_BIT]  # x + 2y becomes 2x + y
            words &= (1 << _PACKED_X_BIT) - 1
            words <<= 2
            words |= swapped
            yield words.astype(np.int64)


def _csv_digits(fh, m: int, n_obs: int, path: Path) -> np.ndarray:
    """The next ``m`` rows of a CSV body, checked, as a (m, n_obs+2) uint16
    block of 0/1 columns ``z1..zn, x, y``."""
    # A row is n_obs + 2 (digit, separator) byte pairs, read as uint16s:
    # "0," and "1," become 0 and 1, and so do "0\n" and "1\n" at its end.
    pairs = np.fromfile(fh, "<u2", m * (n_obs + 2)).reshape(m, n_obs + 2)
    pairs -= _DIGIT_COMMA
    pairs[:, -1] += _NEWLINE_SHIFT
    if pairs.max() > 1:
        pairs += _DIGIT_COMMA  # the bytes as read, to say what is wrong
        pairs[:, -1] -= _NEWLINE_SHIFT
        seps = pairs >> 8
        if (seps[:, :-1] != ord(",")).any() or (seps[:, -1] != ord("\n")).any():
            raise DatasetFormatError(f"malformed CSV rows in {path}")
        raise DatasetFormatError(f"non-binary values in {path}")
    return pairs


def row_codes(block: np.ndarray) -> np.ndarray:
    """Int64 row codes ``cell_id*4 + x*2 + y`` of a (m, n_observed+2) block of
    0/1 columns ``z1..zn, x, y`` of any dtype, read in place; not checked."""
    n_obs = block.shape[1] - 2
    codes = cell_ids(block[:, :n_obs])
    codes <<= 2
    codes |= cell_ids(block[:, : n_obs - 1 : -1])  # y, then x
    return codes


def read_dataset(path: str | Path) -> tuple[np.ndarray, DatasetMeta]:
    """Load a whole dataset and its sidecar; returns ((n, n_observed+2) uint8,
    meta): the codes of ``iter_codes``, with its checks, unpacked."""
    meta = read_meta(path)
    # Bit 0 of a code is y, bit 1 is x and the bits above are the cell id.
    order = [*range(2, meta.n_observed + 2), 1, 0]
    blocks = [cell_bits(codes, meta.n_observed + 2)[:, order] for codes in iter_codes(path)]
    return np.concatenate([np.empty((0, meta.n_observed + 2), np.uint8), *blocks]), meta
