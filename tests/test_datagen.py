import dataclasses
import json
import math
import re
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from unitselect import datagen, default_config, random_config
from unitselect.datagen import (
    REGIMES,
    SHARD_SIZE,
    DatasetFormatError,
    DatasetMeta,
    iter_blocks,
    iter_codes,
    meta_path,
    read_dataset,
    read_meta,
    row_codes,
    write_dataset,
    _shard_rng,
)
from unitselect.model import FullProfile, cell_ids, eval_x, eval_y, m_value


def _rows(config, regime, n, seed):
    """The whole dataset: the blocks of ``iter_blocks``, concatenated."""
    blocks = iter_blocks(config, regime, n, seed)
    return np.concatenate([np.empty((0, config.n_observed + 2), np.uint8), *blocks])


def test_scalar_stream_matches_vectorized_rows(desk4):
    # the documented draw order: characteristics, u_x, u_y, then the
    # experimental assignment uniform; a bit is 1 when its uniform lies
    # strictly below its probability
    n = desk4.n_total
    probs = np.array([*desk4.bern_z, desk4.bern_ux, desk4.bern_uy])
    arr = _rows(desk4, "experimental", 64, seed=123)
    u = _shard_rng(123, 0).random((64, n + 3))
    for i in range(64):
        bits = u[i, : n + 2] < probs
        profile = FullProfile(bits[:n])
        x = int(u[i, n + 2] < desk4.experiment_assign_prob)
        y = eval_y(x, m_value(profile, desk4.weights_y), bits[n + 1], desk4.constant_c)
        assert tuple(int(b) for b in arr[i]) == profile.bits[: desk4.n_observed] + (x, y)

    arr_obs = _rows(desk4, "observational", 64, seed=123)
    u = _shard_rng(123, 0).random((64, n + 2))
    for i in range(64):
        bits = u[i] < probs
        profile = FullProfile(bits[:n])
        x = eval_x(m_value(profile, desk4.weights_x), bits[n])
        y = eval_y(x, m_value(profile, desk4.weights_y), bits[n + 1], desk4.constant_c)
        assert tuple(int(b) for b in arr_obs[i]) == profile.bits[: desk4.n_observed] + (x, y)


def test_determinism_and_prefix(desk4):
    a = _rows(desk4, "observational", 2000, seed=9)
    b = _rows(desk4, "observational", 2000, seed=9)
    assert np.array_equal(a, b)
    c = _rows(desk4, "observational", 700, seed=9)
    assert np.array_equal(a[:700], c)
    d = _rows(desk4, "observational", 2000, seed=10)
    assert not np.array_equal(a, d)


def test_sharding_is_transparent(desk4):
    # more than one shard: concatenated blocks equal the one-call result
    n = SHARD_SIZE + 1234
    blocks = list(iter_blocks(desk4, "experimental", n, seed=3))
    assert len(blocks) == 2
    assert len(blocks[0]) == SHARD_SIZE and len(blocks[1]) == 1234
    whole = _rows(desk4, "experimental", n, seed=3)
    assert np.array_equal(np.concatenate(blocks), whole)
    # a shard's content does not depend on how much of it is requested
    small = _rows(desk4, "experimental", SHARD_SIZE + 10, seed=3)
    assert np.array_equal(whole[: SHARD_SIZE + 10], small)


def test_empirical_rates_appendix(appendix):
    n = 1_000_000
    arr = _rows(appendix, "experimental", n, seed=77)
    # z1 frequency within 5 sigma of its Bernoulli parameter
    p = appendix.bern_z[0]
    assert abs(arr[:, 0].mean() - p) < 5 * np.sqrt(p * (1 - p) / n)
    # randomized treatment rate within 5 sigma of one half
    assert abs(arr[:, 15].mean() - 0.5) < 5 * np.sqrt(0.25 / n)


def test_regime_difference(desk4):
    n = 200_000
    exp = _rows(desk4, "experimental", n, seed=21)
    obs = _rows(desk4, "observational", n, seed=21)
    # experimental: treatment independent of every observed characteristic
    for j in range(4):
        on = exp[exp[:, j] == 1, 4].mean()
        off = exp[exp[:, j] == 0, 4].mean()
        assert abs(on - off) < 0.02
    # observational: the mechanism couples x to the characteristics
    gaps = []
    for j in range(4):
        on = obs[obs[:, j] == 1, 4].mean()
        off = obs[obs[:, j] == 0, 4].mean()
        gaps.append(abs(on - off))
    assert max(gaps) > 0.05


def test_csv_dataset_roundtrip(tmp_path, desk4):
    path = tmp_path / "exp.csv"
    meta = write_dataset(path, desk4, "experimental", 500, seed=4)
    assert meta.kind == "experimental"
    assert meta.n == 500
    assert meta.config_fingerprint == desk4.fingerprint
    header = path.read_bytes().splitlines()[0]
    assert header == b"z1,z2,z3,z4,x,y"
    data, meta2 = read_dataset(path)
    assert meta2 == meta
    assert np.array_equal(data, _rows(desk4, "experimental", 500, seed=4))
    # regeneration is byte-identical, sidecar included
    path2 = tmp_path / "exp2.csv"
    write_dataset(path2, desk4, "experimental", 500, seed=4)
    assert path.read_bytes() == path2.read_bytes()
    assert json.loads(meta_path(path).read_text()) == json.loads(
        meta_path(path2).read_text()
    )


def test_packed_dataset_roundtrip(tmp_path, desk4):
    path = tmp_path / "obs.bin"
    write_dataset(path, desk4, "observational", 500, seed=4)
    data, meta = read_dataset(path)
    assert meta.kind == "observational"
    assert np.array_equal(data, _rows(desk4, "observational", 500, seed=4))
    # 4 bytes per sample
    assert path.stat().st_size == 500 * 4
    # bit layout: observed bits from bit 0, x at bit 30, y at bit 31
    words = np.fromfile(path, dtype="<u4")
    row = data[0]
    expect = sum(int(row[i]) << i for i in range(4)) | int(row[4]) << 30 | int(row[5]) << 31
    assert int(words[0]) == expect


@pytest.mark.parametrize("suffix", [".csv", ".bin", ".dat"])
def test_format_follows_the_suffix(tmp_path, desk4, suffix):
    path = tmp_path / f"obs{suffix}"
    write_dataset(path, desk4, "observational", 300, seed=5)
    if suffix == ".csv":
        assert path.read_bytes().startswith(b"z1,z2,z3,z4,x,y\n")
    else:
        assert path.stat().st_size == 300 * 4
    data, _ = read_dataset(path)
    assert np.array_equal(data, _rows(desk4, "observational", 300, seed=5))


def test_empty_dataset(tmp_path, desk4):
    path = tmp_path / "empty.csv"
    meta = write_dataset(path, desk4, "experimental", 0, seed=1)
    assert meta.n == 0
    data, _ = read_dataset(path)
    assert data.shape == (0, 6)
    binp = tmp_path / "empty.bin"
    write_dataset(binp, desk4, "experimental", 0, seed=1)
    data, _ = read_dataset(binp)
    assert data.shape == (0, 6)


def test_write_dataset_checks_before_opening(tmp_path, desk4, monkeypatch):
    opened = []
    monkeypatch.setattr(datagen, "atomic_write", lambda *a, **k: opened.append(a))
    wide = random_config(25, 0, seed=1)  # one bit past the cell-space guard
    for name in ("d.bin", "d.csv"):
        for n in (0, 10):
            with pytest.raises(DatasetFormatError, match=r"2\*\*25 cells exceeds the guard"):
                write_dataset(tmp_path / name, wide, "experimental", n, seed=1)
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "d.csv", desk4, "interventional", 10, seed=1)
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "d.csv", desk4, "experimental", -1, seed=1)
    assert opened == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_packed_file_must_hold_whole_words(tmp_path, desk4, extra):
    # np.fromfile alone would drop the trailing bytes and read 1,000 rows
    path = tmp_path / "obs.bin"
    write_dataset(path, desk4, "observational", 1000, seed=1)
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(DatasetFormatError, match="whole number of words"):
        read_dataset(path)


def test_read_errors(tmp_path, desk4):
    path = tmp_path / "exp.csv"
    write_dataset(path, desk4, "experimental", 10, seed=1)
    # missing sidecar
    orphan = tmp_path / "orphan.csv"
    orphan.write_bytes(path.read_bytes())
    with pytest.raises(DatasetFormatError):
        read_dataset(orphan)
    # truncated body
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(DatasetFormatError):
        read_dataset(path)
    # row count disagrees with sidecar
    binp = tmp_path / "obs.bin"
    write_dataset(binp, desk4, "observational", 10, seed=1)
    binp.write_bytes(binp.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(DatasetFormatError):
        read_dataset(binp)
    # stray bits in packed words
    bad = tmp_path / "bad.bin"
    write_dataset(bad, desk4, "observational", 10, seed=1)
    words = np.fromfile(bad, dtype="<u4")
    words[0] |= 1 << 10  # beyond the 4 observed bits
    words.astype("<u4").tofile(bad)
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


@pytest.mark.parametrize("digit", [b"2", b"/"])
def test_csv_rejects_non_binary_digits(tmp_path, desk4, digit):
    path = tmp_path / "exp.csv"
    write_dataset(path, desk4, "experimental", 10, seed=1)
    raw = bytearray(path.read_bytes())
    last_row = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    raw[last_row + 2] = digit[0]  # z2 of the last row
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="non-binary"):
        read_dataset(path)


def test_meta_validation():
    with pytest.raises(DatasetFormatError):
        DatasetMeta(kind="bogus", n=1, seed=0, n_observed=4, config_fingerprint="x",
                    format="csv")
    with pytest.raises(DatasetFormatError):
        DatasetMeta(kind="experimental", n=-1, seed=0, n_observed=4, config_fingerprint="x",
                    format="packed")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_key_range_is_refused(desk4, seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        list(iter_blocks(desk4, "experimental", 5, seed=seed))
    assert _rows(desk4, "experimental", 5, seed=2**64 - 1).shape == (5, 6)


def test_unknown_regime_rejected(desk4):
    with pytest.raises(ValueError):
        list(iter_blocks(desk4, "interventional", 5, seed=1))
    with pytest.raises(ValueError):
        _rows(desk4, "experimental", -1, seed=1)
    # True would count one row, and 1.5 fail in range() with a bare TypeError
    baseline = threading.active_count()
    for n in (True, 1.5, "5"):
        message = f"n_samples must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(iter_blocks(desk4, "experimental", n, seed=1))
        assert threading.active_count() == baseline


def test_read_meta_reports_bad_sidecar(tmp_path, desk4):
    path = tmp_path / "d.csv"
    write_dataset(path, desk4, "experimental", 5, seed=1)
    good = json.loads(meta_path(path).read_text())
    meta_path(path).write_text("{broken")
    with pytest.raises(DatasetFormatError):
        read_meta(path)
    # wrong types would reach the reader's arithmetic as a TypeError
    for field, value in [("n_observed", "4"), ("n_observed", 4.0), ("n_observed", True),
                         ("n_observed", 0), ("n", "5"), ("n", False), ("seed", 1.5),
                         ("seed", None), ("config_fingerprint", 5), ("format", "json")]:
        meta_path(path).write_text(json.dumps(dict(good, **{field: value})))
        with pytest.raises(DatasetFormatError, match=f"^bad dataset sidecar .*: {field} must"):
            read_meta(path)


@pytest.mark.parametrize("seed", [2**64, -5])
def test_read_meta_refuses_a_seed_that_cannot_key_a_stream(tmp_path, desk4, seed):
    path = tmp_path / "d.csv"
    write_dataset(path, desk4, "experimental", 5, seed=1)
    good = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps(dict(good, seed=seed)))
    message = f"bad dataset sidecar {meta_path(path)}: seed must lie in [0, 2**64), got {seed}"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        read_meta(path)


def _use_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(
        datagen.os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False
    )


def _fail_on_shard(monkeypatch, bad_shard):
    gen_shard = datagen._gen_shard

    def failing(config, regime, shard, seed, out):
        if shard == bad_shard:
            raise RuntimeError(f"shard {shard} failed")
        return gen_shard(config, regime, shard, seed, out)

    monkeypatch.setattr(datagen, "_gen_shard", failing)


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("unitselect-datagen")]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("width", [4, 16])
def test_blocks_do_not_depend_on_the_cpu_count(monkeypatch, desk4, width, regime):
    config = desk4 if width == 4 else random_config(16, 2, seed=16)
    n = 3 * SHARD_SIZE + 1234
    runs = []
    for n_cpus in (1, 2, 3):
        _use_cpus(monkeypatch, n_cpus)
        it = iter_blocks(config, regime, n, seed=62)
        first = next(it)
        # pool threads run at every affinity, at most one per CPU, and are
        # gone once the blocks are used up
        assert 0 < len(_pool_threads()) <= n_cpus
        blocks = [first, *it]
        assert _pool_threads() == []
        assert [len(b) for b in blocks] == [SHARD_SIZE] * 3 + [1234]
        runs.append([b.tobytes() for b in blocks])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_no_samples_start_no_thread(monkeypatch, desk4):
    _use_cpus(monkeypatch, 2)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    assert list(iter_blocks(desk4, "observational", 0, seed=1)) == []
    assert started == []


def _whole_shard(config, regime, shard, m, seed):
    """A shard drawn in one piece, the formula ``_gen_shard`` had before it
    walked the shard in chunks."""
    experimental = regime == "experimental"
    width = config.n_total + 2 + (1 if experimental else 0)
    u = _shard_rng(seed, shard).random((m, width))
    z = u[:, : config.n_total] < np.asarray(config.bern_z)
    u_y = u[:, config.n_total + 1] < config.bern_uy
    zf = z.astype(np.float64)
    if experimental:
        x = u[:, config.n_total + 2] < config.experiment_assign_prob
    else:
        u_x = u[:, config.n_total] < config.bern_ux
        x = zf @ np.asarray(config.weights_x) + u_x > 0.5
    s = config.constant_c * x + zf @ np.asarray(config.weights_y) + u_y
    y = ((0.0 < s) & (s < 1.0)) | ((1.0 < s) & (s < 2.0))
    return np.column_stack([z[:, : config.n_observed], x, y]).astype(np.uint8)


def _gen_shard(config, regime, shard, m, seed):
    """``_gen_shard`` filling a new (m, n_observed+2) block."""
    out = np.empty((m, config.n_observed + 2), np.uint8)
    assert datagen._gen_shard(config, regime, shard, seed, out) is out
    return out


def _row_words(config, regime):
    """Raw words a row draws: one per characteristic, two noises and, in
    the experimental regime, the assignment."""
    return config.n_total + 2 + (regime == "experimental")


def _chunk_rows(config, regime):
    """Rows per chunk: the largest power of two, at least 4, whose raw
    words fit the budget."""
    rows = 4
    while 2 * rows * _row_words(config, regime) <= datagen._CHUNK_WORDS:
        rows *= 2
    return rows


WIDE = random_config(24, 12, seed=2412)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize(
    "config, rows",
    [(default_config(), (4096, 4096)), (random_config(16, 3, seed=16), (4096, 4096)),
     (random_config(4, 2, seed=4), (8192, 16384)), (WIDE, (2048, 2048))],
    ids=["appendix", "16+3", "4+2", "24+12"],
)
def test_chunks_draw_the_budget_in_powers_of_two_rows(monkeypatch, config, rows, regime):
    # the shard's stream is asked for whole chunks of the budget's row count
    # (experimental, observational) and then for the tail
    rows = rows[REGIMES.index(regime)]
    asked = []

    def recording_rng(seed, shard):
        stream = _shard_rng(seed, shard).bit_generator

        def random_raw(size):
            asked.append(size)
            return stream.random_raw(size)

        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))

    monkeypatch.setattr(datagen, "_shard_rng", recording_rng)
    words = _row_words(config, regime)
    assert _chunk_rows(config, regime) == rows
    _gen_shard(config, regime, 0, 3 * rows + 5, seed=1)
    assert asked == [(rows, words)] * 3 + [(5, words)]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["desk8", "appendix"])
def test_gen_shard_in_chunks_matches_one_whole_draw(request, name, regime):
    config = request.getfixturevalue(name)
    m = 2 * _chunk_rows(config, regime) + 777  # two whole chunks and a tail
    got = _gen_shard(config, regime, 3, m, 61)
    assert got.shape == (m, config.n_observed + 2)
    assert np.array_equal(got, _whole_shard(config, regime, 3, m, 61))


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["desk4", "appendix", "wide"])
def test_blocks_do_not_depend_on_the_chunk_budget(request, monkeypatch, name, regime):
    # Chunks of 64 rows, of the default budget and of more than a shard give
    # the same bytes, and so do chunks of the 4-row floor on a prefix (on
    # all rows they take about 5 s a case): the stream continues across
    # chunks, and each row's mixing sums do not depend on the chunk's rows.
    config = WIDE if name == "wide" else request.getfixturevalue(name)
    words = _row_words(config, regime)
    n = 3 * SHARD_SIZE + 1234
    expect = _rows(config, regime, n, seed=62)
    assert len(expect) == n
    for budget, m in ((1, SHARD_SIZE // 4 + 1234), (64 * words, n), (SHARD_SIZE * words, n)):
        monkeypatch.setattr(datagen, "_CHUNK_WORDS", budget)
        assert np.array_equal(_rows(config, regime, m, seed=62), expect[:m])


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize(
    "config", [default_config(), WIDE, random_config(4, 2, seed=370)],
    ids=["appendix", "24+12", "desk4"],
)
def test_gen_shard_memory_follows_the_word_budget(config, regime):
    # Filling a caller's shard block, a worker's temporaries are a chunk's
    # raw words and its characteristics as floats, 1 MiB each at most; drawn
    # 16,384 rows at a time they were 6.2 MiB for the appendix model and
    # 10.7 MiB at 24+12 bits.
    out = np.empty((SHARD_SIZE, config.n_observed + 2), np.uint8)
    tracemalloc.start()
    try:
        datagen._gen_shard(config, regime, 0, 7, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


@pytest.mark.parametrize("how", ["close", "drop"])
def test_ending_the_iterator_early_joins_its_workers(monkeypatch, desk4, how):
    _use_cpus(monkeypatch, 2)
    baseline = threading.active_count()
    it = iter_blocks(desk4, "observational", 4 * SHARD_SIZE, seed=1)
    assert len(next(it)) == SHARD_SIZE
    assert threading.active_count() > baseline
    if how == "close":
        it.close()
    else:
        del it
    assert threading.active_count() == baseline


def test_a_worker_error_reaches_the_consumer(monkeypatch, desk4):
    _use_cpus(monkeypatch, 2)
    _fail_on_shard(monkeypatch, 2)
    baseline = threading.active_count()
    it = iter_blocks(desk4, "experimental", 4 * SHARD_SIZE, seed=1)
    assert [len(next(it)) for _ in range(2)] == [SHARD_SIZE] * 2
    with pytest.raises(RuntimeError, match="shard 2 failed"):
        next(it)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_failed_write_dataset_leaves_the_old_files_whole(
    tmp_path, monkeypatch, desk4, suffix, n_cpus
):
    path = tmp_path / f"d{suffix}"
    write_dataset(path, desk4, "experimental", 1000, seed=1)
    old = (path.read_bytes(), meta_path(path).read_bytes())
    _use_cpus(monkeypatch, n_cpus)
    _fail_on_shard(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="shard 2 failed"):
        write_dataset(path, desk4, "observational", 4 * SHARD_SIZE, seed=2)
    assert (path.read_bytes(), meta_path(path).read_bytes()) == old
    assert sorted(tmp_path.iterdir()) == sorted([path, meta_path(path)])


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@pytest.mark.parametrize("n", [0, 100, SHARD_SIZE, 2 * SHARD_SIZE + 77])
def test_iter_dataset_yields_shards_of_the_generated_rows(tmp_path, desk4, suffix, n):
    # iterating a stored dataset gives, shard for shard, the codes of the
    # generated blocks, and read_dataset unpacks them into the blocks
    path = tmp_path / f"obs{suffix}"
    write_dataset(path, desk4, "observational", n, seed=3)
    shards = list(iter_codes(path))
    sizes = [SHARD_SIZE] * (n // SHARD_SIZE) + [n % SHARD_SIZE] * (n % SHARD_SIZE > 0)
    assert [len(c) for c in shards] == sizes
    blocks = list(iter_blocks(desk4, "observational", n, seed=3))
    assert len(blocks) == len(shards)
    assert all(np.array_equal(c, row_codes(b)) for c, b in zip(shards, blocks))
    data, _ = read_dataset(path)
    assert data.dtype == np.uint8 and data.shape == (n, 6)
    assert np.array_equal(data, _rows(desk4, "observational", n, seed=3))


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@pytest.mark.parametrize("cut", ["row", "byte"])
def test_truncated_file_is_refused_before_any_block(tmp_path, desk4, suffix, cut):
    path = tmp_path / f"exp{suffix}"
    write_dataset(path, desk4, "experimental", SHARD_SIZE + 10, seed=2)
    row_bytes = 12 if suffix == ".csv" else 4
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - (row_bytes if cut == "row" else 1))
    blocks = iter_codes(path)
    match = "sidecar says" if cut == "row" else "ragged CSV body|whole number of words"
    with pytest.raises(DatasetFormatError, match=match):
        next(blocks)


def test_sidecar_of_the_other_format_is_refused(tmp_path, desk4):
    # exp.csv and exp.bin share exp.meta.json: the later write replaces it
    write_dataset(tmp_path / "exp.csv", desk4, "experimental", 1000, seed=1)
    write_dataset(tmp_path / "exp.bin", desk4, "experimental", 1000, seed=2)
    assert read_meta(tmp_path / "exp.csv").format == "packed"
    with pytest.raises(DatasetFormatError, match="describes a packed file"):
        read_dataset(tmp_path / "exp.csv")
    assert read_dataset(tmp_path / "exp.bin")[0].shape == (1000, 6)
    # a sidecar that does not record its format is refused
    meta = json.loads(meta_path(tmp_path / "exp.bin").read_text())
    del meta["format"]
    meta_path(tmp_path / "exp.bin").write_text(json.dumps(meta))
    with pytest.raises(DatasetFormatError, match="^bad dataset sidecar .*'format'"):
        read_dataset(tmp_path / "exp.bin")


def test_sidecar_past_the_cell_space_guard_is_refused_before_any_row(tmp_path, desk4,
                                                                      monkeypatch):
    path = tmp_path / "exp.bin"
    write_dataset(path, desk4, "experimental", 1000, seed=1)
    meta = json.loads(meta_path(path).read_text())
    meta_path(path).write_text(json.dumps(dict(meta, n_observed=25)))
    reads = []
    monkeypatch.setattr(np, "fromfile", lambda *a, **k: reads.append(a))
    with pytest.raises(DatasetFormatError, match=r"2\*\*25 cells exceeds the guard"):
        next(iter_codes(path))
    assert reads == []


# Probabilities at the edges of the raw-word comparison: never, always, a
# half, the smallest step of a uniform and the largest uniform below 1.
EDGE_PROBS = (0.0, 1.0, 0.5, 2.0**-53, 1 - 2.0**-53)


@pytest.mark.parametrize("p", [*EDGE_PROBS, 0.3, 1e-300, 0.1 + 2.0**-60])
def test_raw_word_bit_is_the_float_comparison(p):
    # A raw word w gives the uniform (w >> 11) * 2**-53; the bit is that
    # uniform < p.  Check the words on both sides of the threshold.
    c = math.ceil(math.ldexp(p, 53))
    words = {0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1}
    words |= {w for w in ((c << 11) - 1, c << 11, (c << 11) + 1) if 0 <= w < 2**64}
    raw = np.array(sorted(words), dtype=np.uint64)
    bits = datagen._bit_rule([0.5, p])(np.stack([raw, raw], axis=1))
    assert bits.dtype == np.uint8
    assert bits[:, 1].tolist() == [int((w >> 11) * 2.0**-53 < p) for w in raw.tolist()]


def _edge_config(drawn):
    """A 6-observed-bit model whose characteristics have the edge
    probabilities and ``drawn``; the noise and the assignment too."""
    base = random_config(6, 1, seed=6)
    return dataclasses.replace(
        base, bern_z=(*EDGE_PROBS, drawn, 0.4), bern_ux=1.0, bern_uy=2.0**-53,
        experiment_assign_prob=1 - 2.0**-53,
    )


@pytest.mark.parametrize("regime", REGIMES)
def test_raw_draw_is_exact_at_edge_probabilities(regime):
    chunk = _chunk_rows(_edge_config(0.5), regime)
    m = chunk + 100  # a whole chunk and a tail
    width = 7 + 2 + (regime == "experimental")
    u = _shard_rng(61, 2).random((m, width))
    row = chunk + 50
    drawn = u[row, 5]  # z6 of a row in the tail: a uniform the stream draws
    for p, bit in ((drawn, 0), (np.nextafter(drawn, 2.0), 1)):
        config = _edge_config(float(p))
        got = _gen_shard(config, regime, 2, m, 61)
        assert got[row, 5] == bit
        # every observed bit is the float comparison, and x and y are the
        # one-piece reference draw's
        assert np.array_equal(got[:, :6], u[:, :6] < np.asarray(config.bern_z[:6]))
        assert got[:, 0].sum() == 0 and got[:, 1].all()
        assert np.array_equal(got, _whole_shard(config, regime, 2, m, 61))


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_iter_codes_are_the_rows_codes(tmp_path, desk4, suffix):
    n = SHARD_SIZE + 77
    path = tmp_path / f"exp{suffix}"
    write_dataset(path, desk4, "experimental", n, seed=5)
    codes = list(iter_codes(path))
    assert [len(c) for c in codes] == [SHARD_SIZE, 77]
    assert all(c.dtype == np.int64 for c in codes)
    rows = _rows(desk4, "experimental", n, seed=5)
    expect = (cell_ids(rows[:, :4]) * 4 + rows[:, 4] * 2 + rows[:, 5]).astype(np.int64)
    assert np.array_equal(np.concatenate(codes), expect)


def test_csv_and_packed_copies_give_the_same_codes(tmp_path, desk4):
    n = 2 * SHARD_SIZE + 5
    write_dataset(tmp_path / "a.csv", desk4, "observational", n, seed=8)
    write_dataset(tmp_path / "b.bin", desk4, "observational", n, seed=8)
    a, b = list(iter_codes(tmp_path / "a.csv")), list(iter_codes(tmp_path / "b.bin"))
    assert len(a) == len(b) == 3
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_read_dataset_unpacks_iter_codes(tmp_path, monkeypatch, desk4):
    # one reader: read_dataset's rows are whatever iter_codes yields
    path = tmp_path / "obs.bin"
    write_dataset(path, desk4, "observational", 3, seed=1)
    fake = np.array([0b101110, 0b000001, 0b111111], dtype=np.int64)  # id*4 + x*2 + y
    monkeypatch.setattr(datagen, "iter_codes", lambda p: iter([fake]))
    data, _ = read_dataset(path)
    assert data.dtype == np.uint8
    assert data.tolist() == [[1, 1, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]]
    assert row_codes(data).tolist() == fake.tolist()


@pytest.mark.parametrize("n_obs", [1, 4, 24])
def test_row_codes_fold_blocks_of_any_dtype(n_obs):
    block = np.random.default_rng(n_obs).integers(0, 2, (5000, n_obs + 2), dtype=np.uint8)
    expect = [int("".join(map(str, [*r[:n_obs][::-1], r[n_obs], r[n_obs + 1]])), 2)
              for r in block.tolist()]
    for dtype in (np.uint8, bool, np.int8, np.float64):
        codes = row_codes(block.astype(dtype))
        assert codes.dtype == np.int64 and codes.tolist() == expect


def test_wide_csv_rows_read_as_codes(tmp_path):
    # 24 observed bits: the widest dataset the cell-space guard lets through
    config = random_config(24, 0, seed=2)
    path = tmp_path / "wide.csv"
    write_dataset(path, config, "observational", 50, seed=3)
    (codes,) = iter_codes(path)
    rows = _rows(config, "observational", 50, seed=3)
    expect = [sum(int(b) << i for i, b in enumerate(r[:24])) * 4 + int(r[24]) * 2 + int(r[25])
              for r in rows]
    assert codes.tolist() == expect
    assert np.array_equal(read_dataset(path)[0], rows)


_DESK_HEADER = len(b"z1,z2,z3,z4,x,y\n")
_SECOND_SHARD = _DESK_HEADER + 12 * SHARD_SIZE  # the first byte of row SHARD_SIZE


@pytest.mark.parametrize(
    "pos, byte, problem",
    [
        (_DESK_HEADER + 1, b";", "malformed CSV rows"),  # the separator after z1 of row 0
        (_DESK_HEADER + 11, b",", "malformed CSV rows"),  # the newline of row 0
        (-1, b"\r", "malformed CSV rows"),  # the newline of the last row
        (_SECOND_SHARD + 3, b"0", "malformed CSV rows"),  # a digit for a separator
        (_DESK_HEADER, b"2", "non-binary values"),
        (_SECOND_SHARD + 10, b"/", "non-binary values"),  # y, one below "0"
        (_SECOND_SHARD + 8, b"\n", "non-binary values"),  # x, a newline
        (_DESK_HEADER - 2, b"Y", "unexpected CSV header"),
    ],
)
def test_csv_corruption_is_refused_by_the_one_reader(tmp_path, desk4, pos, byte, problem):
    path = tmp_path / "exp.csv"
    write_dataset(path, desk4, "experimental", SHARD_SIZE + 10, seed=1)
    raw = bytearray(path.read_bytes())
    raw[pos if pos >= 0 else len(raw) + pos] = byte[0]
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match=problem):
        list(iter_codes(path))
    with pytest.raises(DatasetFormatError, match=problem):
        read_dataset(path)
