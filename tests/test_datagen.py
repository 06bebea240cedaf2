import dataclasses
import json
import threading

import numpy as np
import pytest

from unitselect import datagen, random_config
from unitselect.datagen import (
    REGIMES,
    SHARD_SIZE,
    DatasetFormatError,
    DatasetMeta,
    draw_exogenous,
    generate_array,
    iter_blocks,
    meta_path,
    read_dataset,
    read_meta,
    write_dataset,
    _shard_rng,
)
from unitselect.model import FullProfile, eval_x, eval_y, m_value


def test_draw_exogenous_thresholds(desk4):
    n = desk4.n_total
    ex = draw_exogenous([0.0] * (n + 2), desk4)
    assert ex.z == (1,) * n  # uniform 0 is below every positive parameter
    all_ones = dataclasses.replace(
        desk4, bern_z=(1.0,) * n, bern_ux=1.0, bern_uy=1.0
    )
    ex = draw_exogenous([0.999999] * (n + 2), all_ones)
    assert ex.z == (1,) * n and ex.u_x == 1 and ex.u_y == 1
    all_zero = dataclasses.replace(
        desk4, bern_z=(0.0,) * n, bern_ux=0.0, bern_uy=0.0
    )
    ex = draw_exogenous([0.0] * (n + 2), all_zero)
    assert ex.z == (0,) * n and ex.u_x == 0 and ex.u_y == 0
    with pytest.raises(ValueError):
        draw_exogenous([0.5] * (n + 1), desk4)


def test_scalar_stream_matches_vectorized_rows(desk4):
    # the documented draw order: characteristics, u_x, u_y, then the
    # experimental assignment uniform
    n = desk4.n_total
    arr = generate_array(desk4, "experimental", 64, seed=123)
    u = _shard_rng(123, 0).random((64, n + 3))
    for i in range(64):
        ex = draw_exogenous(u[i, : n + 2], desk4)
        x = int(u[i, n + 2] < desk4.experiment_assign_prob)
        profile = FullProfile(ex.z)
        y = eval_y(x, m_value(profile, desk4.weights_y), ex.u_y, desk4.constant_c)
        assert tuple(int(b) for b in arr[i]) == ex.z[: desk4.n_observed] + (x, y)

    arr_obs = generate_array(desk4, "observational", 64, seed=123)
    u = _shard_rng(123, 0).random((64, n + 2))
    for i in range(64):
        ex = draw_exogenous(u[i], desk4)
        profile = FullProfile(ex.z)
        x = eval_x(m_value(profile, desk4.weights_x), ex.u_x)
        y = eval_y(x, m_value(profile, desk4.weights_y), ex.u_y, desk4.constant_c)
        assert tuple(int(b) for b in arr_obs[i]) == ex.z[: desk4.n_observed] + (x, y)


def test_determinism_and_prefix(desk4):
    a = generate_array(desk4, "observational", 2000, seed=9)
    b = generate_array(desk4, "observational", 2000, seed=9)
    assert np.array_equal(a, b)
    c = generate_array(desk4, "observational", 700, seed=9)
    assert np.array_equal(a[:700], c)
    d = generate_array(desk4, "observational", 2000, seed=10)
    assert not np.array_equal(a, d)


def test_sharding_is_transparent(desk4):
    # more than one shard: concatenated blocks equal the one-call result
    n = SHARD_SIZE + 1234
    blocks = list(iter_blocks(desk4, "experimental", n, seed=3))
    assert len(blocks) == 2
    assert len(blocks[0]) == SHARD_SIZE and len(blocks[1]) == 1234
    whole = generate_array(desk4, "experimental", n, seed=3)
    assert np.array_equal(np.concatenate(blocks), whole)
    # a shard's content does not depend on how much of it is requested
    small = generate_array(desk4, "experimental", SHARD_SIZE + 10, seed=3)
    assert np.array_equal(whole[: SHARD_SIZE + 10], small)


def test_empirical_rates_appendix(appendix):
    n = 1_000_000
    arr = generate_array(appendix, "experimental", n, seed=77)
    # z1 frequency within 5 sigma of its Bernoulli parameter
    p = appendix.bern_z[0]
    assert abs(arr[:, 0].mean() - p) < 5 * np.sqrt(p * (1 - p) / n)
    # randomized treatment rate within 5 sigma of one half
    assert abs(arr[:, 15].mean() - 0.5) < 5 * np.sqrt(0.25 / n)


def test_regime_difference(desk4):
    n = 200_000
    exp = generate_array(desk4, "experimental", n, seed=21)
    obs = generate_array(desk4, "observational", n, seed=21)
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
    assert np.array_equal(data, generate_array(desk4, "experimental", 500, seed=4))
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
    assert np.array_equal(data, generate_array(desk4, "observational", 500, seed=4))
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
    assert np.array_equal(data, generate_array(desk4, "observational", 300, seed=5))


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


def test_write_dataset_checks_before_opening(tmp_path, desk4):
    from unitselect import random_config

    wide = random_config(31, 0, seed=1)  # one bit more than a packed word holds
    for n in (0, 10):
        with pytest.raises(DatasetFormatError, match="at most 30 observed bits"):
            write_dataset(tmp_path / "d.bin", wide, "experimental", n, seed=1)
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "d.csv", desk4, "interventional", 10, seed=1)
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "d.csv", desk4, "experimental", -1, seed=1)
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
        DatasetMeta(kind="bogus", n=1, seed=0, n_observed=4, config_fingerprint="x")
    with pytest.raises(DatasetFormatError):
        DatasetMeta(kind="experimental", n=-1, seed=0, n_observed=4, config_fingerprint="x")


def test_unknown_regime_rejected(desk4):
    with pytest.raises(ValueError):
        list(iter_blocks(desk4, "interventional", 5, seed=1))
    with pytest.raises(ValueError):
        generate_array(desk4, "experimental", -1, seed=1)


def test_read_meta_reports_bad_sidecar(tmp_path, desk4):
    path = tmp_path / "d.csv"
    write_dataset(path, desk4, "experimental", 5, seed=1)
    meta_path(path).write_text("{broken")
    with pytest.raises(DatasetFormatError):
        read_meta(path)


def _use_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(
        datagen.os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False
    )


def _fail_on_shard(monkeypatch, bad_shard):
    gen_shard = datagen._gen_shard

    def failing(config, regime, shard, m, seed):
        if shard == bad_shard:
            raise RuntimeError(f"shard {shard} failed")
        return gen_shard(config, regime, shard, m, seed)

    monkeypatch.setattr(datagen, "_gen_shard", failing)


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("unitselect-datagen")]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("width", [4, 16])
def test_pool_and_serial_paths_give_the_same_blocks(monkeypatch, desk4, width, regime):
    config = desk4 if width == 4 else random_config(16, 2, seed=16)
    n = 3 * SHARD_SIZE + 1234
    runs = {}
    for n_cpus in (1, 2):
        _use_cpus(monkeypatch, n_cpus)
        it = iter_blocks(config, regime, n, seed=62)
        first = next(it)
        runs[n_cpus] = (len(_pool_threads()), [first, *it])
    (serial_threads, serial), (pool_threads, pooled) = runs[1], runs[2]
    assert serial_threads == 0 and pool_threads > 0
    assert [len(b) for b in pooled] == [SHARD_SIZE] * 3 + [1234]
    assert [b.tobytes() for b in pooled] == [b.tobytes() for b in serial]


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


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["desk8", "appendix"])
def test_gen_shard_in_chunks_matches_one_whole_draw(request, name, regime):
    config = request.getfixturevalue(name)
    m = 2 * datagen._CHUNK_ROWS + 777  # two whole chunks and a tail
    got = datagen._gen_shard(config, regime, 3, m, 61)
    assert got.shape == (m, config.n_observed + 2)
    assert np.array_equal(got, _whole_shard(config, regime, 3, m, 61))


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
