import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitselect.model import (
    CellKey,
    ConfigError,
    ExogenousAssignment,
    FullProfile,
    ScmConfig,
    cell_bits,
    cell_ids,
    counterfactual_pair,
    default_config,
    eval_x,
    eval_y,
    m_value,
    random_config,
)


def test_default_config_matches_reference_parameterization(appendix):
    assert appendix.n_observed == 15
    assert appendix.n_unobserved == 5
    assert appendix.n_total == 20
    assert appendix.constant_c == 0.975140894243
    assert appendix.bern_ux == 0.29908139311
    assert appendix.bern_uy == 0.9226108109253
    assert appendix.experiment_assign_prob == 0.5
    # first entries of each column
    assert appendix.bern_z[0] == 0.524110233482
    assert appendix.weights_x[0] == 0.843870221861
    assert appendix.weights_y[0] == -0.453251661832
    assert len(appendix.bern_z) == 20
    assert len(appendix.weights_x) == 20
    assert len(appendix.weights_y) == 20


def test_default_config_is_cached(appendix):
    assert default_config() is appendix


def test_config_validation():
    base = dataclasses.asdict(default_config())
    bad = dict(base, bern_ux=1.5)
    with pytest.raises(ConfigError):
        ScmConfig.from_dict(bad)
    bad = dict(base, weights_x=base["weights_x"][:-1])
    with pytest.raises(ConfigError):
        ScmConfig.from_dict(bad)
    bad = dict(base, n_observed=0)
    with pytest.raises(ConfigError):
        ScmConfig.from_dict(bad)
    bad = dict(base, bern_z=[2.0] + list(base["bern_z"][1:]))
    with pytest.raises(ConfigError):
        ScmConfig.from_dict(bad)
    with pytest.raises(ConfigError, match="missing key 'bern_uy'"):
        ScmConfig.from_dict({k: v for k, v in base.items() if k != "bern_uy"})
    without_default = {k: v for k, v in base.items() if k != "experiment_assign_prob"}
    assert ScmConfig.from_dict(without_default).experiment_assign_prob == 0.5


@pytest.mark.parametrize(
    "change",
    [
        lambda d: [],
        lambda d: dict(d, weights_x=5),
        lambda d: dict(d, n_observed=None),
        lambda d: dict(d, n_observed=15.7),  # int() would load a 15-bit model
        lambda d: dict(d, n_observed=True, n_unobserved=19),  # int() would load 1
        # float() would load true as 1.0
        lambda d: dict(d, bern_ux=True),
        lambda d: dict(d, constant_c=False),
        lambda d: dict(d, experiment_assign_prob=True),
        lambda d: dict(d, bern_z=[True] + [0.5] * 19),
        lambda d: dict(d, weights_y=[0.0] * 19 + [False]),
        # float() would load a numeric string as its number
        lambda d: dict(d, bern_ux="0.5"),
        lambda d: dict(d, constant_c="-1"),
        lambda d: dict(d, weights_x=["1e0"] + [0.5] * 19),
        lambda d: dict(d, bern_z=[0.5] * 19 + [[0.5]]),
        lambda d: dict(d, bern_uy=None),
    ],
    ids=["not-an-object", "scalar-weights", "null-width", "fractional-width", "boolean-width",
         "boolean-probability", "boolean-constant", "boolean-assign-rate",
         "boolean-bern-z-entry", "boolean-weight", "string-probability", "string-constant",
         "string-weight", "nested-list-entry", "null-probability"],
)
def test_config_of_the_wrong_type_is_a_config_error(change):
    with pytest.raises(ConfigError):
        ScmConfig.from_dict(change(dataclasses.asdict(default_config())))


def test_config_bytes_are_pinned(tmp_path, appendix):
    # The fingerprints that benchmarks/pipeline.py records for its three
    # models, and the bytes of the README's desk model file.
    assert appendix.fingerprint == (
        "28dcb1a794e060f1bb046d11421ea1fdd0debcb877fea8e5e6c7cc270bd2fd5f"
    )
    configs = Path(__file__).resolve().parents[1] / "benchmarks" / "configs"
    assert ScmConfig.load(configs / "wide-cells.json").fingerprint == (
        "e9957ee43b6c9cc0eceff797f0179ae4306ac31bcf02e5eab4fb8adba79838c9"
    )
    assert ScmConfig.load(configs / "narrow-rows.json").fingerprint == (
        "131b34acaa1de35f9da53be4b29b13f31766500344c33a867251d14129450044"
    )
    path = tmp_path / "desk.json"
    random_config(4, 2, seed=370).dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6279b8841b745c011c749269abbaa1e76d2d389ab34e1867da96ce676c569790"
    )


def test_config_file_roundtrip(tmp_path, appendix):
    path = tmp_path / "cfg.json"
    appendix.dump(path)
    assert ScmConfig.load(path) == appendix


def test_failed_dump_leaves_the_old_file_whole(tmp_path, appendix, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text("old config\n")

    def fail_midway(doc, fh, **kwargs):
        fh.write('{"n_observed": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        appendix.dump(path)
    assert path.read_text() == "old config\n"
    assert list(tmp_path.iterdir()) == [path]


def test_fingerprint_ignores_file_formatting(tmp_path, appendix):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(dataclasses.asdict(appendix), indent=4))
    b.write_text(json.dumps(dataclasses.asdict(appendix), separators=(",", ":")))
    assert ScmConfig.load(a).fingerprint == ScmConfig.load(b).fingerprint
    other = random_config(15, 5, seed=1)
    assert other.fingerprint != appendix.fingerprint


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ScmConfig.load(path)


def test_cell_key_encoding():
    # z1 is the least-significant bit
    assert CellKey((1, 0, 0)).id == 1
    assert CellKey((0, 1, 0)).id == 2
    assert CellKey((1, 1, 0)).id == 3
    assert CellKey((0, 0, 1)).id == 4
    for cid in range(256):
        key = CellKey.from_id(cid, 8)
        assert key.id == cid
        assert len(key.bits) == 8
    # the array helpers use the same encoding
    ids = np.arange(256)
    bits = cell_bits(ids, 8)
    assert bits.dtype == np.uint8
    assert [tuple(row) for row in bits.tolist()] == [CellKey.from_id(c, 8).bits for c in range(256)]
    assert np.array_equal(cell_ids(bits), ids)
    assert cell_ids(cell_bits(np.array([1 << 60]), 61)).tolist() == [1 << 60]


def test_cell_key_rejects_bad_input():
    with pytest.raises(ConfigError):
        CellKey((0, 2, 0))
    with pytest.raises(ConfigError):
        CellKey.from_id(256, 8)
    with pytest.raises(ConfigError):
        CellKey.from_id(-1, 8)


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (3,)])
def test_check_bits_rejects_non_binary(bits):
    with pytest.raises(ConfigError, match=rf"only 0/1, got {re.escape(str(bits))}$"):
        CellKey(bits)


def test_check_bits_accepts_bool_and_numpy_ints():
    key = CellKey((True, np.uint8(1), np.int64(0), False))
    assert key.bits == (1, 1, 0, 0)
    assert all(type(b) is int for b in key.bits)
    assert key == CellKey((1, 1, 0, 0))
    assert FullProfile((np.uint8(1), True)).bits == (1, 1)


def test_eval_x_strict_threshold():
    assert eval_x(0.6, 0) == 1
    assert eval_x(0.5, 0) == 0
    assert eval_x(-0.2, 1) == 1
    assert eval_x(-0.5, 1) == 0  # sum exactly 0.5
    # the same cases as one array, as datagen and the informer call it
    m_x, u_x = np.array([0.6, 0.5, -0.2, -0.5]), np.array([0, 0, 1, 1], dtype=bool)
    scalar = [eval_x(float(m), int(u)) for m, u in zip(m_x, u_x)]
    assert eval_x(m_x, u_x).tolist() == scalar == [1, 0, 1, 0]


def test_eval_y_windows():
    c = 0.975140894243
    assert eval_y(1, 0.0, 0, c) == 1  # s in (0,1)
    assert eval_y(0, 0.0, 1, c) == 0  # s = 1 exactly, excluded
    assert eval_y(1, 0.0, 1, c) == 1  # s in (1,2)
    assert eval_y(0, 0.0, 0, c) == 0  # s = 0 exactly
    assert eval_y(0, 2.0, 0, c) == 0  # s = 2 exactly
    assert eval_y(0, -0.5, 0, c) == 0
    assert eval_y(0, 2.5, 0, c) == 0
    assert eval_y(0, 1.5, 0, c) == 1
    # the same cases as one array, as datagen and the informer call it
    x = np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=bool)
    m_y = np.array([0.0, 0.0, 0.0, 0.0, 2.0, -0.5, 2.5, 1.5])
    u_y = np.array([0, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
    scalar = [eval_y(int(a), float(m), int(u), c) for a, m, u in zip(x, m_y, u_y)]
    assert eval_y(x, m_y, u_y, c).tolist() == scalar == [1, 0, 1, 0, 0, 0, 0, 1]


def test_m_value():
    w = (0.5, -0.25, 1.0)
    assert m_value(FullProfile((0, 0, 0)), w) == 0.0
    assert m_value(FullProfile((1, 0, 0)), w) == 0.5
    assert m_value(FullProfile((1, 1, 1)), w) == pytest.approx(1.25)
    with pytest.raises(ConfigError):
        m_value(FullProfile((1, 0)), w)


def test_m_value_first_appendix_weight(appendix):
    profile = FullProfile((1,) + (0,) * 19)
    assert m_value(profile, appendix.weights_x) == 0.843870221861
    all_ones = FullProfile((1,) * 20)
    assert m_value(all_ones, appendix.weights_x) == pytest.approx(
        sum(appendix.weights_x), abs=1e-12
    )


@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=12),
    raw=st.data(),
)
def test_m_value_matches_plain_sum(bits, raw):
    weights = raw.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=len(bits),
            max_size=len(bits),
        )
    )
    expected = sum(w for b, w in zip(bits, weights) if b)
    assert math.isclose(
        m_value(FullProfile(tuple(bits)), tuple(weights)), expected, abs_tol=1e-9
    )


def test_counterfactual_pair_examples(appendix):
    cfg = dataclasses.replace(
        appendix,
        n_observed=1,
        n_unobserved=0,
        weights_x=(0.0,),
        weights_y=(0.0,),
        bern_z=(0.5,),
    )
    # m_y = 0 profile
    zero = FullProfile((0,))
    assert counterfactual_pair(zero, 0, cfg) == (0, 1)
    # m_y = 0.5, u_y = 1: 1.5 in (1,2) but 2.475 outside both windows
    cfg_half = dataclasses.replace(cfg, weights_y=(0.5,))
    assert counterfactual_pair(FullProfile((1,)), 1, cfg_half) == (1, 0)
    cfg_neg = dataclasses.replace(cfg, weights_y=(-2.0,))
    assert counterfactual_pair(FullProfile((1,)), 0, cfg_neg) == (0, 0)


def test_structural_consistency(desk8):
    # forcing x to the value the observational mechanism would pick gives the
    # observational outcome
    for pid in (0, 17, 300, 2047):
        bits = tuple((pid >> i) & 1 for i in range(desk8.n_total))
        profile = FullProfile(bits)
        m_x = m_value(profile, desk8.weights_x)
        m_y = m_value(profile, desk8.weights_y)
        for u_x in (0, 1):
            for u_y in (0, 1):
                x_nat = eval_x(m_x, u_x)
                pair = counterfactual_pair(profile, u_y, desk8)
                assert pair[x_nat] == eval_y(x_nat, m_y, u_y, desk8.constant_c)


def test_random_config_deterministic():
    a = random_config(6, 2, seed=3)
    b = random_config(6, 2, seed=3)
    c = random_config(6, 2, seed=4)
    assert a == b
    assert a != c
    assert a.n_observed == 6
    assert a.n_unobserved == 2
    assert all(0.0 <= p <= 1.0 for p in a.bern_z)
    assert all(-1.0 <= w <= 1.0 for w in a.weights_x)


def test_exogenous_assignment_holds_bits():
    ex = ExogenousAssignment(z=(1, 0, 1), u_x=0, u_y=1)
    assert ex.z == (1, 0, 1)
    assert (ex.u_x, ex.u_y) == (0, 1)
