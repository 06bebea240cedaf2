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
    ConfigError,
    FullProfile,
    ScmConfig,
    cell_bits,
    cell_ids,
    check_seed,
    counterfactual_pair,
    default_config,
    eval_x,
    eval_y,
    m_value,
    random_config,
    random_stream,
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
    # a misspelled key would otherwise leave its field at the default
    with pytest.raises(ConfigError, match="^config has unknown key 'experiment_asign_prob'$"):
        ScmConfig.from_dict(dict(without_default, experiment_asign_prob=0.9, zz_note="x"))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: [], "config must be a JSON object, got list"),
        (lambda d: dict(d, weights_x=5),
         "weights_x must be a list of n_observed + n_unobserved = 20 numbers, got 5"),
        (lambda d: dict(d, n_observed=None), "n_observed must be an integer, got None"),
        # int() would load a 15-bit model
        (lambda d: dict(d, n_observed=15.7), "n_observed must be an integer, got 15.7"),
        # int() would load 1
        (lambda d: dict(d, n_observed=True, n_unobserved=19),
         "n_observed must be an integer, got True"),
        # float() would load true as 1.0
        (lambda d: dict(d, bern_ux=True), "bern_ux must be a finite number, got True"),
        (lambda d: dict(d, constant_c=False), "constant_c must be a finite number, got False"),
        (lambda d: dict(d, experiment_assign_prob=True),
         "experiment_assign_prob must be a finite number, got True"),
        (lambda d: dict(d, bern_z=[True] + [0.5] * 19),
         "bern_z[0] must be a finite number, got True"),
        (lambda d: dict(d, weights_y=[0.0] * 19 + [False]),
         "weights_y[19] must be a finite number, got False"),
        # float() would load a numeric string as its number
        (lambda d: dict(d, bern_ux="0.5"), "bern_ux must be a finite number, got '0.5'"),
        (lambda d: dict(d, constant_c="-1"), "constant_c must be a finite number, got '-1'"),
        (lambda d: dict(d, weights_x=["1e0"] + [0.5] * 19),
         "weights_x[0] must be a finite number, got '1e0'"),
        (lambda d: dict(d, bern_z=[0.5] * 19 + [[0.5]]),
         "bern_z[19] must be a finite number, got [0.5]"),
        (lambda d: dict(d, bern_uy=None), "bern_uy must be a finite number, got None"),
        # a whole float is still not an int, and a fractional latent count
        # must not reach the length arithmetic
        (lambda d: dict(d, n_observed=15.0), "n_observed must be an integer, got 15.0"),
        (lambda d: dict(d, n_unobserved=1.5), "n_unobserved must be an integer, got 1.5"),
        (lambda d: dict(d, bern_uy=[0.5]), "bern_uy must be a finite number, got [0.5]"),
        (lambda d: dict(d, weights_y=[0.0] * 19 + [math.nan]),
         "weights_y[19] must be a finite number, got nan"),
        (lambda d: dict(d, constant_c=-math.inf), "constant_c must be a finite number, got -inf"),
        # past the float range: float() would raise OverflowError, not ConfigError
        (lambda d: dict(d, constant_c=10**400), "constant_c must be a finite number, got 1000"),
    ],
    ids=["not-an-object", "scalar-weights", "null-width", "fractional-width", "boolean-width",
         "boolean-probability", "boolean-constant", "boolean-assign-rate",
         "boolean-bern-z-entry", "boolean-weight", "string-probability", "string-constant",
         "string-weight", "nested-list-entry", "null-probability", "whole-float-width",
         "fractional-latent-width", "listed-probability", "nan-weight", "infinite-constant",
         "huge-integer-constant"],
)
def test_config_of_the_wrong_type_is_a_config_error(change, message):
    # The constructor checks the types, so a config built in Python, by
    # dataclasses.replace or by random_config is held to the file's rules.
    data = change(dataclasses.asdict(default_config()))
    builds = [ScmConfig.from_dict]
    if isinstance(data, dict):
        builds += [lambda d: ScmConfig(**d), lambda d: dataclasses.replace(default_config(), **d)]
    for build in builds:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            build(data)


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


def test_cell_id_encoding():
    # z1 is the least-significant bit
    bits = np.array([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], dtype=np.uint8)
    assert cell_ids(bits).tolist() == [1, 2, 3, 4]
    assert cell_bits(np.array([1, 2, 3, 4]), 3).tolist() == bits.tolist()
    ids = np.arange(256)
    bits = cell_bits(ids, 8)
    assert bits.dtype == np.uint8
    assert [tuple(row) for row in bits.tolist()] == [
        tuple((c >> i) & 1 for i in range(8)) for c in range(256)
    ]
    assert np.array_equal(cell_ids(bits), ids)
    assert cell_ids(bits).dtype == np.int64
    assert cell_ids(cell_bits(np.array([1 << 60]), 61)).tolist() == [1 << 60]


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (3,)])
def test_check_bits_rejects_non_binary(bits):
    with pytest.raises(ConfigError, match=rf"only 0/1, got {re.escape(str(bits))}$"):
        FullProfile(bits)


def test_check_bits_accepts_bool_and_numpy_ints():
    profile = FullProfile((True, np.uint8(1), np.int64(0), False))
    assert profile.bits == (1, 1, 0, 0)
    assert all(type(b) is int for b in profile.bits)
    assert profile == FullProfile((1, 1, 0, 0))
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


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_every_seed_entry_point_refuses_a_seed_outside_the_key_range(seed):
    # check_seed states the rule once; every object or call that keys a
    # stream applies it, with its message, before any stream is drawn.
    # The CLI's --seed is checked in its own test.
    from unitselect.cells import SplitSpec
    from unitselect.datagen import iter_blocks
    from unitselect.learner import Hyperparams, sample_cell_ids

    entry_points = [
        check_seed,
        random_stream,
        lambda s: Hyperparams(seed=s),
        lambda s: SplitSpec(seed=s),
        lambda s: random_config(2, 1, seed=s),
        lambda s: sample_cell_ids(10, 3, s),
        lambda s: next(iter_blocks(random_config(2, 1, seed=0), "experimental", 5, s)),
    ]
    if type(seed) is int:
        message = re.escape(f"seed must lie in [0, 2**64), got {seed}")
    else:
        message = re.escape(f"seed must be an integer, got {seed!r}")
    for call in entry_points:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(seed)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_seeds_in_the_key_range_key_philox_as_before(seed):
    assert check_seed(seed) == seed
    want = np.random.Generator(np.random.Philox(key=seed)).bit_generator.random_raw(4)
    assert np.array_equal(random_stream(seed).bit_generator.random_raw(4), want)
