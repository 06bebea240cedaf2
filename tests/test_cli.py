import csv
import dataclasses
import hashlib
import importlib.metadata
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import unitselect
from unitselect import cells, datagen
from unitselect.bounds import DEFAULT_BENEFIT_VECTOR
from unitselect.cells import SplitSpec
from unitselect.cli import _build_parser, main
from unitselect.informer import read_informer_csv
from unitselect.learner import (
    Hyperparams,
    PredictionTable,
    evaluate,
    save_model,
    train,
    write_predictions_csv,
)
from unitselect.model import ScmConfig, default_config, random_config


def run(*args):
    return main([str(a) for a in args])


def _perfect(truth):
    """Predictions equal to the true bounds of every cell."""
    return PredictionTable(
        truth.cell_id, truth.true_lower, truth.true_upper, np.zeros(len(truth), bool)
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory, desk4):
    """A full pipeline run on the 4-characteristic desk model, shared by the
    tests below."""
    root = tmp_path_factory.mktemp("cli")
    p = {
        "root": root,
        "config": root / "desk4.json",
        "exp": root / "exp.csv",
        "obs": root / "obs.csv",
        "truth": root / "truth.csv",
        "labels": root / "labels",
        "models": root / "models",
        "preds": root / "preds.csv",
    }
    desk4.dump(p["config"])
    assert run("simulate", "--config", p["config"], "--kind", "experimental",
               "--n", 40_000, "--seed", 101, "--out", p["exp"]) == 0
    assert run("simulate", "--config", p["config"], "--kind", "observational",
               "--n", 40_000, "--seed", 102, "--out", p["obs"]) == 0
    assert run("informer", "--config", p["config"], "--out", p["truth"]) == 0
    assert run("label", "--exp", p["exp"], "--obs", p["obs"],
               "--config", p["config"], "--threshold", 50,
               "--test-fraction", 0.2, "--seed", 7, "--out-dir", p["labels"]) == 0
    assert run("train", "--labels", p["labels"] / "train_labels.csv",
               "--hidden-width", 8, "--epochs", 80, "--learning-rate", 0.05,
               "--seed", 3, "--out-dir", p["models"]) == 0
    assert run("predict", "--model-lower", p["models"] / "model_lower.json",
               "--model-upper", p["models"] / "model_upper.json",
               "--out", p["preds"]) == 0
    return p


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_outputs(ws, desk4):
    assert ws["exp"].exists()
    meta = json.loads((ws["root"] / "exp.meta.json").read_text())
    assert meta["kind"] == "experimental"
    assert meta["n"] == 40_000
    assert meta["config_fingerprint"] == desk4.fingerprint


def test_simulate_rerun_identical(ws, tmp_path):
    out = tmp_path / "again.csv"
    assert run("simulate", "--config", ws["config"], "--kind", "experimental",
               "--n", 40_000, "--seed", 101, "--out", out) == 0
    assert out.read_bytes() == ws["exp"].read_bytes()


def test_simulate_empty(ws, tmp_path):
    out = tmp_path / "none.csv"
    assert run("simulate", "--config", ws["config"], "--kind", "observational",
               "--n", 0, "--seed", 1, "--out", out) == 0
    assert out.read_text() == "z1,z2,z3,z4,x,y\n"


def test_informer_output(ws):
    rows = _read_csv(ws["truth"])
    assert len(rows) == 17  # header + 16 cells
    assert rows[0][0] == "cell_id"
    for row in rows[1:]:
        lower, f, upper = float(row[-2]), float(row[-3]), float(row[-1])
        assert lower - 1e-9 <= f <= upper + 1e-9


def test_informer_rerun_identical(ws, tmp_path):
    out = tmp_path / "truth.csv"
    assert run("informer", "--config", ws["config"], "--out", out) == 0
    assert out.read_bytes() == ws["truth"].read_bytes()


def test_label_outputs(ws):
    train = _read_csv(ws["labels"] / "train_labels.csv")
    test = _read_csv(ws["labels"] / "test_labels.csv")
    drops = _read_csv(ws["labels"] / "drops.csv")
    assert train[0] == ["cell_id", "z1", "z2", "z3", "z4",
                        "lower_label", "upper_label", "n_exp", "n_obs"]
    assert drops[0] == ["cell_id", "reason", "n_exp", "n_obs"]
    n_eligible = len(train) + len(test) - 2
    assert n_eligible + len(drops) - 1 == 16  # every cell accounted for
    assert n_eligible >= 14
    assert len(test) - 1 >= 1


def test_label_rerun_identical(ws, tmp_path):
    out_dir = tmp_path / "labels"
    assert run("label", "--exp", ws["exp"], "--obs", ws["obs"],
               "--config", ws["config"], "--threshold", 50,
               "--test-fraction", 0.2, "--seed", 7, "--out-dir", out_dir) == 0
    for name in ("train_labels.csv", "test_labels.csv", "drops.csv"):
        assert (out_dir / name).read_bytes() == (ws["labels"] / name).read_bytes()


def test_label_no_eligible_cells(ws, tmp_path, capsys):
    out_dir = tmp_path / "labels"
    assert run("label", "--exp", ws["exp"], "--obs", ws["obs"],
               "--config", ws["config"], "--threshold", 10**9,
               "--seed", 7, "--out-dir", out_dir) == 0
    assert "no eligible cells" in capsys.readouterr().err
    assert len(_read_csv(out_dir / "train_labels.csv")) == 1  # header only
    assert len(_read_csv(out_dir / "drops.csv")) == 17


def test_label_refuses_a_split_that_leaves_no_training_cell(ws, tmp_path, capsys):
    out_dir = tmp_path / "labels"
    assert run("label", "--exp", ws["exp"], "--obs", ws["obs"],
               "--config", ws["config"], "--threshold", 50,
               "--test-fraction", 0.99, "--seed", 7, "--out-dir", out_dir) == 2
    assert "leaves no training cell" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("threshold", [-5, -1])
def test_label_refuses_a_negative_threshold(ws, tmp_path, capsys, threshold):
    out_dir = tmp_path / "labels"
    with pytest.raises(SystemExit) as exc:
        run("label", "--exp", ws["exp"], "--obs", ws["obs"], "--config", ws["config"],
            "--threshold", threshold, "--seed", 7, "--out-dir", out_dir)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"argument --threshold: threshold must be at least 0, got {threshold}\n"
    )
    assert not out_dir.exists()


def test_label_refuses_a_bad_threshold_before_reading(tmp_path, capsys):
    # the datasets and config are missing: reading them would exit 3
    missing = tmp_path / "nope.bin"
    with pytest.raises(SystemExit) as exc:
        run("label", "--exp", missing, "--obs", missing, "--config", missing,
            "--threshold", -5, "--seed", 7, "--out-dir", tmp_path / "labels")
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --threshold: threshold must be at least 0, got -5\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_label_empty_datasets_keep_the_config_width(ws, tmp_path):
    for kind in ("experimental", "observational"):
        assert run("simulate", "--config", ws["config"], "--kind", kind, "--n", 0,
                   "--seed", 1, "--out", tmp_path / f"{kind}.csv") == 0
    assert run("label", "--exp", tmp_path / "experimental.csv",
               "--obs", tmp_path / "observational.csv", "--config", ws["config"],
               "--seed", 7, "--out-dir", tmp_path / "labels") == 0
    assert _read_csv(tmp_path / "labels" / "test_labels.csv") == [
        ["cell_id", "z1", "z2", "z3", "z4", "lower_label", "upper_label", "n_exp", "n_obs"]
    ]


def _set_field(line, i, value):
    fields = line.split(",")
    fields[i] = value
    return ",".join(fields)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: ["cell_id,z1,z2,z3,z4,lower,upper,n_exp,n_obs", *lines[1:]],
        lambda lines: [*lines, lines[-1]],  # a repeated id
        lambda lines: [*lines[:-1], lines[-1] + ",1"],  # a long row
        lambda lines: [*lines[:-1], _set_field(lines[-1], -1, "1.5")],  # a count of 1.5
        lambda lines: [*lines[:-1], _set_field(lines[-1], 1, "2")],  # a bit of 2
        lambda lines: [*lines[:-1], _set_field(lines[-1], 0, "99")],  # id and bits differ
    ],
)
def test_train_refuses_bad_labels(ws, tmp_path, edit):
    lines = (ws["labels"] / "train_labels.csv").read_text().splitlines()
    bad = tmp_path / "labels.csv"
    bad.write_text("\n".join(edit(lines)) + "\n")
    assert run("train", "--labels", bad, "--epochs", 2, "--seed", 0,
               "--out-dir", tmp_path / "models") == 2
    bad.write_text("\n".join(lines) + "\n")
    assert run("train", "--labels", bad, "--epochs", 2, "--seed", 0,
               "--out-dir", tmp_path / "models") == 0


def test_label_fingerprint_mismatch(ws, tmp_path, desk8):
    other_cfg = tmp_path / "other.json"
    desk8.dump(other_cfg)
    rc = run("label", "--exp", ws["exp"], "--obs", ws["obs"],
             "--config", other_cfg, "--seed", 7, "--out-dir", tmp_path / "x")
    assert rc == 2


def test_label_wrong_kind(ws, tmp_path):
    rc = run("label", "--exp", ws["obs"], "--obs", ws["exp"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "x")
    assert rc == 2


def test_label_missing_dataset(ws, tmp_path):
    rc = run("label", "--exp", tmp_path / "nope.csv", "--obs", ws["obs"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "x")
    assert rc == 3


def test_label_refuses_a_ragged_packed_file(ws, tmp_path):
    data = {}
    for kind, seed in (("experimental", 1), ("observational", 2)):
        data[kind] = tmp_path / f"{kind}.bin"
        assert run("simulate", "--config", ws["config"], "--kind", kind, "--n", 1000,
                   "--seed", seed, "--out", data[kind]) == 0
    with open(data["observational"], "ab") as fh:
        fh.write(b"\x00\x00\x00")
    rc = run("label", "--exp", data["experimental"], "--obs", data["observational"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "labels")
    assert rc == 2
    assert not (tmp_path / "labels").exists()


def test_label_refuses_a_sidecar_of_the_other_format(ws, tmp_path):
    # exp.csv and exp.bin share exp.meta.json, so the second write replaces it
    for suffix, seed in ((".csv", 1), (".bin", 2)):
        assert run("simulate", "--config", ws["config"], "--kind", "experimental",
                   "--n", 1000, "--seed", seed, "--out", tmp_path / f"exp{suffix}") == 0
    rc = run("label", "--exp", tmp_path / "exp.csv", "--obs", ws["obs"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "labels")
    assert rc == 2
    assert not (tmp_path / "labels").exists()


def test_label_refuses_a_sidecar_field_of_the_wrong_type(ws, tmp_path, capsys):
    exp = tmp_path / "exp.csv"
    shutil.copy(ws["exp"], exp)
    meta = json.loads(datagen.meta_path(ws["exp"]).read_text())
    datagen.meta_path(exp).write_text(json.dumps(dict(meta, n_observed="4")))
    rc = run("label", "--exp", exp, "--obs", ws["obs"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "labels")
    assert rc == 2
    assert "n_observed must be an integer, got '4'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**64, -5])
def test_label_refuses_a_sidecar_seed_that_cannot_key_a_stream(ws, tmp_path, capsys, seed):
    exp = tmp_path / "exp.csv"
    shutil.copy(ws["exp"], exp)
    meta = json.loads(datagen.meta_path(ws["exp"]).read_text())
    datagen.meta_path(exp).write_text(json.dumps(dict(meta, seed=seed)))
    rc = run("label", "--exp", exp, "--obs", ws["obs"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "labels")
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad dataset sidecar {datagen.meta_path(exp)}: seed must lie in [0, 2**64)" in err
    assert not (tmp_path / "labels").exists()


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_label_refuses_a_sidecar_width_that_contradicts_the_config(
    ws, tmp_path, monkeypatch, capsys, suffix
):
    # Both sidecars claim 5 observed bits for data of the 4-bit model.
    data = {}
    for kind, seed in (("experimental", 1), ("observational", 2)):
        data[kind] = tmp_path / f"{kind}{suffix}"
        assert run("simulate", "--config", ws["config"], "--kind", kind, "--n", 1000,
                   "--seed", seed, "--out", data[kind]) == 0
        meta = datagen.meta_path(data[kind])
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), n_observed=5)))
    reads = []
    monkeypatch.setattr(datagen, "iter_codes", lambda *a: reads.append(a))
    rc = run("label", "--exp", data["experimental"], "--obs", data["observational"],
             "--config", ws["config"], "--seed", 7, "--out-dir", tmp_path / "labels")
    assert rc == 2
    assert "5 observed bits, the configuration has 4" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "labels").exists()


# sha256 of `simulate` output for the README's desk model (seeds 41 and 42):
# the bytes a change to the draw or the writers must not alter unnoticed.
PINNED_SIMULATE = {
    ("experimental", ".csv"): "e5e688f406dd432a7e2590826c7a025172483e8997abf172740acbd26a653171",
    ("experimental", ".bin"): "54fc57b71a106088320a50938f8a825c6cbaf949923cddefa2cc2f40df2ec55f",
    ("observational", ".csv"): "b9fa4620788b58bc04fb5522f73630a7c15b4469d3869b56fb23007fd50dadf4",
    ("observational", ".bin"): "1cc7e9b06c60c92f419682db77b6eb9204f23404c2a605571b297cffb95e5da9",
}
# The same for the appendix model that the benchmark draws (seeds 61 and 62),
# whose rows take 23 raw words in the experimental regime and 22 in the
# observational one.
PINNED_APPENDIX_SIMULATE = {
    "experimental": "548afd2486d939db90502f0e562da2fa693e333ece0ec80e806e01d67ed7ae6c",
    "observational": "207897689f345c9dde4d23cff2912ec04f0d79196795e31e8abf5798be22a057",
}


def _simulate_sha256(config, kind, seed, out):
    # past one shard, so the second shard's stream and a chunk tail are in it
    assert run("simulate", "--config", config, "--kind", kind,
               "--n", datagen.SHARD_SIZE + 1234, "--seed", seed, "--out", out) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, suffix", list(PINNED_SIMULATE))
def test_simulate_bytes_are_pinned(ws, tmp_path, kind, suffix):
    seed = 41 if kind == "experimental" else 42
    digest = _simulate_sha256(ws["config"], kind, seed, tmp_path / f"d{suffix}")
    assert digest == PINNED_SIMULATE[kind, suffix]


@pytest.mark.parametrize("kind", list(PINNED_APPENDIX_SIMULATE))
def test_appendix_simulate_bytes_are_pinned(tmp_path, kind):
    config = tmp_path / "appendix.json"
    default_config().dump(config)
    seed = 61 if kind == "experimental" else 62
    digest = _simulate_sha256(config, kind, seed, tmp_path / "d.bin")
    assert digest == PINNED_APPENDIX_SIMULATE[kind]


# sha256 of every file the ws chain writes, sidecars included, and of what
# select, evaluate and report write from it: the bytes no change may alter
# unnoticed.  The model files' bytes rest on the BLAS's sums; these were
# checked with numpy 2.4.6 (OpenBLAS 0.3.31) at one and two BLAS threads and
# on one CPU.
PINNED_CHAIN = {
    "desk4.json": "6279b8841b745c011c749269abbaa1e76d2d389ab34e1867da96ce676c569790",
    "exp.csv": "f9ac7942c2eceb7bcbe27631af8be9045bf100ba0eb77f766a28510de7795951",
    "exp.meta.json": "c00cfaeaff45cc507ab4160dc5f67e6bd45959c8db4a236d60e2d85b201abe8b",
    "labels/drops.csv": "e1751db8856e4233d791058230c09c8f4649d73aee4a826502d4de5e931dfacc",
    "labels/test_labels.csv": "3f473c11bf374e92a01fcb2e519f148039fb55639c0b57094e809867b9db294a",
    "labels/train_labels.csv": "c1237fbba27faa50ba3c22524446d9b11c8e1b875b73e131cd59b8cb3d0b62bb",
    "models/model_lower.json": "23f0396433b4f390fc63f88b88a78848a7215fad4bce2f6558b84b6fcb7affd3",
    "models/model_upper.json": "98b28b46b8a826b16f88022f8ceef0c34b3ce9411a0cc5b736c13e2bef06c377",
    "obs.csv": "f625af9fa8e0f9feb57e28e35588aa9ba8e4139291775cc296adb44ec0111bf5",
    "obs.meta.json": "12ca379f8ea6fc3f1cdb584237b3ca2d7e3f10b4ac481025b7878c0cd5fbe2a8",
    "preds.csv": "6976a8c4dd2f5b39402fd6984add4e6ec21233f40087a79cc3bb02b5ab0800ef",
    "truth.csv": "6b1060530a9f9eb921246b055a1e309997b971efe9790e9c1d603236e02c16d5",
    "lower_positive.csv": "d6dd468f16c0c54d313b1ba994bbbef739642483016dcb0853a32163db67aa79",
    "metrics.json": "309ef9355a581a2333a714760439fb5514f5d9e975386b468d9d0b913a379acb",
    "report.csv": "8e26934bf5f80023b72ac31ceb54947521f78854b855d209824687cf263f4e03",
    "top_k_lower.csv": "381844834f08e048f0db99e54fe983c771b817e20d06be90603ac6c4cfba8295",
    "top_k_midpoint.csv": "381844834f08e048f0db99e54fe983c771b817e20d06be90603ac6c4cfba8295",
}


def test_chain_bytes_are_pinned(ws, tmp_path):
    for mode, k in (("lower_positive", []), ("top_k_lower", ["--k", 5]),
                    ("top_k_midpoint", ["--k", 5])):
        assert run("select", "--predictions", ws["preds"], "--mode", mode, *k,
                   "--out", tmp_path / f"{mode}.csv") == 0
    assert run("evaluate", "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 10, "--seed", 4, "--out", tmp_path / "metrics.json") == 0
    assert run("report", "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 10, "--seed", 4, "--out", tmp_path / "report.csv") == 0
    digests = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for root in (ws["root"], tmp_path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    assert digests == PINNED_CHAIN


@pytest.fixture(scope="module")
def shards(tmp_path_factory, ws):
    """Both regimes of the desk model in four whole shards and a partial
    fifth, as CSV and as packed files."""
    paths = {}
    for suffix in (".csv", ".bin"):
        root = tmp_path_factory.mktemp("shards")  # one each: they share sidecar names
        for kind, seed in (("experimental", 11), ("observational", 12)):
            paths[kind, suffix] = root / f"{kind}{suffix}"
            assert run("simulate", "--config", ws["config"], "--kind", kind,
                       "--n", 4 * datagen.SHARD_SIZE + 5, "--seed", seed,
                       "--out", paths[kind, suffix]) == 0
    return paths


def _label_shards(ws, exp, obs, out_dir):
    return run("label", "--exp", exp, "--obs", obs, "--config", ws["config"],
               "--threshold", 50, "--seed", 7, "--out-dir", out_dir)


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_label_memory_follows_the_shard_not_the_file(ws, shards, tmp_path, suffix):
    # Reading a whole file costs 18 (CSV) or 10 (packed) bytes a row; each
    # file here has over 4 * SHARD_SIZE rows.  One shard with its counting
    # temporaries takes about 34 bytes a row of the shard.
    tracemalloc.start()
    try:
        rc = _label_shards(ws, shards["experimental", suffix],
                           shards["observational", suffix], tmp_path / "labels")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 48 * datagen.SHARD_SIZE


def _simulate_pair(config, n_exp, n_obs, root, suffix=".bin"):
    """Both regimes of ``config``, with ``n_exp`` and ``n_obs`` rows, under
    ``root``; returns the config file and the two dataset paths."""
    root.mkdir()
    path = root / "config.json"
    config.dump(path)
    data = []
    for kind, n, seed in (("experimental", n_exp, 21), ("observational", n_obs, 22)):
        data.append(root / f"{kind}{suffix}")
        assert run("simulate", "--config", path, "--kind", kind, "--n", n,
                   "--seed", seed, "--out", data[-1]) == 0
    return path, *data


def test_label_memory_follows_the_table_not_the_cells_seen(tmp_path):
    # 20 observed bits: a count table is 32 MiB, and over 100,000 cells are
    # seen.  Counting holds both regimes' tables and one table-sized count
    # temporary next to one shard; a row view per cell seen would add about
    # 200 bytes a cell.
    config, exp, obs = _simulate_pair(
        random_config(20, 2, seed=5), 4 * datagen.SHARD_SIZE + 5,
        4 * datagen.SHARD_SIZE + 5, tmp_path / "data",
    )
    table = (1 << 20) * 4 * 8
    tracemalloc.start()
    try:
        rc = run("label", "--exp", exp, "--obs", obs, "--config", config, "--threshold", 50,
                 "--seed", 7, "--out-dir", tmp_path / "labels")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 3 * table + 48 * datagen.SHARD_SIZE


def test_label_builds_no_count_map(ws, tmp_path, monkeypatch):
    # label counts each shard into its regime's count table through
    # cells.aggregate and labels the two tables with cells.build_labels; no
    # dict reaches either.  Shards of 10,000 rows: four a regime.
    monkeypatch.setattr(datagen, "SHARD_SIZE", 10_000)
    calls = []
    for name in ("aggregate", "build_labels"):
        fn = getattr(cells, name)

        def spy(*args, _name=name, _fn=fn, **kwargs):
            calls.append((_name, inspect.signature(_fn).bind(*args, **kwargs).arguments))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cells, name, spy)
    out_dir = tmp_path / "labels"
    assert run("label", "--exp", ws["exp"], "--obs", ws["obs"], "--config", ws["config"],
               "--threshold", 50, "--test-fraction", 0.2, "--seed", 7,
               "--out-dir", out_dir) == 0
    assert [name for name, _ in calls] == ["aggregate"] * 8 + ["build_labels"]
    counted = [bound for _, bound in calls[:8]]
    assert [len(bound["samples"]) for bound in counted] == [10_000] * 8
    assert [bound["regime"] for bound in counted] == ["experimental"] * 4 + ["observational"] * 4
    tables = [bound["into"] for bound in counted]
    assert all(type(t) is np.ndarray and t.shape == (16, 4) for t in tables)
    assert all(t is tables[0] for t in tables[:4]) and all(t is tables[4] for t in tables[4:])
    labelled = calls[8][1]
    assert labelled["exp_counts"] is tables[0] and labelled["obs_counts"] is tables[4]
    assert not any(isinstance(a, dict) for _, bound in calls for a in bound.values())
    for name in ("train_labels.csv", "test_labels.csv", "drops.csv"):
        assert (out_dir / name).read_bytes() == (ws["labels"] / name).read_bytes()


def _label_through_tables(config, exp, obs, threshold, seed, out_dir):
    """``label``'s three files, built with README's idiom from the same
    shards: ``aggregate`` into a count table per regime, then
    ``build_labels``."""
    tables = [np.zeros((1 << config.n_observed, 4), dtype=np.int64) for _ in datagen.REGIMES]
    for path, regime, table in zip((exp, obs), datagen.REGIMES, tables):
        for codes in datagen.iter_codes(path):
            cells.aggregate(codes, regime, into=table)
    labels, drops = cells.build_labels(*tables, DEFAULT_BENEFIT_VECTOR, threshold)
    train_set, test_set = cells.split(labels, SplitSpec(seed=seed)) if labels else (labels,) * 2
    out_dir.mkdir()
    cells.write_labels_csv(train_set, out_dir / "train_labels.csv")
    cells.write_labels_csv(test_set, out_dir / "test_labels.csv")
    cells.write_drops_csv(drops, out_dir / "drops.csv")


@pytest.mark.parametrize(
    "bits, n_exp, n_obs, threshold",
    [
        (4, 40_000, 40_000, 50),  # desk4
        (16, 2 * datagen.SHARD_SIZE + 3, 2 * datagen.SHARD_SIZE + 7, 20),
        (16, datagen.SHARD_SIZE, 0, 0),  # one empty regime: every cell a ZERO_ARM drop
        (4, 0, 1000, 0),
        (4, 0, 0, 50),  # both empty
    ],
)
def test_label_writes_what_the_count_maps_give(desk4, tmp_path, bits, n_exp, n_obs, threshold):
    config = desk4 if bits == 4 else random_config(bits, 2, seed=16)
    suffix = ".csv" if bits == 4 else ".bin"
    path, exp, obs = _simulate_pair(config, n_exp, n_obs, tmp_path / "data", suffix)
    assert run("label", "--exp", exp, "--obs", obs, "--config", path, "--threshold", threshold,
               "--seed", 7, "--out-dir", tmp_path / "tables") == 0
    _label_through_tables(config, exp, obs, threshold, 7, tmp_path / "api")
    for name in ("train_labels.csv", "test_labels.csv", "drops.csv"):
        assert (tmp_path / "tables" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_label_writes_the_same_labels_from_csv_and_packed_files(ws, shards, tmp_path):
    outs = [tmp_path / "from_csv", tmp_path / "from_bin"]
    for suffix, out in zip((".csv", ".bin"), outs):
        assert _label_shards(ws, shards["experimental", suffix],
                             shards["observational", suffix], out) == 0
    for name in ("train_labels.csv", "test_labels.csv", "drops.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_label_refuses_a_bad_byte_in_the_last_shard(ws, shards, tmp_path, suffix):
    exp = tmp_path / f"exp{suffix}"
    shutil.copy(shards["experimental", suffix], exp)
    shutil.copy(datagen.meta_path(shards["experimental", suffix]), datagen.meta_path(exp))
    raw = bytearray(exp.read_bytes())
    if suffix == ".csv":
        raw[-2] = ord("2")  # y of the last row
    else:
        raw[-1] |= 0x10  # bit 28 of the last word, beyond the 4 observed bits
    exp.write_bytes(bytes(raw))
    assert _label_shards(ws, exp, shards["observational", suffix], tmp_path / "labels") == 2
    assert not (tmp_path / "labels").exists()


def test_train_rerun_identical(ws, tmp_path):
    out_dir = tmp_path / "models"
    assert run("train", "--labels", ws["labels"] / "train_labels.csv",
               "--hidden-width", 8, "--epochs", 80, "--learning-rate", 0.05,
               "--seed", 3, "--out-dir", out_dir) == 0
    for name in ("model_lower.json", "model_upper.json"):
        assert (out_dir / name).read_bytes() == (ws["models"] / name).read_bytes()


def test_train_missing_labels(ws, tmp_path):
    rc = run("train", "--labels", tmp_path / "nope.csv", "--seed", 3,
             "--out-dir", tmp_path / "m")
    assert rc == 3


def test_predict_output(ws):
    rows = _read_csv(ws["preds"])
    assert rows[0] == ["cell_id", "pred_lower", "pred_upper", "repaired"]
    assert len(rows) == 17
    assert [int(r[0]) for r in rows[1:]] == list(range(16))
    for r in rows[1:]:
        assert -2.0 <= float(r[1]) <= float(r[2]) <= 1.0


def test_predict_width_mismatch(ws, tmp_path):
    # a 3-bit model cannot pair with the 4-bit one
    narrow = train([[0, 0, 1], [1, 0, 1]], [0.1, 0.2],
                   Hyperparams(hidden_width=4, epochs=2))
    save_model(narrow, tmp_path / "narrow.json")
    rc = run("predict", "--model-lower", ws["models"] / "model_lower.json",
             "--model-upper", tmp_path / "narrow.json", "--out", tmp_path / "p.csv")
    assert rc == 2


@pytest.mark.parametrize(
    "edit",
    [
        {"hyperparams": {"hidden_width": 3}},  # the weights are 8 wide
        {"hyperparams": {"epochs": True, "hidden_width": 2.5}},
        {"hyperparams": {"learning_rate": True}},
        {"hyperparams": {"epochs": 5}, "loss_history": [0.5]},  # not epochs + 1 entries
        {"hyperparams": {"epochs": 5}, "loss_history": []},
        {"arch": {"n_inputs": 0}, "weights": {"w1": []}},  # a network of no inputs
    ],
)
def test_predict_refuses_a_model_file_that_contradicts_itself(ws, tmp_path, capsys, edit):
    doc = json.loads((ws["models"] / "model_lower.json").read_text())
    for key, value in edit.items():
        doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = run("predict", "--model-lower", bad, "--model-upper",
             ws["models"] / "model_upper.json", "--out", tmp_path / "p.csv")
    assert rc == 2
    assert f"malformed model file {bad}" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_refuses_a_cell_space_past_the_guard(tmp_path, capsys):
    wide = train(np.zeros((2, 40)), [0.1, 0.2], Hyperparams(hidden_width=2, epochs=1))
    save_model(wide, tmp_path / "wide.json")
    rc = run("predict", "--model-lower", tmp_path / "wide.json",
             "--model-upper", tmp_path / "wide.json", "--out", tmp_path / "p.csv")
    assert rc == 2
    assert "2**40 cells exceeds the guard" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_missing_model(ws, tmp_path):
    rc = run("predict", "--model-lower", ws["models"] / "model_lower.json",
             "--model-upper", tmp_path / "nope.json", "--out", tmp_path / "p.csv")
    assert rc == 3


@pytest.mark.parametrize("content", [b"not json\n", b'{"arch": "\xff"}\n'])
def test_predict_names_a_model_file_it_cannot_read(ws, tmp_path, capsys, content):
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(content)
    rc = run("predict", "--model-lower", ws["models"] / "model_lower.json",
             "--model-upper", bad, "--out", tmp_path / "p.csv")
    assert rc == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def _not_ascii(source, path, header=False):
    """A copy of the file ``source`` at ``path`` with a 0xff byte in its
    header or in its last row."""
    raw = bytearray(source.read_bytes())
    raw[0 if header else raw.rindex(b"\n", 0, len(raw) - 1) + 1] = 0xFF
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("command", ["select", "train", "train-header", "evaluate", "report"])
def test_a_csv_that_is_not_ascii_is_named(ws, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    labels = ws["labels"] / "train_labels.csv"
    args = {
        "select": ["--predictions", _not_ascii(ws["preds"], bad), "--mode", "lower_positive",
                   "--out", tmp_path / "out.csv"],
        "train": ["--labels", _not_ascii(labels, bad), "--seed", 3, "--out-dir", tmp_path / "m"],
        "train-header": ["--labels", _not_ascii(labels, bad, header=True), "--seed", 3,
                         "--out-dir", tmp_path / "m"],
        # the predictions are good: the error must say which of the two
        # files it refused
        "evaluate": ["--predictions", ws["preds"], "--informer", _not_ascii(ws["truth"], bad),
                     "--seed", 1, "--out", tmp_path / "out.csv"],
        "report": ["--predictions", ws["preds"], "--informer", _not_ascii(ws["truth"], bad),
                   "--seed", 1, "--out", tmp_path / "out.csv"],
    }[command]
    assert run(command.partition("-")[0], *args) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "codec can't decode byte 0xff" in err
    assert sorted(tmp_path.iterdir()) == [bad]


def test_select_lower_positive(ws, tmp_path):
    out = tmp_path / "sel.csv"
    assert run("select", "--predictions", ws["preds"],
               "--mode", "lower_positive", "--out", out) == 0
    preds = {int(r[0]): float(r[1]) for r in _read_csv(ws["preds"])[1:]}
    rows = _read_csv(out)
    assert rows[0] == ["cell_id", "pred_lower", "pred_upper"]
    chosen = [int(r[0]) for r in rows[1:]]
    assert set(chosen) == {cid for cid, lo in preds.items() if lo > 0.0}
    lowers = [float(r[1]) for r in rows[1:]]
    assert lowers == sorted(lowers, reverse=True)


def test_select_lower_positive_leaves_out_a_lower_bound_of_zero(tmp_path):
    # "positive": a lower bound of exactly 0, of either sign, promises no
    # benefit, and the least positive one does
    preds = tmp_path / "p.csv"
    write_predictions_csv(
        PredictionTable(
            cell_id=[0, 1, 2, 3],
            pred_lower=[0.0, 1e-300, -0.0, 0.25],
            pred_upper=[0.5, 0.5, 0.5, 0.5],
            repaired=[False] * 4,
        ),
        preds,
    )
    out = tmp_path / "sel.csv"
    assert run("select", "--predictions", preds, "--mode", "lower_positive", "--out", out) == 0
    assert [int(r[0]) for r in _read_csv(out)[1:]] == [3, 1]


def test_select_top_k(tmp_path):
    preds = tmp_path / "p.csv"
    write_predictions_csv(
        PredictionTable(
            cell_id=[0, 1, 2, 3],
            pred_lower=[0.5, 0.5, -0.1, 0.7],
            pred_upper=[0.6, 0.9, 0.9, 0.8],
            repaired=[False] * 4,
        ),
        preds,
    )
    out = tmp_path / "sel.csv"
    assert run("select", "--predictions", preds, "--mode", "top_k_lower",
               "--k", 3, "--out", out) == 0
    rows = _read_csv(out)
    # tie between cells 0 and 1 resolves by ascending cell_id
    assert [int(r[0]) for r in rows[1:]] == [3, 0, 1]
    out2 = tmp_path / "sel2.csv"
    assert run("select", "--predictions", preds, "--mode", "top_k_midpoint",
               "--k", 2, "--out", out2) == 0
    # midpoints: 0.55, 0.7, 0.4, 0.75 -> cells 3 and 1
    assert {int(r[0]) for r in _read_csv(out2)[1:]} == {1, 3}
    assert run("select", "--predictions", preds, "--mode", "top_k_lower",
               "--out", tmp_path / "x.csv") == 2  # k missing


def test_selection_policy_validation(ws, tmp_path):
    out = tmp_path / "sel.csv"
    modes = ("lower_positive", "top_k_lower", "top_k_midpoint")
    cases = [(mode, ["--k", k]) for mode in modes for k in (0, -5)]
    cases += [("top_k_lower", []), ("top_k_midpoint", [])]  # k missing
    cases += [("lower_positive", ["--k", 3])]  # keeps every positive cell: no k
    for mode, k in cases:
        assert run("select", "--predictions", ws["preds"], "--mode", mode,
                   *k, "--out", out) == 2
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run("select", "--predictions", ws["preds"], "--mode", "bogus", "--out", out)
    assert exc.value.code == 2


def test_evaluate_metrics(ws, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert run("evaluate", "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 16, "--seed", 0, "--out", out) == 0
    echoed = json.loads(capsys.readouterr().out)
    metrics = json.loads(out.read_text())
    assert metrics == echoed
    assert set(metrics) == {
        "mae_lower", "mae_upper", "n", "seed",
        "reference_mae_lower", "reference_mae_upper",
    }
    assert metrics["n"] == 16 and metrics["seed"] == 0
    assert 0.0 <= metrics["mae_lower"] <= 3.0
    assert metrics["reference_mae_lower"] == 0.5652
    assert metrics["reference_mae_upper"] == 0.5447


def test_evaluate_perfect_predictions(ws, tmp_path, capsys):
    preds = tmp_path / "perfect.csv"
    write_predictions_csv(_perfect(read_informer_csv(ws["truth"])), preds)
    assert run("evaluate", "--predictions", preds, "--informer", ws["truth"],
               "--sample-n", 16, "--seed", 0) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["mae_lower"] == 0.0
    assert metrics["mae_upper"] == 0.0


def test_evaluate_sample_too_large(ws, tmp_path):
    rc = run("evaluate", "--predictions", ws["preds"], "--informer", ws["truth"],
             "--seed", 0)  # default sample_n=200 exceeds 16 cells
    assert rc == 2


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_sample_n_must_be_positive(ws, tmp_path, command):
    out = tmp_path / "out"
    assert run(command, "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 0, "--seed", 0, "--out", out) == 2
    assert not out.exists()


def test_report_output(ws, tmp_path):
    out = tmp_path / "report.csv"
    assert run("report", "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 10, "--seed", 4, "--out", out) == 0
    rows = _read_csv(out)
    assert rows[0] == ["cell_id", "true_lower", "pred_lower", "true_upper", "pred_upper"]
    assert len(rows) == 11
    out2 = tmp_path / "report2.csv"
    assert run("report", "--predictions", ws["preds"], "--informer", ws["truth"],
               "--sample-n", 10, "--seed", 4, "--out", out2) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_report_perfect_predictions_pair_up(ws, tmp_path):
    preds = tmp_path / "perfect.csv"
    write_predictions_csv(_perfect(read_informer_csv(ws["truth"])), preds)
    out = tmp_path / "report.csv"
    assert run("report", "--predictions", preds, "--informer", ws["truth"],
               "--sample-n", 16, "--seed", 0, "--out", out) == 0
    for row in _read_csv(out)[1:]:
        assert row[1] == row[2]
        assert row[3] == row[4]


def _with_row(path, out, index, row):
    """Copy a CSV, replacing data row ``index`` (0-based, after the header)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    lines[1 + index] = row
    Path(out).write_text("\r\n".join(lines) + "\r\n", encoding="ascii")
    return out


def test_short_predictions_row_exits_2(ws, tmp_path, capsys):
    bad = _with_row(ws["preds"], tmp_path / "short.csv", 3, "3,0.25")
    assert run("select", "--predictions", bad, "--mode", "lower_positive",
               "--out", tmp_path / "sel.csv") == 2
    assert "Traceback" not in capsys.readouterr().err


def test_short_informer_row_exits_2(ws, tmp_path):
    bad = _with_row(ws["truth"], tmp_path / "short.csv", 5, "5,0.5,0.5")
    assert run("evaluate", "--predictions", ws["preds"], "--informer", bad,
               "--sample-n", 16, "--seed", 0) == 2
    assert run("report", "--predictions", ws["preds"], "--informer", bad,
               "--sample-n", 16, "--seed", 0, "--out", tmp_path / "r.csv") == 2


def test_short_labels_row_exits_2(ws, tmp_path):
    labels = ws["labels"] / "train_labels.csv"
    first = _read_csv(labels)[1]
    bad = _with_row(labels, tmp_path / "short.csv", 0, ",".join(first[:-2]))
    assert run("train", "--labels", bad, "--hidden-width", 4, "--epochs", 2,
               "--seed", 0, "--out-dir", tmp_path / "models") == 2


def test_report_checks_the_cell_space_like_evaluate(ws, tmp_path):
    # id 6 twice and id 7 missing; then a table one cell short of the space
    row6 = ",".join(_read_csv(ws["preds"])[7])
    duplicated = _with_row(ws["preds"], tmp_path / "dup.csv", 7, row6)
    lines = ws["preds"].read_text(encoding="ascii").splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\r\n".join(lines[:-1]) + "\r\n", encoding="ascii")
    for preds in (duplicated, short):
        assert run("evaluate", "--predictions", preds, "--informer", ws["truth"],
                   "--sample-n", 8, "--seed", 0) == 2
        assert run("report", "--predictions", preds, "--informer", ws["truth"],
                   "--sample-n", 8, "--seed", 0, "--out", tmp_path / "r.csv") == 2


@pytest.mark.parametrize("field, value", [(1, "nan"), (2, "inf"), (0, "9")])
def test_non_finite_or_unordered_predictions_exit_2(ws, tmp_path, capsys, field, value):
    row = _read_csv(ws["preds"])[5]
    row[field] = value
    bad = _with_row(ws["preds"], tmp_path / "bad.csv", 4, ",".join(row))
    out = tmp_path / "metrics.json"
    assert run("evaluate", "--predictions", bad, "--informer", ws["truth"],
               "--sample-n", 16, "--seed", 0, "--out", out) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field, value", [(7, "nan"), (9, "-inf"), (0, "4")])
def test_non_finite_or_unordered_informer_exits_2(ws, tmp_path, field, value):
    row = _read_csv(ws["truth"])[6]
    row[field] = value
    bad = _with_row(ws["truth"], tmp_path / "bad.csv", 5, ",".join(row))
    assert run("evaluate", "--predictions", ws["preds"], "--informer", bad,
               "--sample-n", 16, "--seed", 0) == 2


def test_bad_vector_rejected(ws, tmp_path, capsys):
    for vector, rule in (("1,-1,-1", "benefit vector needs 4 comma-separated payoffs"),
                         ("1,-1,-1,x", "could not convert string")):
        with pytest.raises(SystemExit) as exc:
            run("informer", "--config", ws["config"], "--vector", vector,
                "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --vector: {rule}" in err and "_parse_" not in err


def test_simulate_bad_arguments_exit_2(ws, tmp_path):
    out = tmp_path / "exp.csv"
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--config", ws["config"], "--kind", "experimental",
            "--n", 10, "--seed", 1, "--out", out, "--fmt", "csv")
    assert exc.value.code == 2
    assert run("simulate", "--config", ws["config"], "--kind", "experimental",
               "--n", -1, "--seed", 1, "--out", out) == 2
    assert list(tmp_path.iterdir()) == []


def test_malformed_config_exits_2(tmp_path, capsys, desk4):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "must be a JSON object" in capsys.readouterr().err
    # int() would load this as a 1-bit model with 5 latents
    bad.write_text(json.dumps(dict(dataclasses.asdict(desk4), n_observed=True, n_unobserved=5)))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "n_observed must be an integer, got True" in capsys.readouterr().err
    # float() would load this as a noise probability of 1.0
    bad.write_text(json.dumps(dict(dataclasses.asdict(desk4), bern_ux=True)))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "bern_ux must be a finite number, got True" in capsys.readouterr().err
    # float() would load these strings as 0.5 and 1.0
    bern_ux = dict(dataclasses.asdict(desk4), bern_ux="0.5")
    bad.write_text(json.dumps(bern_ux))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "bern_ux must be a finite number, got '0.5'" in capsys.readouterr().err
    weights = dict(dataclasses.asdict(desk4))
    weights["weights_x"] = ["1e0", *weights["weights_x"][1:]]
    bad.write_text(json.dumps(weights))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "weights_x[0] must be a finite number" in capsys.readouterr().err
    # a misspelled key would load as the default and fingerprint as it
    bad.write_text(json.dumps(dict(dataclasses.asdict(desk4), experiment_asign_prob=0.9)))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "unknown key 'experiment_asign_prob'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_label_refuses_a_cell_space_past_the_guard_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    config = tmp_path / "wide.json"
    random_config(25, 0, seed=1).dump(config)
    for kind, seed in (("experimental", 1), ("observational", 2)):
        assert run("simulate", "--config", config, "--kind", kind, "--n", 100,
                   "--seed", seed, "--out", tmp_path / f"{kind}.bin") == 2
        assert "2**25 cells exceeds the guard" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.json"]
    reads = []
    monkeypatch.setattr(datagen, "read_dataset", lambda *a: reads.append(a))
    monkeypatch.setattr(datagen, "iter_codes", lambda *a: reads.append(a))
    monkeypatch.setattr(datagen, "read_meta", lambda *a: reads.append(a))
    assert run("label", "--exp", tmp_path / "experimental.bin",
               "--obs", tmp_path / "observational.bin", "--config", config,
               "--seed", 7, "--out-dir", tmp_path / "labels") == 2
    assert "2**25 cells exceeds the guard" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "labels").exists()


def test_informer_refuses_a_latent_count_past_the_guard(tmp_path, capsys):
    # 2**30 completions per cell would ask for tens of GB; the config is
    # refused before any array is built.
    config = tmp_path / "latent.json"
    random_config(3, 30, seed=1).dump(config)
    tracemalloc.start()
    try:
        rc = run("informer", "--config", config, "--out", tmp_path / "truth.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20
    assert "30 latents exceed the guard of 12" in capsys.readouterr().err
    assert not (tmp_path / "truth.csv").exists()


def test_readme_commands_use_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = _build_parser()._subparsers._group_actions[0].choices
    seen = set()
    for cmd, rest in re.findall(r"(?m)^unitselect (\S+)(.*)$", shell):
        assert cmd in commands
        flags = set(re.findall(r"(?<!\S)--[\w-]+", rest))
        assert flags <= set(commands[cmd]._option_string_actions), (cmd, flags)
        seen.add(cmd)
    assert len(seen) == len(commands)


def test_readme_python_runs(tmp_path, monkeypatch, appendix):
    # The README's Python: the two heredocs that write model configurations
    # and the "Library use" block, run in order in a fresh directory, with
    # the facts the README states about their results.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    heredocs = re.findall(r"^python3 - <<'EOF'\n(.*?)^EOF$", readme, re.S | re.M)
    library = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(heredocs) == 2 and len(library) == 1
    monkeypatch.chdir(tmp_path)
    for code in [*heredocs, *library]:
        ns = {}
        exec(compile(code, "README.md", "exec"), ns)

    assert ScmConfig.load("desk.json") == random_config(4, 2, seed=370)
    assert ScmConfig.load("appendix.json") == appendix
    truth, labels, drops, counts = ns["truth"], ns["labels"], ns["drops"], ns["counts"]
    assert truth.true_lower.dtype == np.float64 and len(truth.true_lower) == 32768
    assert truth.exp.shape == (32768, 2)
    assert type(truth[70:80]) is type(truth)
    assert truth[70:80].cell_id.tolist() == list(range(70, 80))
    assert labels.lower_label.dtype == np.float64 and len(labels) > 0
    assert set(drops.reason) <= {"BELOW_THRESHOLD", "ZERO_ARM", "INCONSISTENT"}
    for table in counts:
        assert table.shape == (32768, 4) and table.dtype == np.int64 and table.sum() == 10**6


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["simulate", "label", "train", "evaluate", "report"])
def test_seed_outside_the_key_range_exits_2_before_reading(tmp_path, capsys, command, seed):
    # Every input is missing, so a command that got as far as reading would
    # return 3 instead.
    missing = tmp_path / "missing"
    args = {
        "simulate": ["--config", missing, "--kind", "experimental", "--n", 10,
                     "--out", tmp_path / "x.csv"],
        "label": ["--exp", missing, "--obs", missing, "--config", missing,
                  "--out-dir", tmp_path / "labels"],
        "train": ["--labels", missing, "--out-dir", tmp_path / "models"],
        "evaluate": ["--predictions", missing, "--informer", missing],
        "report": ["--predictions", missing, "--informer", missing,
                   "--out", tmp_path / "r.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(command, *args, "--seed", seed)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: seed must lie in [0, 2**64)" in err and "_parse_" not in err
    assert list(tmp_path.iterdir()) == []


def test_train_options_are_the_hyperparams(ws, tmp_path):
    commands = _build_parser()._subparsers._group_actions[0].choices
    actions = commands["train"]._option_string_actions
    options = set(actions) - {"-h", "--help", "--labels", "--out-dir"}
    fields = dataclasses.fields(Hyperparams)
    assert options == {"--" + f.name.replace("_", "-") for f in fields}
    # each option's default is its field's, except the seed, which is required
    for f in fields:
        action = actions["--" + f.name.replace("_", "-")]
        assert action.required if f.name == "seed" else action.default == f.default
    # the other defaults the library states are the commands' defaults too
    split_defaults = {f.name: f.default for f in dataclasses.fields(SplitSpec)}
    test_fraction = commands["label"]._option_string_actions["--test-fraction"]
    assert test_fraction.default == split_defaults["test_fraction"]
    sample_n = inspect.signature(evaluate).parameters["sample_n"].default
    for command in ("evaluate", "report"):
        assert commands[command]._option_string_actions["--sample-n"].default == sample_n
    with pytest.raises(SystemExit) as exc:
        run("train", "--labels", ws["labels"] / "train_labels.csv", "--batch-size", 4,
            "--seed", 3, "--out-dir", tmp_path / "m")
    assert exc.value.code == 2


def test_custom_vector_accepted(ws, tmp_path):
    out = tmp_path / "flip.csv"
    assert run("informer", "--config", ws["config"], "--vector", "0,1,1,1",
               "--out", out) == 0
    rows = _read_csv(out)
    assert len(rows) == 17
    assert rows != _read_csv(ws["truth"])


def _env_with_package():
    """The environment with this package's source directory on PYTHONPATH."""
    src = str(Path(unitselect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_installed(ws, tmp_path):
    # The [project.scripts] target resolves to cli.main and runs; checked
    # without an install, through ``python -m unitselect``.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, sep, attr = scripts["unitselect"].partition(":")
    assert sep and module and attr
    assert getattr(importlib.import_module(module), attr) is main

    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "unitselect", "simulate", "--config", str(ws["config"]),
         "--kind", "experimental", "--n", "100", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=_env_with_package(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 100 experimental samples" in proc.stdout
    assert out.exists()


# Generates the desk8 datasets, labels them and trains both bounds at the
# default width on the ~36 training cells, as the CLI chain does, then builds
# the appendix informer table; prints one digest of every array made on the way.
_CHAIN_DIGEST = """
import hashlib
from unitselect import (
    DEFAULT_BENEFIT_VECTOR, cells, datagen, default_config, informer_table, learner, random_config,
)
from unitselect.model import cell_bits

config = random_config(8, 3, seed=8)
digest = hashlib.sha256()
counts = {}
for regime, seed in (("experimental", 1), ("observational", 2)):
    for block in datagen.iter_blocks(config, regime, 60_000, seed):
        digest.update(block.tobytes())
        counts[regime] = cells.aggregate(block, regime, into=counts.get(regime))
labels, _ = cells.build_labels(*counts.values(), DEFAULT_BENEFIT_VECTOR, threshold=200)
train_set, _ = cells.split(labels, cells.SplitSpec(seed=7))
features = cell_bits(train_set.cell_id, 8)
for targets in (train_set.lower_label, train_set.upper_label):
    model = learner.train(features, targets, learner.Hyperparams(seed=3))
    for array in (targets, *model.params):
        digest.update(array.tobytes())
table = informer_table(default_config(), DEFAULT_BENEFIT_VECTOR)
for name in table._columns:
    digest.update(getattr(table, name).tobytes())
print(len(train_set), digest.hexdigest())
"""


def test_cli_chain_bits_do_not_depend_on_the_blas_thread_count():
    # The contract README states: datasets, labels and models at CLI-chain
    # size, and informer tables, are the same at any BLAS thread count.  (At
    # appendix scale the training bits hold only at one thread; that is not
    # asserted here.)
    runs = []
    for threads in ("1", "2"):
        env = dict(_env_with_package(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _CHAIN_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert 20 <= int(runs[0][0]) <= 60  # training cells
    assert runs[1] == runs[0]


def test_every_export_resolves():
    # a name left in an __all__ after its definition is deleted fails here
    modules = [unitselect] + [
        importlib.import_module(f"unitselect.{info.name}")
        for info in pkgutil.iter_modules(unitselect.__path__)
        if info.name != "__main__"  # runs the CLI when imported
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {"unitselect", "unitselect.datagen", "unitselect.model"} <= {
        m.__name__ for m in exporting}
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"

    # Each public name is stated once, in its module's __all__: the package
    # exports their concatenation, and a name in two lists would be shadowed
    # silently by the later star import.
    library = [unitselect.bounds, unitselect.cells, unitselect.datagen,
               unitselect.informer, unitselect.learner, unitselect.model]
    assert unitselect.__all__ == [name for m in library for name in m.__all__]
    assert len(set(unitselect.__all__)) == len(unitselect.__all__)
    for name in unitselect.__all__:
        owner = next(m for m in library if name in m.__all__)
        assert getattr(unitselect, name) is getattr(owner, name), name
    # The names the package listed by hand before, all still exported but
    # true_benefit_profile, ExogenousAssignment and CellKey, deleted for
    # having no caller outside the tests and the benchmark's rows.
    deleted = {"true_benefit_profile", "ExogenousAssignment", "CellKey"}
    for name in _HAND_LISTED_EXPORTS:
        assert (name in unitselect.__all__) == (name not in deleted), name
    assert len(_HAND_LISTED_EXPORTS) == 50


_HAND_LISTED_EXPORTS = """
    BenefitVector BoundsBreakdown CellKey CellSpaceTooLarge ConfigError
    DEFAULT_BENEFIT_VECTOR DatasetMeta DropTable ExogenousAssignment
    ExperimentalDistribution FullProfile Hyperparams IneligibleCellError
    InformerTable LabelTable MAX_CELLS Model ObservationalJoint PredictionTable
    ResponseProfile ScmConfig SplitSpec aggregate benefit_bounds build_labels
    completion_weights counterfactual_pair default_config estimate eval_x eval_y
    evaluate exact_benefit exact_experimental exact_observational informer_table
    iter_codes m_value pns_bounds predict_all random_config read_dataset
    response_profile sigma split train true_benefit_profile value_range w_term
    write_dataset
""".split()


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures imports logging; datagen imports it only to generate
    # more than one shard, so it adds nothing to every command's start-up.
    code = ("import sys, unitselect.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed("unitselect"),
                    reason="the unitselect distribution is not installed")
def test_console_script_on_path(ws, tmp_path):
    exe = shutil.which("unitselect")
    assert exe is not None
    proc = subprocess.run(
        [exe, "simulate", "--config", str(ws["config"]), "--kind", "experimental",
         "--n", "100", "--seed", "1", "--out", str(tmp_path / "cli.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wrote 100 experimental samples" in proc.stdout


def test_bulk_paths_build_no_row_objects(tmp_path, desk8, monkeypatch):
    """Counting, table building, CSV I/O, evaluation and the
    train/select/evaluate/report commands work on columns: they iterate no
    table."""
    from unitselect import cells, informer, learner
    from unitselect.datagen import iter_blocks
    from unitselect.tables import CellTable

    (exp_rows,) = iter_blocks(desk8, "experimental", 60_000, 5)
    (obs_rows,) = iter_blocks(desk8, "observational", 60_000, 6)
    built = {}
    iterate = CellTable.__iter__

    def counting_rows(table):
        for row in iterate(table):
            built[type(table).__name__] = built.get(type(table).__name__, 0) + 1
            yield row

    monkeypatch.setattr(CellTable, "__iter__", counting_rows)

    v = unitselect.DEFAULT_BENEFIT_VECTOR
    exp_counts = cells.aggregate(exp_rows, "experimental")
    obs_counts = cells.aggregate(obs_rows, "observational")
    labels, drops = cells.build_labels(exp_counts, obs_counts, v, threshold=200)
    assert len(labels) >= 10 and len(drops) >= 10
    train_set, test_set = cells.split(labels, cells.SplitSpec(0.2, seed=1))
    cells.write_labels_csv(train_set, tmp_path / "train_labels.csv")
    cells.write_labels_csv(test_set, tmp_path / "test_labels.csv")
    cells.write_drops_csv(drops, tmp_path / "drops.csv")
    assert (cells.read_labels_csv(tmp_path / "test_labels.csv").cell_id == test_set.cell_id).all()
    assert run("train", "--labels", tmp_path / "train_labels.csv", "--hidden-width", 4,
               "--epochs", 3, "--seed", 0, "--out-dir", tmp_path / "models") == 0
    model = train(np.eye(8), np.linspace(-1.0, 0.5, 8), Hyperparams(hidden_width=4, epochs=3))
    truth = informer.informer_table(desk8, v)
    informer.write_informer_csv(truth, tmp_path / "truth.csv")
    truth = informer.read_informer_csv(tmp_path / "truth.csv")
    preds = learner.predict_all(model, model, 8, v)
    learner.write_predictions_csv(preds, tmp_path / "preds.csv")
    preds = learner.read_predictions_csv(tmp_path / "preds.csv")
    learner.evaluate(preds, truth, sample_n=200, seed=0)
    files = ["--predictions", tmp_path / "preds.csv"]
    for mode, k in (("lower_positive", []), ("top_k_lower", ["--k", 9]),
                    ("top_k_midpoint", ["--k", 9])):
        assert run("select", *files, "--mode", mode, *k, "--out", tmp_path / "s.csv") == 0
    files += ["--informer", tmp_path / "truth.csv", "--sample-n", 50, "--seed", 1]
    assert run("evaluate", *files) == 0
    assert run("report", *files, "--out", tmp_path / "r.csv") == 0
    assert built == {}
    # the counter does count: each row asked for is built once
    tables = (truth, preds, labels, drops)
    for table in tables:
        next(iter(table))
    assert built == {type(t).__name__: 1 for t in tables}
