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
from unitselect import datagen
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
from unitselect.model import random_config


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


@pytest.mark.parametrize("kind, suffix", list(PINNED_SIMULATE))
def test_simulate_bytes_are_pinned(ws, tmp_path, kind, suffix):
    # past one shard, so the second shard's stream and a chunk tail are in it
    out = tmp_path / f"d{suffix}"
    seed = 41 if kind == "experimental" else 42
    assert run("simulate", "--config", ws["config"], "--kind", kind,
               "--n", datagen.SHARD_SIZE + 1234, "--seed", seed, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SIMULATE[kind, suffix]


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
    "edit", [{"hidden_width": 3}, {"epochs": True, "hidden_width": 2.5}, {"learning_rate": True}]
)
def test_predict_refuses_a_model_file_that_contradicts_itself(ws, tmp_path, capsys, edit):
    doc = json.loads((ws["models"] / "model_lower.json").read_text())
    doc["hyperparams"].update(edit)  # the weights are 8 wide
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
    for mode in ("top_k_lower", "top_k_midpoint"):
        for k in (["--k", 0], []):
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
    assert "bern_ux must hold numbers, got True" in capsys.readouterr().err
    # float() would load these strings as 0.5 and 1.0
    bern_ux = dict(dataclasses.asdict(desk4), bern_ux="0.5")
    bad.write_text(json.dumps(bern_ux))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "bern_ux must hold numbers, got '0.5'" in capsys.readouterr().err
    weights = dict(dataclasses.asdict(desk4))
    weights["weights_x"] = ["1e0", *weights["weights_x"][1:]]
    bad.write_text(json.dumps(weights))
    assert run("informer", "--config", bad, "--out", tmp_path / "x.csv") == 2
    assert "weights_x must hold numbers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_label_refuses_a_cell_space_past_the_guard_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    config = tmp_path / "wide.json"
    random_config(25, 0, seed=1).dump(config)
    for kind, seed in (("experimental", 1), ("observational", 2)):
        assert run("simulate", "--config", config, "--kind", kind, "--n", 100,
                   "--seed", seed, "--out", tmp_path / f"{kind}.bin") == 0
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
# default width on the ~36 training cells, as the CLI chain does; prints one
# digest of every array made on the way.
_CHAIN_DIGEST = """
import hashlib
from unitselect import DEFAULT_BENEFIT_VECTOR, cells, datagen, learner, random_config
from unitselect.model import cell_bits

config = random_config(8, 3, seed=8)
digest = hashlib.sha256()
maps = {}
for regime, seed in (("experimental", 1), ("observational", 2)):
    maps[regime] = {}
    for block in datagen.iter_blocks(config, regime, 60_000, seed):
        digest.update(block.tobytes())
        cells.aggregate(block, regime, into=maps[regime])
labels, _ = cells.build_labels(*maps.values(), DEFAULT_BENEFIT_VECTOR, threshold=200)
train_set, _ = cells.split(labels, cells.SplitSpec(seed=7))
features = cell_bits(train_set.cell_id, 8)
for targets in (train_set.lower_label, train_set.upper_label):
    model = learner.train(features, targets, learner.Hyperparams(seed=3))
    for array in (targets, *model.params):
        digest.update(array.tobytes())
print(len(train_set), digest.hexdigest())
"""


def test_cli_chain_bits_do_not_depend_on_the_blas_thread_count():
    # The contract README states: datasets, labels and models at CLI-chain
    # size are the same at any BLAS thread count.  (At appendix scale the
    # training bits hold only at one thread; that is not asserted here.)
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
    table and construct no key object."""
    from unitselect import cells, informer, learner
    from unitselect.datagen import iter_blocks
    from unitselect.model import CellKey
    from unitselect.tables import CellTable

    (exp_rows,) = iter_blocks(desk8, "experimental", 60_000, 5)
    (obs_rows,) = iter_blocks(desk8, "observational", 60_000, 6)
    built = {}

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(CellKey)
    iterate = CellTable.__iter__

    def counting_rows(table):
        for row in iterate(table):
            built[type(table).__name__] = built.get(type(table).__name__, 0) + 1
            yield row

    monkeypatch.setattr(CellTable, "__iter__", counting_rows)

    v = unitselect.DEFAULT_BENEFIT_VECTOR
    exp_map = cells.aggregate(exp_rows, "experimental")
    obs_map = cells.aggregate(obs_rows, "observational")
    labels, drops = cells.build_labels(exp_map, obs_map, v, threshold=200)
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
    for mode in ("lower_positive", "top_k_lower", "top_k_midpoint"):
        assert run("select", *files, "--mode", mode, "--k", 9, "--out", tmp_path / "s.csv") == 0
    files += ["--informer", tmp_path / "truth.csv", "--sample-n", 50, "--seed", 1]
    assert run("evaluate", *files) == 0
    assert run("report", *files, "--out", tmp_path / "r.csv") == 0
    assert built == {}
    # the counters do count: each row asked for is built once, with a key in
    # the three tables that have a width
    tables = (truth, preds, labels, drops)
    for table in tables:
        next(iter(table))
    assert built == {type(t).__name__: 1 for t in tables} | {"CellKey": 3}
