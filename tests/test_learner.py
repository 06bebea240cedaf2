"""Training, prediction, and evaluation behavior of the bound regressor."""

import contextlib
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from oracles import reference_forward, reference_init, reference_train

from unitselect import learner
from unitselect.bounds import DEFAULT_BENEFIT_VECTOR, BenefitVector, value_range
from unitselect.cli import main
from unitselect.informer import informer_table
from unitselect.learner import (
    Hyperparams,
    Model,
    PredictionTable,
    evaluate,
    load_model,
    predict_all,
    read_predictions_csv,
    sample_cell_ids,
    save_model,
    train,
    write_predictions_csv,
)
from unitselect.model import cell_bits, random_stream


def _all_bits(n):
    return [[(i >> b) & 1 for b in range(n)] for i in range(1 << n)]


def _const_model(n_in, bias, hidden=2):
    # zero weights make the output equal the final bias
    return Model(
        w1=np.zeros((n_in, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, hidden)),
        b2=np.zeros(hidden),
        w3=np.zeros((hidden, 1)),
        b3=np.array([float(bias)]),
        hyperparams=Hyperparams(hidden_width=hidden, epochs=1),
        loss_history=(0.0, 0.0),
    )


def test_hyperparams_defaults_and_validation():
    hp = Hyperparams()
    assert (hp.hidden_width, hp.epochs, hp.learning_rate) == (128, 600, 0.01)
    assert hp.seed == 0
    with pytest.raises(ValueError):
        Hyperparams(hidden_width=0)
    with pytest.raises(ValueError):
        Hyperparams(epochs=0)
    with pytest.raises(ValueError):
        Hyperparams(learning_rate=0.0)
    for value in (True, False, "0.1", None, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate must be"):
            Hyperparams(learning_rate=value)
    assert Hyperparams(learning_rate=1).learning_rate == 1
    for field in ("hidden_width", "epochs", "seed"):
        for value in (2.5, 4.0, True, "4"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                Hyperparams(**{field: value})


def test_model_shape_validation():
    with pytest.raises(ValueError):
        Model(
            w1=np.zeros((4, 3)),
            b1=np.zeros(3),
            w2=np.zeros((2, 2)),  # width clash
            b2=np.zeros(3),
            w3=np.zeros((3, 1)),
            b3=np.zeros(1),
            hyperparams=Hyperparams(hidden_width=3),
            loss_history=(),
        )
    m = _const_model(4, 0.0)
    with pytest.raises(ValueError):
        Model(
            w1=m.w1,
            b1=m.b1,
            w2=np.full((2, 2), np.nan),
            b2=m.b2,
            w3=m.w3,
            b3=m.b3,
            hyperparams=m.hyperparams,
            loss_history=(),
        )
    with pytest.raises(ValueError, match="hidden_width differs"):
        dataclasses.replace(m, hyperparams=Hyperparams(hidden_width=3, epochs=1))
    # loss_history holds the loss before training and one per epoch
    for history in ((), (0.0,), (0.0,) * 3):
        with pytest.raises(ValueError, match="^loss_history has"):
            dataclasses.replace(m, loss_history=history)
    # a network of no inputs, whether built or trained
    with pytest.raises(ValueError, match="^a model needs at least one input$"):
        dataclasses.replace(m, w1=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^a model needs at least one input$"):
        train(np.zeros((3, 0)), [0.1, 0.2, 0.3], Hyperparams(hidden_width=2, epochs=1))


def test_forward_matches_the_out_of_place_layers():
    rng = np.random.default_rng(4)
    params = [rng.normal(size=shape) for shape in [(5, 7), (7,), (7, 7), (7,), (7, 1), (1,)]]
    buf = learner._Buffers(11, params, backward=False)
    for n in (11, 6):  # a whole buffer, then a short last block in its leading rows
        x = rng.random((n, 5))
        for got, want in zip(learner._forward(params, x, buf), reference_forward(params, x)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(12, 3)).astype(float)
    t = rng.uniform(-1, 1, size=12)
    model = train(x, t, Hyperparams(hidden_width=4, epochs=1, seed=3))
    params, t = model.params, t.reshape(-1, 1)
    buf = learner._Buffers(len(x), params, backward=True)
    learner._loss_and_grads(params, x, t, buf)
    grads = [g.copy() for g in buf.grads]  # later calls overwrite buf.grads
    h = 1e-5
    worst = 0.0
    for arr, g in zip(params, grads):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = learner._loss_and_grads(params, x, t, buf)
            arr[idx] = orig - h
            down = learner._loss_and_grads(params, x, t, buf)
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / scale)
    assert worst <= 1e-4


def test_fits_constant_target():
    # default hyperparameters plateau around 0.025 on this check; the longer,
    # hotter schedule reaches the 0.01 contract
    feats = _all_bits(4)
    targets = [0.3] * 16
    hp = Hyperparams(hidden_width=128, epochs=2000, learning_rate=0.1, seed=1)
    model = train(feats, targets, hp)
    preds = predict_all(model, model, 4, DEFAULT_BENEFIT_VECTOR)
    devs = np.abs(preds.pred_lower - 0.3)  # feats are the cells in id order
    assert max(devs) <= 0.01


def test_fits_single_bit_signal():
    # 100 cells whose target is fully determined by one bit
    feats = [[(i >> b) & 1 for b in range(7)] for i in range(100)]
    targets = [1.0 if f[0] else 0.0 for f in feats]
    model = train(feats, targets, Hyperparams(seed=2))
    preds = predict_all(model, model, 7, DEFAULT_BENEFIT_VECTOR)
    errs = np.abs(preds.pred_lower[:100] - targets)  # feats are cells 0..99
    assert np.mean(errs) <= 0.05


def test_training_is_deterministic():
    feats = _all_bits(5)
    rng = np.random.default_rng(7)
    targets = rng.uniform(-0.5, 0.5, size=32)
    hp = Hyperparams(hidden_width=16, epochs=40, seed=9)
    a = train(feats, targets, hp)
    b = train(feats, targets, hp)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.loss_history == b.loss_history


def test_loss_history_shape_and_descent():
    feats = _all_bits(4)
    targets = [0.1 * sum(f) for f in feats]
    hp = Hyperparams(hidden_width=16, epochs=30, seed=4)
    model = train(feats, targets, hp)
    assert len(model.loss_history) == hp.epochs + 1
    assert model.loss_history[-1] <= model.loss_history[1]
    assert all(math.isfinite(v) for v in model.loss_history)


def _two_pass_train(features, targets, hp):
    # Reference trainer: each epoch steps, then makes a separate full pass
    # only to log the loss.  train must match it bit for bit.
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    params = learner._init_params(x.shape[1], hp)
    buf = learner._Buffers(len(x), params, backward=True)
    history = [learner._loss_and_grads(params, x, t, buf)]
    for _ in range(hp.epochs):
        learner._loss_and_grads(params, x, t, buf)
        for p, g in zip(params, buf.grads):
            p -= hp.learning_rate * g
        history.append(learner._loss_and_grads(params, x, t, buf))
    return params, tuple(history)


@pytest.mark.parametrize("seed", [3, 11])
def test_train_matches_two_pass_reference(seed):
    feats = _all_bits(5)
    targets = np.random.default_rng(seed).uniform(-0.5, 0.5, size=32)
    hp = Hyperparams(hidden_width=16, epochs=30, seed=seed)
    model = train(feats, targets, hp)
    params, history = _two_pass_train(feats, targets, hp)
    for name, ref in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params):
        assert getattr(model, name).tobytes() == ref.tobytes(), name
    assert model.loss_history == history
    assert len(history) == hp.epochs + 1


@pytest.mark.parametrize(
    "n_cells, n_bits, hidden, epochs",
    [(514, 15, 128, 4), (5, 3, 4, 6)],  # BLAS's blocked path, and a tiny shape
    ids=["514x15-h128", "5x3-h4"],
)
def test_train_matches_the_out_of_place_reference(n_cells, n_bits, hidden, epochs):
    rng = np.random.default_rng(n_cells)
    x = rng.integers(0, 2, size=(n_cells, n_bits)).astype(np.float64)
    t = rng.uniform(-1.5, 1.0, size=n_cells)
    hp = Hyperparams(hidden_width=hidden, epochs=epochs, learning_rate=0.05, seed=5)
    model = train(x, t, hp)
    params = learner._init_params(n_bits, hp)
    history = reference_train(params, x, t.reshape(-1, 1), epochs, hp.learning_rate)
    for name, ref in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params):
        assert getattr(model, name).tobytes() == ref.tobytes(), name
    assert model.loss_history == history
    assert history[-1] != history[0]


def test_initial_weights_are_a_glorot_draw_from_the_seed():
    # (3, 5), (5, 5) and (5, 1) weights: a draw of any other shape, or
    # within any other limit, gives other bits
    hp = Hyperparams(hidden_width=5, epochs=1, seed=9)
    got = learner._init_params(3, hp)
    want = reference_init(random_stream(9), 3, 5)
    for name, param, ref in zip(("w1", "b1", "w2", "b2", "w3", "b3"), got, want):
        assert param.shape == ref.shape and param.tobytes() == ref.tobytes(), name


def test_full_batch_train_makes_one_pass_per_epoch(monkeypatch):
    calls = []
    real = learner._loss_and_grads

    def counting(params, x, t, buf):
        calls.append(len(x))
        return real(params, x, t, buf)

    monkeypatch.setattr(learner, "_loss_and_grads", counting)
    feats = _all_bits(4)
    targets = [0.1 * sum(f) for f in feats]
    train(feats, targets, Hyperparams(hidden_width=8, epochs=12))
    assert calls == [16] * 13


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], [], Hyperparams())
    with pytest.raises(ValueError):
        train([[0, 1]], [0.1, 0.2], Hyperparams())
    with pytest.raises(ValueError):
        train([[0, 1]], [float("nan")], Hyperparams())
    with pytest.raises(ValueError):
        train([0, 1], [0.0, 0.0], Hyperparams())


def test_predict_clamps_to_value_range():
    v = DEFAULT_BENEFIT_VECTOR
    lo, hi = value_range(v)
    assert (lo, hi) == (-2.0, 1.0)
    for bias, expected in ((1.7, hi), (-3.5, lo), (0.25, 0.25)):
        model = _const_model(4, bias)
        rows = predict_all(model, model, 4, v)
        assert (rows.pred_lower == expected).all() and (rows.pred_upper == expected).all()
    with pytest.raises(ValueError):
        predict_all(_const_model(6, 0.0), _const_model(6, 0.0), 4, v)
    # a tie keeps the prediction, as min(max(0.0, lo), hi) and the labels'
    # clamp keep it: here the upper end is -0.0 and the prediction +0.0
    v = BenefitVector(-0.0, -1.0, 0.0, -1.0)
    assert value_range(v) == (-1.0, 0.0) and np.signbit(value_range(v)[1])
    model = _const_model(4, +0.0)
    table = predict_all(model, model, 4, v)
    for col in (table.pred_lower, table.pred_upper):
        assert (col == 0.0).all() and not np.signbit(col).any()
    assert not table.repaired.any()


def test_predict_all_covers_and_repairs():
    v = DEFAULT_BENEFIT_VECTOR
    rows = predict_all(_const_model(3, -0.4), _const_model(3, 0.1), 3, v)
    assert [r.cell_id for r in rows] == list(range(8))
    assert all(not r.repaired for r in rows)
    assert all((r.pred_lower, r.pred_upper) == (-0.4, 0.1) for r in rows)
    # a lower model above the upper model crosses everywhere; both collapse
    # to the midpoint
    rows = predict_all(_const_model(3, 0.4), _const_model(3, 0.1), 3, v)
    assert all(r.repaired for r in rows)
    assert all((r.pred_lower, r.pred_upper) == (0.25, 0.25) for r in rows)
    with pytest.raises(ValueError):
        predict_all(_const_model(3, 0.0), _const_model(4, 0.0), 4, v)


def _random_model(n_in, hidden, seed):
    rng = np.random.default_rng(seed)
    shapes = [(n_in, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, 1), (1,)]
    params = [rng.normal(scale=0.5, size=shape) for shape in shapes]
    hp = Hyperparams(hidden_width=hidden, epochs=1)
    return Model(*params, hyperparams=hp, loss_history=(0.0, 0.0))


def test_predict_all_in_blocks_matches_one_batch():
    n = 13  # 8,192 cells: several blocks
    assert 1 << n > 2 * learner._PREDICT_BLOCK
    v = DEFAULT_BENEFIT_VECTOR
    model_lower, model_upper = _random_model(n, 32, 1), _random_model(n, 32, 2)
    table = predict_all(model_lower, model_upper, n, v)
    bits = cell_bits(np.arange(1 << n), n).astype(np.float64)
    lower = np.clip(reference_forward(model_lower.params, bits)[2][:, 0], *value_range(v))
    upper = np.clip(reference_forward(model_upper.params, bits)[2][:, 0], *value_range(v))
    crossed = lower > upper
    mid = 0.5 * (lower + upper)
    assert 0 < crossed.sum() < len(crossed)
    assert np.array_equal(table.cell_id, np.arange(1 << n))
    assert np.array_equal(table.pred_lower, np.where(crossed, mid, lower))
    assert np.array_equal(table.pred_upper, np.where(crossed, mid, upper))
    assert np.array_equal(table.repaired, crossed)


def test_predict_all_memory_follows_the_block_not_the_cell_space():
    # One batch over 65,536 cells holds (65,536 x 128) float64 activations,
    # 67 MB per layer.
    model_lower, model_upper = _random_model(16, 128, 1), _random_model(16, 128, 2)
    tracemalloc.start()
    try:
        predict_all(model_lower, model_upper, 16, DEFAULT_BENEFIT_VECTOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_sample_cell_ids():
    ids = sample_cell_ids(300, 200, seed=0)
    assert len(ids) == 200
    assert len(set(ids.tolist())) == 200
    assert list(ids) == sorted(ids)
    assert ids.min() >= 0 and ids.max() < 300
    assert np.array_equal(ids, sample_cell_ids(300, 200, seed=0))
    assert not np.array_equal(ids, sample_cell_ids(300, 200, seed=1))
    with pytest.raises(ValueError):
        sample_cell_ids(100, 101, seed=0)
    # True would sample one cell; 2.5 and "3" would fail in the draw with a
    # bare TypeError
    for sample_n in (2.5, True, "3"):
        message = f"sample_n must be an integer, got {sample_n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_cell_ids(16, sample_n, 0)
    with pytest.raises(ValueError, match="^sample_n must be at least 1, got 0$"):
        sample_cell_ids(16, 0, 0)


def test_evaluate_against_truth(desk4):
    v = DEFAULT_BENEFIT_VECTOR
    truth = informer_table(desk4, v)
    no_repairs = np.zeros(len(truth), bool)
    exact = PredictionTable(truth.cell_id, truth.true_lower, truth.true_upper, no_repairs)
    metrics = evaluate(exact, truth, sample_n=16, seed=0)
    assert metrics == {"mae_lower": 0.0, "mae_upper": 0.0, "n": 16, "seed": 0}
    shifted = PredictionTable(
        truth.cell_id, truth.true_lower + 0.1, truth.true_upper, no_repairs
    )
    metrics = evaluate(shifted, truth, sample_n=16, seed=0)
    assert abs(metrics["mae_lower"] - 0.1) < 1e-12
    assert metrics["mae_upper"] == 0.0
    with pytest.raises(ValueError):
        evaluate(exact, truth, sample_n=17, seed=0)
    with pytest.raises(ValueError):
        evaluate(exact[:-1], truth, sample_n=4, seed=0)


def test_evaluate_is_the_mean_error_not_the_median(desk4):
    # every cell is sampled; one cell's lower bound is off by 1.6 and
    # another's upper bound by 0.8, so the mean errors are 0.1 and 0.05
    # while the median errors are 0
    truth = informer_table(desk4, DEFAULT_BENEFIT_VECTOR)
    lower, upper = truth.true_lower.copy(), truth.true_upper.copy()
    lower[3] -= 1.6
    upper[11] += 0.8
    preds = PredictionTable(truth.cell_id, lower, upper, np.zeros(len(truth), bool))
    metrics = evaluate(preds, truth, sample_n=16, seed=0)
    assert metrics["mae_lower"] == pytest.approx(0.1, abs=1e-15)
    assert metrics["mae_upper"] == pytest.approx(0.05, abs=1e-15)


def test_model_save_load_roundtrip(tmp_path):
    feats = _all_bits(4)
    targets = [0.3 * f[2] - 0.1 for f in feats]
    model = train(feats, targets, Hyperparams(hidden_width=8, epochs=20, seed=6))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hyperparams == model.hyperparams
    assert loaded.loss_history == model.loss_history
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    v = DEFAULT_BENEFIT_VECTOR
    assert predict_all(loaded, loaded, 4, v) == predict_all(model, model, 4, v)


@pytest.mark.parametrize("batch_size", [None, 4])
def test_model_file_with_a_recorded_batch_size_is_refused(tmp_path, capsys, batch_size):
    # Files written while a minibatch trainer existed record a batch size,
    # a hyperparameter no trainer reads any more.
    feats = _all_bits(4)
    targets = [0.3 * f[2] - 0.1 for f in feats]
    model = train(feats, targets, Hyperparams(hidden_width=8, epochs=20, seed=6))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert "batch_size" not in doc["hyperparams"]
    doc["hyperparams"]["batch_size"] = batch_size
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    with pytest.raises(ValueError, match="^malformed model file .*'batch_size'"):
        load_model(path)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-lower", str(path), "--model-upper", str(path),
                 "--out", str(out)]) == 2
    assert f"malformed model file {path}" in capsys.readouterr().err
    assert not out.exists()


def test_failed_save_model_leaves_the_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text("old model\n")

    real_atomic_write = learner.atomic_write

    class HalfWritten:
        # the handle's write, which takes the document's first bytes and fails
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:9])
            raise OSError("disk full")

    @contextlib.contextmanager
    def fail_midway(*args, **kwargs):
        with real_atomic_write(*args, **kwargs) as fh:
            yield HalfWritten(fh)

    monkeypatch.setattr(learner, "atomic_write", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_model(_const_model(4, 0.0), path)
    assert path.read_text() == "old model\n"
    assert list(tmp_path.iterdir()) == [path]


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    for content in (b"{}", b"not json", b'{"arch": "\xff"}'):
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"malformed model file {re.escape(str(path))}"):
            load_model(path)


def test_load_model_refuses_a_seed_outside_the_key_range(tmp_path):
    path = tmp_path / "model.json"
    save_model(_const_model(4, 0.0), path)
    doc = json.loads(path.read_text())
    doc["hyperparams"]["seed"] = 2**64
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    message = f"malformed model file {path}: seed must lie in [0, 2**64), got {2**64}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)


def test_predictions_csv_roundtrip(tmp_path):
    rows = PredictionTable(
        cell_id=[0, 1], pred_lower=[-0.25, 0.125], pred_upper=[0.5, 0.125],
        repaired=[False, True],
    )
    path = tmp_path / "preds.csv"
    write_predictions_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_id,pred_lower,pred_upper,repaired"
    assert read_predictions_csv(path) == rows
    bad = tmp_path / "bad.csv"
    bad.write_text("cell,low,high\n")
    with pytest.raises(ValueError):
        read_predictions_csv(bad)


def test_predictions_csv_keeps_wide_cell_ids(tmp_path):
    ids = [2**53 - 1, 2**53 + 1, 2**60 + 3]
    rows = PredictionTable(ids, [0.0] * 3, [0.5] * 3, [False, True, False])
    path = tmp_path / "preds.csv"
    write_predictions_csv(rows, path)
    assert [int(r.split(",")[0]) for r in path.read_text().splitlines()[1:]] == ids
    assert read_predictions_csv(path) == rows


def test_prediction_table_is_columns():
    table = predict_all(_const_model(3, 0.4), _const_model(3, 0.1), 3, DEFAULT_BENEFIT_VECTOR)
    assert isinstance(table, PredictionTable) and len(table) == 8
    assert table == PredictionTable(range(8), [0.25] * 8, [0.25] * 8, [True] * 8)
    picked = table[1:7:2]
    assert isinstance(picked, PredictionTable) and picked.cell_id.tolist() == [1, 3, 5]
    assert table[np.array([0, 6])] == PredictionTable([0, 6], [0.25] * 2, [0.25] * 2, [True] * 2)
    with pytest.raises(TypeError):
        table[5]
    with pytest.raises(ValueError):
        table.pred_lower[0] = 0.0
    assert table == table[:]
    assert table != table[:-1]


@pytest.mark.parametrize(
    "row",
    [
        "1,0.125",  # short
        "1,0.125,0.125,1,0",  # long
        "1,nan,0.125,1",
        "1,0.125,-inf,1",
        "1,0.125,0.125,2",  # repaired is not a flag
        "0,0.125,0.125,1",  # id 0 twice
        "-1,0.125,0.125,1",
        "1.5,0.125,0.125,1",
    ],
)
def test_read_predictions_csv_refuses_bad_rows(tmp_path, row):
    path = tmp_path / "preds.csv"
    path.write_text(f"cell_id,pred_lower,pred_upper,repaired\n0,-0.25,0.5,0\n{row}\n")
    with pytest.raises(ValueError):
        read_predictions_csv(path)


def test_evaluate_refuses_another_cell_space(desk4):
    truth = informer_table(desk4, DEFAULT_BENEFIT_VECTOR)
    preds = predict_all(_const_model(4, 0.0), _const_model(4, 0.0), 4, DEFAULT_BENEFIT_VECTOR)
    assert evaluate(preds, truth, sample_n=16)["n"] == 16
    moved = PredictionTable(
        preds.cell_id + 1, preds.pred_lower, preds.pred_upper, preds.repaired
    )
    with pytest.raises(ValueError, match="cover different cell spaces"):
        evaluate(moved, truth, sample_n=4)
    with pytest.raises(ValueError, match="cover different cell spaces"):
        learner.evaluation_sample(preds, truth[:-1], 4, 0)
