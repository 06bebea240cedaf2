"""Bound regression: a small dense network trained with gradient descent.

Two independent models are trained, one per bound.  The network is
input -> tanh hidden -> tanh hidden -> linear output, fit by full-batch
gradient descent on mean-squared error from a seeded initialisation.  Nothing
here is stochastic beyond the named seed: identical inputs give bit-identical
weights, predictions and files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BenefitVector, value_range
from .informer import InformerTable
from .model import cell_bits, check_cell_space
from .tables import CellTable, atomic_write, read_cell_csv, write_cell_csv

__all__ = [
    "Hyperparams",
    "Model",
    "PredictionTable",
    "train",
    "predict_all",
    "evaluate",
    "evaluation_sample",
    "loss_and_gradients",
    "save_model",
    "load_model",
    "write_predictions_csv",
    "read_predictions_csv",
]

PREDICTIONS_HEADER = ["cell_id", "pred_lower", "pred_upper", "repaired"]

# The weight fields of ``Model``, in layer order.
_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")

# Cells per forward pass in ``predict_all``.
_PREDICT_BLOCK = 1 << 11


@dataclass(frozen=True)
class Hyperparams:
    hidden_width: int = 128
    epochs: int = 600
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden_width", "epochs", "seed"):
            if type(getattr(self, name)) is not int:  # refuses 2.5, true and "4"
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.hidden_width < 1 or self.epochs < 1:
            raise ValueError("hidden_width and epochs must be positive")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):  # refuses true, "0.1"
            raise ValueError(f"learning_rate must be a number, got {rate!r}")
        if not 0.0 < rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass(frozen=True, eq=False)
class Model:
    """Trained network weights plus the training-loss trajectory.

    loss_history has epochs + 1 entries: the loss before any update, then one
    entry per epoch.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    hyperparams: Hyperparams
    loss_history: tuple[float, ...]

    def __post_init__(self) -> None:
        n_in, h = self.w1.shape
        if self.w2.shape != (h, h) or self.w3.shape != (h, 1):
            raise ValueError("inconsistent layer shapes")
        if self.b1.shape != (h,) or self.b2.shape != (h,) or self.b3.shape != (1,):
            raise ValueError("inconsistent bias shapes")
        if self.hyperparams.hidden_width != h:
            raise ValueError(f"hyperparams hidden_width differs from the weights' {h}")
        for arr in self.params:
            if not np.isfinite(arr).all():
                raise ValueError("non-finite weights")

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[0]

    @property
    def params(self) -> list[np.ndarray]:
        """The weights in ``_PARAMS`` order."""
        return [getattr(self, name) for name in _PARAMS]


def _forward(
    params: Sequence[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w1, b1, w2, b2, w3, b3 = params
    # Bias and tanh in place, so a layer holds one (n, hidden) buffer, not three.
    a1 = x @ w1
    np.tanh(np.add(a1, b1, out=a1), out=a1)
    a2 = a1 @ w2
    np.tanh(np.add(a2, b2, out=a2), out=a2)
    return a1, a2, a2 @ w3 + b3


def _loss_and_grads(
    params: Sequence[np.ndarray], x: np.ndarray, t: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    w1, b1, w2, b2, w3, b3 = params
    a1, a2, out = _forward(params, x)
    resid = out - t
    loss = float(np.mean(resid**2))
    d_out = 2.0 * resid / len(x)
    g_w3 = a2.T @ d_out
    g_b3 = d_out.sum(axis=0)
    d_a2 = d_out @ w3.T
    d_z2 = d_a2 * (1.0 - a2**2)
    g_w2 = a1.T @ d_z2
    g_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ w2.T
    d_z1 = d_a1 * (1.0 - a1**2)
    g_w1 = x.T @ d_z1
    g_b1 = d_z1.sum(axis=0)
    return loss, [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]


def _init_params(n_in: int, hp: Hyperparams) -> list[np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=hp.seed))
    h = hp.hidden_width

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    return [
        glorot(n_in, h),
        np.zeros(h),
        glorot(h, h),
        np.zeros(h),
        glorot(h, 1),
        np.zeros((1,)),
    ]


def _as_features(features: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array of bit vectors")
    return x


def train(
    features: Sequence[Sequence[int]] | np.ndarray,
    targets: Sequence[float] | np.ndarray,
    hp: Hyperparams,
) -> Model:
    """Fit the network to (features, targets) by full-batch gradient descent.
    The model's loss_history has epochs + 1 entries, as ``Model`` says."""
    x = _as_features(features)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if len(x) == 0:
        raise ValueError("no training data")
    if len(x) != len(t):
        raise ValueError("features and targets differ in length")
    if not np.isfinite(t).all():
        raise ValueError("non-finite training target")

    params = _init_params(x.shape[1], hp)
    # One full pass per epoch: its loss is the history entry after that
    # epoch, and its gradients are the next step.
    loss, grads = _loss_and_grads(params, x, t)
    history = [loss]
    for _ in range(hp.epochs):
        for p, g in zip(params, grads):
            p -= hp.learning_rate * g
        loss, grads = _loss_and_grads(params, x, t)
        history.append(loss)

    return Model(*params, hp, tuple(history))


def loss_and_gradients(
    model: Model, features: Sequence[Sequence[int]] | np.ndarray, targets: Sequence[float]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared-error loss and its analytic gradients at the model's
    current weights.  Exists so the gradients can be checked against finite
    differences."""
    x = _as_features(features)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    loss, grads = _loss_and_grads(model.params, x, t)
    return loss, dict(zip(_PARAMS, grads))


def _raw_outputs(model: Model, x: np.ndarray) -> np.ndarray:
    return _forward(model.params, x)[2][:, 0]


@dataclass(frozen=True, eq=False)
class PredictionTable(CellTable):
    """Predicted bounds for a run of cells, as columns."""

    cell_id: np.ndarray
    pred_lower: np.ndarray
    pred_upper: np.ndarray
    repaired: np.ndarray

    _columns = dict(cell_id="i8", pred_lower="f8", pred_upper="f8", repaired="?")


def predict_all(
    model_lower: Model, model_upper: Model, n_observed: int, v: BenefitVector
) -> PredictionTable:
    """Clamped predictions for every cell id, in order; crossed pairs are
    repaired to their midpoint."""
    if model_lower.n_inputs != n_observed or model_upper.n_inputs != n_observed:
        raise ValueError("model input width does not match n_observed")
    ids = np.arange(check_cell_space(n_observed))
    raw = np.empty((2, len(ids)))
    # In blocks of cells, so the hidden activations stay small.
    for start in range(0, len(ids), _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        bits = cell_bits(ids[block], n_observed).astype(np.float64)
        raw[0, block] = _raw_outputs(model_lower, bits)
        raw[1, block] = _raw_outputs(model_upper, bits)
    lower, upper = np.clip(raw, *value_range(v))
    crossed = lower > upper
    mid = 0.5 * (lower + upper)
    return PredictionTable(
        ids, np.where(crossed, mid, lower), np.where(crossed, mid, upper), crossed
    )


def sample_cell_ids(n_cells: int, sample_n: int, seed: int) -> np.ndarray:
    """The seeded evaluation sample: sample_n distinct cell ids."""
    if not 1 <= sample_n <= n_cells:
        raise ValueError(f"cannot sample {sample_n} of {n_cells} cells")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.sort(rng.choice(n_cells, size=sample_n, replace=False))


REPORT_HEADER = ["cell_id", "true_lower", "pred_lower", "true_upper", "pred_upper"]


def evaluation_sample(
    preds: PredictionTable, truth: InformerTable, sample_n: int, seed: int
) -> tuple[np.ndarray, ...]:
    """The ``REPORT_HEADER`` columns of a seeded sample of rows, which are the
    cell ids of a full table.  Both tables must hold the same cell ids."""
    if not np.array_equal(preds.cell_id, truth.cell_id):
        raise ValueError("prediction and truth tables cover different cell spaces")
    rows = sample_cell_ids(len(preds), sample_n, seed)
    return (
        preds.cell_id[rows],
        truth.true_lower[rows],
        preds.pred_lower[rows],
        truth.true_upper[rows],
        preds.pred_upper[rows],
    )


def evaluate(
    preds: PredictionTable, truth: InformerTable, sample_n: int = 200, seed: int = 0
) -> dict[str, float | int]:
    """Mean absolute error of each bound over ``evaluation_sample``."""
    _, true_lower, pred_lower, true_upper, pred_upper = evaluation_sample(
        preds, truth, sample_n, seed
    )
    return {
        "mae_lower": float(np.mean(np.abs(pred_lower - true_lower))),
        "mae_upper": float(np.mean(np.abs(pred_upper - true_upper))),
        "n": int(sample_n),
        "seed": int(seed),
    }


def save_model(model: Model, path: str | Path) -> None:
    hp = model.hyperparams
    doc = {
        "arch": {"n_inputs": model.n_inputs, "hidden_width": hp.hidden_width},
        "hyperparams": asdict(hp),
        "weights": {name: p.ravel().tolist() for name, p in zip(_PARAMS, model.params)},
        "loss_history": list(model.loss_history),
    }
    with atomic_write(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> Model:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    try:
        n_in = doc["arch"]["n_inputs"]
        h = doc["arch"]["hidden_width"]
        shapes = [(n_in, h), (h,), (h, h), (h,), (h, 1), (1,)]
        params = [np.reshape(doc["weights"][n], s) for n, s in zip(_PARAMS, shapes)]
        # Files written while a minibatch trainer existed record its batch size.
        doc["hyperparams"].pop("batch_size", None)
        hp = Hyperparams(**doc["hyperparams"])
        return Model(*params, hp, tuple(doc["loss_history"]))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None


def write_predictions_csv(table: PredictionTable, path: str | Path) -> None:
    write_cell_csv(path, PREDICTIONS_HEADER, [getattr(table, n) for n in table._columns])


def read_predictions_csv(path: str | Path) -> PredictionTable:
    """Load written predictions, with ``read_cell_csv``'s checks; the
    repaired flag must be 0 or 1."""
    ids, vals = read_cell_csv(path, PREDICTIONS_HEADER)
    lower, upper, repaired = vals.T
    if not ((repaired == 0) | (repaired == 1)).all():
        raise ValueError(f"{path}: repaired must be 0 or 1")
    return PredictionTable(ids, lower, upper, repaired == 1)
