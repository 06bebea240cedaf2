"""Bound regression: a small dense network trained with gradient descent.

Two independent models are trained, one per bound.  The network is
input -> tanh hidden -> tanh hidden -> linear output, fit by full-batch
gradient descent on mean-squared error from a seeded initialisation.  Nothing
here is stochastic beyond the named seed: identical inputs give bit-identical
weights, predictions and files.

The passes write into buffers allocated once per ``train`` call and once per
``predict_all`` call: every epoch, and every block of cells, reuses one set of
them, so no pass allocates an (n, hidden) array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import BenefitVector, clamp_to_range
from .informer import InformerTable
from .model import cell_bits, check_cell_space, check_integer, check_number, check_seed
from .model import random_stream
from .tables import CellTable, atomic_write, read_cell_csv, write_cell_csv

__all__ = [
    "Hyperparams",
    "Model",
    "PredictionTable",
    "train",
    "predict_all",
    "evaluate",
    "evaluation_sample",
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

DEFAULT_SAMPLE_N = 200  # cells in the seeded evaluation sample, as in the paper


@dataclass(frozen=True)
class Hyperparams:
    hidden_width: int = 128
    epochs: int = 600
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer(self.hidden_width, "hidden_width", 1)
        check_integer(self.epochs, "epochs", 1)
        check_seed(self.seed)
        if check_number(self.learning_rate, "learning_rate") <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


@dataclass(frozen=True, eq=False)
class Model:
    """Trained network weights plus the training-loss trajectory.

    The network has at least one input, and loss_history has epochs + 1
    entries: the loss before any update, then one entry per epoch.
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
        if n_in < 1:
            raise ValueError("a model needs at least one input")
        if self.hyperparams.hidden_width != h:
            raise ValueError(f"hyperparams hidden_width differs from the weights' {h}")
        if len(self.loss_history) != self.hyperparams.epochs + 1:
            raise ValueError(f"loss_history has {len(self.loss_history)} entries, not epochs + 1")
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


class _Buffers:
    """Every array a pass over up to ``rows`` inputs writes, for a network
    shaped like ``params``: the hidden activations ``a1`` and ``a2`` and the
    output ``out``; with ``backward``, also the ``(rows, hidden)`` delta
    ``d``, the squared residuals ``sq`` and one gradient per weight."""

    def __init__(self, rows: int, params: Sequence[np.ndarray], backward: bool) -> None:
        h = params[0].shape[1]
        self.a1, self.a2 = np.empty((rows, h)), np.empty((rows, h))
        self.out = np.empty((rows, 1))
        if backward:
            self.d, self.sq = np.empty((rows, h)), np.empty((rows, 1))
            self.grads = [np.empty_like(p) for p in params]


def _forward(
    params: Sequence[np.ndarray], x: np.ndarray, buf: _Buffers
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The activations of both hidden layers and the output for x, written
    into the first len(x) rows of buf's ``a1``, ``a2`` and ``out``."""
    w1, b1, w2, b2, w3, b3 = params
    a1, a2, out = buf.a1[: len(x)], buf.a2[: len(x)], buf.out[: len(x)]
    np.tanh(np.add(np.matmul(x, w1, out=a1), b1, out=a1), out=a1)
    np.tanh(np.add(np.matmul(a1, w2, out=a2), b2, out=a2), out=a2)
    np.add(np.matmul(a2, w3, out=out), b3, out=out)
    return a1, a2, out


def _loss_and_grads(
    params: Sequence[np.ndarray], x: np.ndarray, t: np.ndarray, buf: _Buffers
) -> float:
    """The mean-squared-error loss at params, with its gradients written
    into ``buf.grads``; buf must hold exactly len(x) rows.  Each step is an
    out-of-place formula of the reference trainer in ``tests/oracles.py``,
    done in place in the same order, so every bit is the same.  The
    activations are overwritten once the backward pass is done with them."""
    w1, b1, w2, b2, w3, b3 = params
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = buf.grads
    a1, a2, resid = _forward(params, x, buf)
    resid -= t
    loss = float(np.mean(np.square(resid, out=buf.sq)))
    d_out = np.divide(np.multiply(2.0, resid, out=resid), len(x), out=resid)
    np.matmul(a2.T, d_out, out=g_w3)
    np.sum(d_out, axis=0, out=g_b3)
    # d_out @ w3.T is an outer product: one rounded multiply per entry.
    d_z2 = np.multiply(d_out, w3.T, out=buf.d)
    d_z2 *= np.subtract(1.0, np.square(a2, out=a2), out=a2)
    np.matmul(a1.T, d_z2, out=g_w2)
    np.sum(d_z2, axis=0, out=g_b2)
    d_z1 = np.matmul(d_z2, w2.T, out=a2)
    d_z1 *= np.subtract(1.0, np.square(a1, out=a1), out=a1)
    np.matmul(x.T, d_z1, out=g_w1)
    np.sum(d_z1, axis=0, out=g_b1)
    return loss


def _init_params(n_in: int, hp: Hyperparams) -> list[np.ndarray]:
    rng = random_stream(hp.seed)
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


def train(
    features: Sequence[Sequence[int]] | np.ndarray,
    targets: Sequence[float] | np.ndarray,
    hp: Hyperparams,
) -> Model:
    """Fit the network to (features, targets) by full-batch gradient descent.
    The model's loss_history has epochs + 1 entries, as ``Model`` says."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array of bit vectors")
    if len(x) == 0:
        raise ValueError("no training data")
    if len(x) != len(t):
        raise ValueError("features and targets differ in length")
    if not np.isfinite(t).all():
        raise ValueError("non-finite training target")

    params = _init_params(x.shape[1], hp)
    buf = _Buffers(len(x), params, backward=True)
    # One full pass per epoch: its loss is the history entry after that
    # epoch, and its gradients are the next step.
    history = [_loss_and_grads(params, x, t, buf)]
    for _ in range(hp.epochs):
        for p, g in zip(params, buf.grads):
            p -= np.multiply(hp.learning_rate, g, out=g)
        history.append(_loss_and_grads(params, x, t, buf))

    return Model(*params, hp, tuple(history))


def _raw_outputs(models: Sequence[Model], ids: np.ndarray, n_observed: int) -> np.ndarray:
    """Each model's output for each cell id, one row per model, in blocks of
    cells through one set of forward buffers per hidden width, so the
    hidden activations stay small; the buffers are freed on return."""
    raw = np.empty((len(models), len(ids)))
    rows = min(len(ids), _PREDICT_BLOCK)
    bufs = {}
    for m in models:
        if m.w1.shape[1] not in bufs:
            bufs[m.w1.shape[1]] = _Buffers(rows, m.params, backward=False)
    for start in range(0, len(ids), _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        bits = cell_bits(ids[block], n_observed).astype(np.float64)
        for row, m in zip(raw, models):
            row[block] = _forward(m.params, bits, bufs[m.w1.shape[1]])[2][:, 0]
    return raw


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
    raw = _raw_outputs((model_lower, model_upper), ids, n_observed)
    lower, upper = clamp_to_range(raw, v)
    crossed = lower > upper
    mid = 0.5 * (lower + upper)
    return PredictionTable(
        ids, np.where(crossed, mid, lower), np.where(crossed, mid, upper), crossed
    )


def sample_cell_ids(n_cells: int, sample_n: int, seed: int) -> np.ndarray:
    """The seeded evaluation sample: sample_n distinct cell ids."""
    if check_integer(sample_n, "sample_n", 1) > n_cells:
        raise ValueError(f"cannot sample {sample_n} of {n_cells} cells")
    rng = random_stream(seed)
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
    preds: PredictionTable, truth: InformerTable, sample_n: int = DEFAULT_SAMPLE_N, seed: int = 0
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
    # dumps runs the C encoder; dump to a file runs the pure-Python one.
    with atomic_write(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path: str | Path) -> Model:
    """A saved model; any other file raises ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        n_in = doc["arch"]["n_inputs"]
        h = doc["arch"]["hidden_width"]
        shapes = [(n_in, h), (h,), (h, h), (h,), (h, 1), (1,)]
        params = [np.reshape(doc["weights"][n], s) for n, s in zip(_PARAMS, shapes)]
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
