"""Command-line pipeline: simulate, informer, label, train, predict, select,
evaluate, report.

Every subcommand is a pure function of its file inputs, flags and seed;
re-running an invocation reproduces its outputs byte for byte.  Exit codes:
0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cells, datagen, informer, learner
from .bounds import DEFAULT_BENEFIT_VECTOR, BenefitVector
from .model import ScmConfig, cell_bits, check_cell_space
from .tables import atomic_write, write_cell_csv

__all__ = ["main"]

# Published headline errors, echoed in metrics output for comparison.
REFERENCE_MAE_LOWER = 0.5652
REFERENCE_MAE_UPPER = 0.5447

SELECTION_MODES = ("lower_positive", "top_k_lower", "top_k_midpoint")


def _parse_vector(text: str) -> BenefitVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("benefit vector needs 4 comma-separated payoffs")
    try:
        return BenefitVector(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_seed(text: str) -> int:
    try:
        return datagen.check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_dataset(path: str, config: ScmConfig, regime: str) -> None:
    meta = datagen.read_meta(path)
    if meta.config_fingerprint != config.fingerprint:
        raise ValueError(
            f"{path} was generated from a different model configuration "
            f"(fingerprint {meta.config_fingerprint[:12]}..., expected "
            f"{config.fingerprint[:12]}...)"
        )
    if meta.kind != regime:
        raise ValueError(f"{path} holds {meta.kind} data, expected {regime}")
    if meta.n_observed != config.n_observed:
        raise ValueError(
            f"{path} holds rows of {meta.n_observed} observed bits, "
            f"the configuration has {config.n_observed}"
        )


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ScmConfig.load(args.config)
    datagen.write_dataset(args.out, config, args.kind, args.n, args.seed)
    print(f"wrote {args.n} {args.kind} samples to {args.out}")
    return 0


def _cmd_informer(args: argparse.Namespace) -> int:
    config = ScmConfig.load(args.config)
    table = informer.informer_table(config, args.vector)
    informer.write_informer_csv(table, args.out)
    print(f"wrote {len(table)} cell records to {args.out}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    config = ScmConfig.load(args.config)
    check_cell_space(config.n_observed)  # before reading either dataset
    spec = cells.SplitSpec(test_fraction=args.test_fraction, seed=args.seed)
    _check_dataset(args.exp, config, "experimental")
    _check_dataset(args.obs, config, "observational")
    maps = {"experimental": {}, "observational": {}}
    for path, regime in ((args.exp, "experimental"), (args.obs, "observational")):
        for codes in datagen.iter_codes(path):  # a shard at a time
            cells.aggregate(codes, regime, into=maps[regime], n_observed=config.n_observed)
    labels, drops = cells.build_labels(*maps.values(), args.vector, args.threshold)
    if labels:
        train_set, test_set = cells.split(labels, spec)
    else:
        print("warning: no eligible cells at this threshold", file=sys.stderr)
        # Empty datasets leave the width to the config.
        train_set = test_set = replace(labels, n_observed=config.n_observed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells.write_labels_csv(train_set, out_dir / "train_labels.csv")
    cells.write_labels_csv(test_set, out_dir / "test_labels.csv")
    cells.write_drops_csv(drops, out_dir / "drops.csv")
    print(
        f"eligible {len(labels)} cells ({len(train_set)} train, {len(test_set)} test), "
        f"dropped {len(drops)}; wrote {out_dir}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    labels = cells.read_labels_csv(args.labels)
    if not labels:
        raise ValueError(f"no labeled cells in {args.labels}")
    hp = learner.Hyperparams(
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    features = cell_bits(labels.cell_id, labels.n_observed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, targets in (("lower", labels.lower_label), ("upper", labels.upper_label)):
        model = learner.train(features, targets, hp)
        path = out_dir / f"model_{name}.json"
        learner.save_model(model, path)
        print(
            f"{name}: trained on {len(labels)} cells, "
            f"final loss {model.loss_history[-1]:.6g}, wrote {path}"
        )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model_lower = learner.load_model(args.model_lower)
    model_upper = learner.load_model(args.model_upper)
    table = learner.predict_all(
        model_lower, model_upper, model_lower.n_inputs, args.vector
    )
    learner.write_predictions_csv(table, args.out)
    repaired = int(table.repaired.sum())
    print(f"wrote {len(table)} predictions to {args.out} ({repaired} repaired)")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    if args.mode != "lower_positive" and (args.k is None or args.k < 1):
        raise ValueError(f"mode {args.mode} needs --k >= 1")
    table = learner.read_predictions_csv(args.predictions)
    ids, lower, upper = table.cell_id, table.pred_lower, table.pred_upper
    if args.mode == "lower_positive":
        chosen = np.flatnonzero(lower > 0.0)
    else:
        key = lower if args.mode == "top_k_lower" else (lower + upper) / 2.0
        chosen = np.lexsort((ids, -key))[: args.k]
    # Ranked by predicted lower bound, ties by ascending cell id.
    chosen = chosen[np.lexsort((ids[chosen], -lower[chosen]))]
    write_cell_csv(
        args.out, ["cell_id", "pred_lower", "pred_upper"],
        [ids[chosen], lower[chosen], upper[chosen]],
    )
    print(f"selected {len(chosen)} cells to {args.out}")
    return 0


def _load_pred_truth(
    args: argparse.Namespace,
) -> tuple[learner.PredictionTable, informer.InformerTable]:
    preds = learner.read_predictions_csv(args.predictions)
    return preds, informer.read_informer_csv(args.informer)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    metrics = learner.evaluate(*_load_pred_truth(args), sample_n=args.sample_n, seed=args.seed)
    metrics["reference_mae_lower"] = REFERENCE_MAE_LOWER
    metrics["reference_mae_upper"] = REFERENCE_MAE_UPPER
    text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    if args.out:
        with atomic_write(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    sample = learner.evaluation_sample(*_load_pred_truth(args), args.sample_n, args.seed)
    write_cell_csv(args.out, learner.REPORT_HEADER, sample)
    print(f"wrote {len(sample[0])} sampled cells to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitselect",
        description="Learn bounds of a unit-selection benefit function from "
        "simulated experimental and observational data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_vector(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--vector",
            type=_parse_vector,
            default=DEFAULT_BENEFIT_VECTOR,
            help="benefit vector as beta,gamma,theta,delta (default 1,-1,-1,-2)",
        )

    p = sub.add_parser("simulate", help="generate a seeded dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", required=True, choices=datagen.REGIMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("informer", help="exact per-cell ground truth table")
    p.add_argument("--config", required=True)
    add_vector(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_informer)

    p = sub.add_parser("label", help="aggregate datasets into bound labels")
    p.add_argument("--exp", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--config", required=True)
    add_vector(p)
    p.add_argument("--threshold", type=int, default=cells.DEFAULT_THRESHOLD)
    p.add_argument("--test-fraction", type=float, default=cells.SplitSpec.test_fraction)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="fit lower and upper bound models")
    p.add_argument("--labels", required=True)
    p.add_argument("--hidden-width", type=int, default=learner.Hyperparams.hidden_width)
    p.add_argument("--epochs", type=int, default=learner.Hyperparams.epochs)
    p.add_argument("--learning-rate", type=float, default=learner.Hyperparams.learning_rate)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict bounds for every cell")
    p.add_argument("--model-lower", required=True)
    p.add_argument("--model-upper", required=True)
    add_vector(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("select", help="pick cells from predicted bounds")
    p.add_argument("--predictions", required=True)
    p.add_argument("--mode", required=True, choices=SELECTION_MODES)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    for name, func, text in (
        ("evaluate", _cmd_evaluate, "mean absolute errors vs ground truth"),
        ("report", _cmd_report, "paired true/predicted bounds for plotting"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--predictions", required=True)
        p.add_argument("--informer", required=True)
        p.add_argument("--sample-n", type=int, default=learner.DEFAULT_SAMPLE_N)
        p.add_argument("--seed", type=_parse_seed, required=True)
        p.add_argument("--out", required=func is _cmd_report)
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
