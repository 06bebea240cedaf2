"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Each test prints a single ACCEPTANCE PASS line with the measured quantities
once its assertions hold (run with -s or -rA to see them).  Criterion 6 is the
full-scale end-to-end run; it is skipped unless UNITSELECT_RUN_SLOW=1.
"""

import time

import numpy as np
import pytest

from oracles import feasible_benefit_range
from unitselect.bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    sigma,
    value_range,
    w_term,
)
from unitselect.cells import SplitSpec, aggregate, build_labels, split
from unitselect.cli import main as cli_main
from unitselect.datagen import iter_blocks
from unitselect.informer import (
    completion_weights,
    exact_experimental,
    informer_table,
    response_profile,
)
from unitselect.learner import (
    Hyperparams,
    _Buffers,
    _loss_and_grads,
    evaluate,
    predict_all,
    train,
)
from unitselect.model import FullProfile, cell_bits

V = DEFAULT_BENEFIT_VECTOR


def test_criterion_1_soundness_exhaustive(desk8):
    start = time.perf_counter()
    records = informer_table(desk8, V)
    elapsed = time.perf_counter() - start
    assert len(records) == 256
    slack = min(
        (records.true_f - records.true_lower).min(),
        (records.true_upper - records.true_f).min(),
    )
    assert slack >= -1e-9
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE PASS criterion 1: true_f within bounds on all 256 cells "
        f"(worst slack {slack:.3g}, {elapsed * 1000:.0f} ms)"
    )


def test_criterion_2_algebraic_identity(desk8):
    # rebuild W + sigma * p_complier by scalar mixing over latent
    # completions, then compare with the vectorized informer's true_f
    records = informer_table(desk8, V)
    n_u = desk8.n_unobserved
    weights = completion_weights(desk8)
    worst = 0.0
    for i, bits in enumerate(cell_bits(records.cell_id, records.n_observed).tolist()):
        pc = 0.0
        p_do_x = 0.0
        p_do_xp = 0.0
        for c in range(1 << n_u):
            comp = tuple((c >> j) & 1 for j in range(n_u))
            profile = FullProfile((*bits, *comp))
            pc += weights[c] * response_profile(profile, desk8).p_complier
            e = exact_experimental(profile, desk8)
            p_do_x += weights[c] * e.p_y_do_x
            p_do_xp += weights[c] * e.p_y_do_xp
        w = w_term(V, ExperimentalDistribution(p_y_do_x=p_do_x, p_y_do_xp=p_do_xp))
        worst = max(worst, abs(records.true_f[i] - (w + sigma(V) * pc)))
    assert worst < 1e-9
    print(
        f"ACCEPTANCE PASS criterion 2: |true_f - (W + sigma*p_complier)| "
        f"max {worst:.3g} over 256 cells"
    )


def test_criterion_3_sigma_branches(desk8):
    start = time.perf_counter()
    flat = BenefitVector(1.0, 1.0, 1.0, 1.0)
    assert sigma(flat) == 0.0
    table = informer_table(desk8, flat)
    assert (table.true_lower == 1.0).all()
    assert (table.true_upper == 1.0).all()
    assert (table.true_f == 1.0).all()

    worst = 0.0
    for v in (V, BenefitVector(0.0, 1.0, 1.0, 1.0)):  # sigma +1 and -1
        assert abs(sigma(v)) == 1.0
        table = informer_table(desk8, v)
        for i in range(len(table)):
            exp, obs = ExperimentalDistribution(*table.exp[i]), ObservationalJoint(*table.obs[i])
            oracle = feasible_benefit_range(v, exp, obs)
            assert oracle is not None
            worst = max(
                worst,
                abs(table.true_lower[i] - oracle[0]),
                abs(table.true_upper[i] - oracle[1]),
            )
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE PASS criterion 3: sigma=0 exact, sigma=+/-1 vs corner "
        f"oracle max dev {worst:.3g} ({elapsed:.1f} s)"
    )


def _counts(config, regime, n, seed):
    """A regime's count table, its rows streamed shard by shard into it."""
    counts = None
    for block in iter_blocks(config, regime, n, seed):
        counts = aggregate(block, regime, into=counts)
    return counts


def test_criterion_4_monte_carlo_convergence(desk4):
    n = 1_000_000
    exp_counts = _counts(desk4, "experimental", n, seed=41)
    obs_counts = _counts(desk4, "observational", n, seed=42)
    checks = 0
    hits = 0
    truth = informer_table(desk4, V)
    for i, cid in enumerate(truth.cell_id.tolist()):
        exp, obs = ExperimentalDistribution(*truth.exp[i]), ObservationalJoint(*truth.obs[i])
        # count rows by x*2 + y: (x'y', x'y, xy', xy)
        ce = exp_counts[cid]
        co = obs_counts[cid]
        treated, control, n_obs = ce[2] + ce[3], ce[0] + ce[1], co.sum()
        quantities = [
            (ce[3] / treated, exp.p_y_do_x, treated),
            (ce[1] / control, exp.p_y_do_xp, control),
            (co[3] / n_obs, obs.p_xy, n_obs),
            (co[2] / n_obs, obs.p_xyp, n_obs),
            (co[1] / n_obs, obs.p_xpy, n_obs),
            (co[0] / n_obs, obs.p_xpyp, n_obs),
        ]
        for est, p, n_arm in quantities:
            checks += 1
            hits += abs(est - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n_arm)
    assert checks == 96
    assert hits / checks >= 0.99
    print(
        f"ACCEPTANCE PASS criterion 4: {hits}/{checks} per-cell estimates "
        f"within 5 binomial standard errors"
    )


def _median_label_error(config, n, seed_exp, seed_obs, threshold, truth):
    exp_counts = _counts(config, "experimental", n, seed_exp)
    obs_counts = _counts(config, "observational", n, seed_obs)
    labels, _ = build_labels(exp_counts, obs_counts, V, threshold)
    # the truth table is full, so a cell's id is its row
    errs = [
        np.abs(labels.lower_label - truth.true_lower[labels.cell_id]),
        np.abs(labels.upper_label - truth.true_upper[labels.cell_id]),
    ]
    return float(np.median(np.concatenate(errs))), len(labels)


def test_criterion_5_label_convergence(desk4):
    truth = informer_table(desk4, V)
    med_high, n_high = _median_label_error(desk4, 3_000_000, 51, 52, 100_000, truth)
    med_low, n_low = _median_label_error(desk4, 32_000, 53, 54, 1300, truth)
    assert n_high > 0 and n_low > 0
    assert med_high <= 0.05
    assert med_low <= 0.15
    assert med_high < med_low
    print(
        f"ACCEPTANCE PASS criterion 5: median label error {med_high:.4f} at "
        f">=1e5 samples/cell ({n_high} cells) < {med_low:.4f} at ~1300 "
        f"samples/cell ({n_low} cells)"
    )


@pytest.mark.slow
def test_criterion_6_full_scale_end_to_end(appendix):
    n = 5_000_000
    start = time.perf_counter()
    exp_counts = _counts(appendix, "experimental", n, seed=61)
    obs_counts = _counts(appendix, "observational", n, seed=62)
    labels, _ = build_labels(exp_counts, obs_counts, V, threshold=1300)
    t_label = time.perf_counter() - start
    assert 150 <= len(labels) <= 800

    train_set, _ = split(labels, SplitSpec(test_fraction=0.2, seed=0))
    hp = Hyperparams()  # (128, 600, 0.01)
    feats = cell_bits(train_set.cell_id, train_set.n_observed)
    start = time.perf_counter()
    model_lower = train(feats, train_set.lower_label, hp)
    model_upper = train(feats, train_set.upper_label, hp)
    t_train = time.perf_counter() - start

    preds = predict_all(model_lower, model_upper, appendix.n_observed, V)
    truth = informer_table(appendix, V)
    assert len(truth) == 32768
    metrics = evaluate(preds, truth, sample_n=200, seed=0)
    assert metrics["mae_lower"] <= 0.8
    assert metrics["mae_upper"] <= 0.8
    print(
        f"ACCEPTANCE PASS criterion 6: {len(labels)} eligible cells "
        f"({len(train_set)} trained), mae_lower {metrics['mae_lower']:.4f}, "
        f"mae_upper {metrics['mae_upper']:.4f} "
        f"(label {t_label:.0f} s, train {t_train:.0f} s)"
    )


def test_criterion_7_learner_sanity():
    # gradient check on a small network
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=(10, 3)).astype(float)
    t = rng.uniform(-1, 1, size=10)
    model = train(x, t, Hyperparams(hidden_width=4, epochs=1, seed=2))
    params, t = model.params, t.reshape(-1, 1)
    buf = _Buffers(len(x), params, backward=True)
    _loss_and_grads(params, x, t, buf)
    grads = [g.copy() for g in buf.grads]  # later calls overwrite buf.grads
    h = 1e-5
    worst_grad = 0.0
    for arr, g in zip(params, grads):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = _loss_and_grads(params, x, t, buf)
            arr[idx] = orig - h
            down = _loss_and_grads(params, x, t, buf)
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(g[idx]), 1e-8)
            worst_grad = max(worst_grad, abs(fd - g[idx]) / scale)
    assert worst_grad <= 1e-4

    # constant-target fit; default hyperparameters plateau short of 0.01 on
    # this check, so it runs at a longer, hotter schedule
    feats = [[(i >> b) & 1 for b in range(4)] for i in range(16)]
    hp = Hyperparams(hidden_width=128, epochs=2000, learning_rate=0.1, seed=1)
    fit = train(feats, [0.3] * 16, hp)
    worst_fit = max(abs(predict_all(fit, fit, 4, V).pred_lower - 0.3))
    assert worst_fit <= 0.01

    # bit-identical reruns
    targets = [0.3 * f[0] - 0.2 * f[2] for f in feats]
    hp2 = Hyperparams(hidden_width=16, epochs=50, seed=5)
    a = train(feats, targets, hp2)
    b = train(feats, targets, hp2)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.loss_history == b.loss_history
    assert predict_all(a, a, 4, V) == predict_all(b, b, 4, V)
    print(
        f"ACCEPTANCE PASS criterion 7: gradient rel err {worst_grad:.3g}, "
        f"constant fit dev {worst_fit:.4f}, reruns bit-identical"
    )


def _run_pipeline(root, config_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    run("simulate", "--config", config_path, "--kind", "experimental",
        "--n", 20_000, "--seed", 81, "--out", root / "exp.csv")
    run("simulate", "--config", config_path, "--kind", "observational",
        "--n", 20_000, "--seed", 82, "--out", root / "obs.csv")
    run("informer", "--config", config_path, "--out", root / "truth.csv")
    run("label", "--exp", root / "exp.csv", "--obs", root / "obs.csv",
        "--config", config_path, "--threshold", 50, "--seed", 7,
        "--out-dir", root / "labels")
    run("train", "--labels", root / "labels" / "train_labels.csv",
        "--hidden-width", 8, "--epochs", 60, "--learning-rate", 0.05,
        "--seed", 3, "--out-dir", root / "models")
    run("predict", "--model-lower", root / "models" / "model_lower.json",
        "--model-upper", root / "models" / "model_upper.json",
        "--out", root / "preds.csv")
    run("select", "--predictions", root / "preds.csv", "--mode", "top_k_lower",
        "--k", 5, "--out", root / "selection.csv")
    run("evaluate", "--predictions", root / "preds.csv",
        "--informer", root / "truth.csv", "--sample-n", 16, "--seed", 0,
        "--out", root / "metrics.json")
    run("report", "--predictions", root / "preds.csv",
        "--informer", root / "truth.csv", "--sample-n", 10, "--seed", 4,
        "--out", root / "report.csv")


def test_criterion_8_output_contracts(desk4, tmp_path, capsys):
    config_path = tmp_path / "desk4.json"
    desk4.dump(config_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _run_pipeline(a, config_path)
    _run_pipeline(b, config_path)
    capsys.readouterr()  # swallow subcommand chatter

    lo, hi = value_range(V)
    lines = (a / "preds.csv").read_text().splitlines()
    assert len(lines) == 1 + (1 << desk4.n_observed)
    for line in lines[1:]:
        _, pred_lower, pred_upper, _ = line.split(",")
        assert lo <= float(pred_lower) <= float(pred_upper) <= hi

    artifacts = [
        "exp.csv", "exp.meta.json", "obs.csv", "obs.meta.json", "truth.csv",
        "labels/train_labels.csv", "labels/test_labels.csv", "labels/drops.csv",
        "models/model_lower.json", "models/model_upper.json",
        "preds.csv", "selection.csv", "metrics.json", "report.csv",
    ]
    for rel in artifacts:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    print(
        f"ACCEPTANCE PASS criterion 8: {len(lines) - 1} prediction rows inside "
        f"[{lo}, {hi}], {len(artifacts)} pipeline artifacts byte-identical "
        f"across reruns"
    )
