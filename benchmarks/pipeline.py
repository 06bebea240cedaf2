"""The benchmark's workloads: one full pipeline pass each, plus its output checks.

``appendix`` runs the library in-process, the way acceptance criterion 6 does.
``wide-cells`` and ``narrow-rows`` run the whole command-line chain through
``unitselect.cli.main`` in-process, writing their artifacts under a work
directory.  Every library call goes through its module attribute
(``cells.aggregate`` rather than an imported name), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from unitselect import ScmConfig, cells, cli, datagen, default_config, informer, learner
from unitselect.bounds import DEFAULT_BENEFIT_VECTOR, value_range

V = DEFAULT_BENEFIT_VECTOR
CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Same slack as the informer soundness test: table values are written at 12
# significant digits, and lower == f == upper ties are computed two ways.
SOUNDNESS_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    rows: int  # per regime
    threshold: int
    hidden_width: int
    epochs: int
    sample_n: int


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str | None  # under configs/; None is the bundled appendix model
    fingerprint: str
    default_seed: int  # experimental seed; observational is seed + 1
    split_seed: int
    train_seed: int
    eval_seed: int
    exp_suffix: str  # ".csv" or ".bin" (packed)
    obs_suffix: str
    full: Size
    tiny: Size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="appendix",
            config_file=None,
            fingerprint="28dcb1a794e060f1bb046d11421ea1fdd0debcb877fea8e5e6c7cc270bd2fd5f",
            default_seed=61,
            split_seed=0,
            train_seed=0,
            eval_seed=0,
            exp_suffix="",
            obs_suffix="",
            full=Size(5_000_000, 1300, 128, 600, 200),
            tiny=Size(300_000, 100, 16, 20, 200),
        ),
        Workload(
            name="wide-cells",
            config_file="wide-cells.json",
            fingerprint="e9957ee43b6c9cc0eceff797f0179ae4306ac31bcf02e5eab4fb8adba79838c9",
            default_seed=41,
            split_seed=7,
            train_seed=0,
            eval_seed=0,
            exp_suffix=".bin",
            obs_suffix=".bin",
            full=Size(1_000_000, 1300, 128, 600, 200),
            tiny=Size(200_000, 20, 16, 20, 200),
        ),
        Workload(
            name="narrow-rows",
            config_file="narrow-rows.json",
            fingerprint="131b34acaa1de35f9da53be4b29b13f31766500344c33a867251d14129450044",
            default_seed=41,
            split_seed=7,
            train_seed=0,
            eval_seed=0,
            exp_suffix=".csv",
            obs_suffix=".bin",
            full=Size(8_000_000, 1300, 128, 600, 16),
            tiny=Size(100_000, 1300, 16, 20, 16),
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    exp: int
    obs: int
    split: int
    train: int
    eval: int


def seeds_for(w: Workload, seed: int | None) -> Seeds:
    """Seeds for one run.  The data seeds are (seed, seed + 1), the pairing the
    paper (61/62) and the README (41/42) use, so the known seed ^ shard stream
    overlap between the two regimes shows up as it does there."""
    s = w.default_seed if seed is None else seed
    return Seeds(s, s + 1, w.split_seed, w.train_seed, w.eval_seed)


class ConfigMismatch(RuntimeError):
    """A workload's model config no longer has its recorded fingerprint."""


def load_config(w: Workload) -> ScmConfig:
    """The workload's model, checked against its recorded fingerprint."""
    if w.config_file is None:
        config = default_config()
    else:
        config = ScmConfig.load(CONFIG_DIR / w.config_file)
    if config.fingerprint != w.fingerprint:
        raise ConfigMismatch(
            f"{w.name}: config fingerprint {config.fingerprint[:12]}... differs from "
            f"the recorded {w.fingerprint[:12]}...; the workload's inputs changed"
        )
    return config


class Checks:
    """Counts attempted and failed operations: output checks and CLI exits."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def run(self, name: str, fn) -> None:
        """Run a check that returns truth; an exception counts as a failure."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a broken artifact is a failed check
            name, ok = f"{name}: {type(exc).__name__}: {exc}", False
        self.expect(name, ok)


@dataclass
class PassResult:
    seconds: float
    mae_lower: float
    mae_upper: float
    fingerprint: str  # digest of the pass's outputs, compared across passes


def _sound(true_f, true_lower, true_upper) -> bool:
    return bool(
        np.all(true_lower - SOUNDNESS_TOL <= true_f)
        and np.all(true_f <= true_upper + SOUNDNESS_TOL)
    )


def _preds_ok(lower, upper) -> bool:
    lo, hi = value_range(V)
    return bool(np.all(lo <= lower) and np.all(lower <= upper) and np.all(upper <= hi))


# --------------------------------------------------------------------------
# appendix: in-process library pipeline


def appendix_pass(config, size: Size, seeds: Seeds, tracer, checks: Checks) -> PassResult:
    hp = learner.Hyperparams(
        hidden_width=size.hidden_width, epochs=size.epochs, seed=seeds.train
    )
    start = time.perf_counter()
    with tracer.span("pipeline"):
        exp_map: dict = {}
        for block in datagen.iter_blocks(config, "experimental", size.rows, seeds.exp):
            cells.aggregate(block, "experimental", into=exp_map)
        obs_map: dict = {}
        for block in datagen.iter_blocks(config, "observational", size.rows, seeds.obs):
            cells.aggregate(block, "observational", into=obs_map)
        labels, drops = cells.build_labels(exp_map, obs_map, V, size.threshold)
        train_set, test_set = cells.split(labels, cells.SplitSpec(0.2, seeds.split))
        feats = [lab.cell.bits for lab in train_set]
        model_lower = learner.train(feats, [lab.lower_label for lab in train_set], hp)
        model_upper = learner.train(feats, [lab.upper_label for lab in train_set], hp)
        preds = learner.predict_all(model_lower, model_upper, config.n_observed, V)
        truth = informer.informer_table(config, V)
        metrics = learner.evaluate(preds, truth, size.sample_n, seeds.eval)
    seconds = time.perf_counter() - start

    n_cells = 1 << config.n_observed
    seen = len(set(exp_map) | set(obs_map))
    checks.expect("appendix: eligible + dropped == cells seen", len(labels) + len(drops) == seen)
    checks.expect("appendix: train + test == eligible", len(train_set) + len(test_set) == len(labels))
    checks.expect("appendix: informer covers every cell", len(truth) == n_cells)
    checks.run(
        "appendix: true_lower <= true_f <= true_upper",
        lambda: _sound(*(np.array([getattr(r, k) for r in truth])
                         for k in ("true_f", "true_lower", "true_upper"))),
    )
    checks.expect("appendix: a prediction per cell", len(preds) == n_cells)
    checks.run(
        "appendix: predictions in value range, lower <= upper",
        lambda: _preds_ok(np.array([r.pred_lower for r in preds]),
                          np.array([r.pred_upper for r in preds])),
    )
    if size.rows >= 5_000_000:
        # Acceptance criterion 6, at the size it is stated for.
        checks.expect("appendix: 150..800 labels", 150 <= len(labels) <= 800)
        checks.expect("appendix: mae_lower <= 0.8", metrics["mae_lower"] <= 0.8)
        checks.expect("appendix: mae_upper <= 0.8", metrics["mae_upper"] <= 0.8)

    digest = hashlib.sha256()
    for lab in labels:
        digest.update(f"{lab.cell.id},{lab.lower_label!r},{lab.upper_label!r};".encode())
    for row in preds:
        digest.update(f"{row.pred_lower!r},{row.pred_upper!r};".encode())
    digest.update(json.dumps(metrics, sort_keys=True).encode())
    return PassResult(seconds, metrics["mae_lower"], metrics["mae_upper"], digest.hexdigest())


# --------------------------------------------------------------------------
# wide-cells, narrow-rows: the command-line chain


_LABEL_LINE = re.compile(r"eligible (\d+) cells \((\d+) train, (\d+) test\), dropped (\d+)")


def _artifacts(w: Workload) -> list[str]:
    return [
        f"exp{w.exp_suffix}", "exp.meta.json", f"obs{w.obs_suffix}", "obs.meta.json",
        "truth.csv", "labels/train_labels.csv", "labels/test_labels.csv",
        "labels/drops.csv", "models/model_lower.json", "models/model_upper.json",
        "preds.csv", "selection.csv", "metrics.json", "report.csv",
    ]


def _cli_steps(w: Workload, cfg: Path, work: Path, size: Size, seeds: Seeds):
    exp = work / f"exp{w.exp_suffix}"
    obs = work / f"obs{w.obs_suffix}"
    preds = work / "preds.csv"
    truth = work / "truth.csv"
    return [
        ["simulate", "--config", cfg, "--kind", "experimental", "--n", size.rows,
         "--seed", seeds.exp, "--out", exp],
        ["simulate", "--config", cfg, "--kind", "observational", "--n", size.rows,
         "--seed", seeds.obs, "--out", obs],
        ["informer", "--config", cfg, "--out", truth],
        ["label", "--exp", exp, "--obs", obs, "--config", cfg,
         "--threshold", size.threshold, "--test-fraction", 0.2, "--seed", seeds.split,
         "--out-dir", work / "labels"],
        ["train", "--labels", work / "labels" / "train_labels.csv",
         "--hidden-width", size.hidden_width, "--epochs", size.epochs,
         "--seed", seeds.train, "--out-dir", work / "models"],
        ["predict", "--model-lower", work / "models" / "model_lower.json",
         "--model-upper", work / "models" / "model_upper.json", "--out", preds],
        ["select", "--predictions", preds, "--mode", "lower_positive",
         "--out", work / "selection.csv"],
        ["evaluate", "--predictions", preds, "--informer", truth,
         "--sample-n", size.sample_n, "--seed", seeds.eval, "--out", work / "metrics.json"],
        ["report", "--predictions", preds, "--informer", truth,
         "--sample-n", size.sample_n, "--seed", seeds.eval, "--out", work / "report.csv"],
    ]


def _file_digest(path: Path) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.digest()


def _cell_ids(path: Path, n_observed: int, chunk: int = 1 << 20) -> np.ndarray:
    """Distinct cell ids in a dataset file, read in chunks through a memory
    map so the check adds little to the run's peak memory."""
    weights = (1 << np.arange(n_observed, dtype=np.int64))
    seen = np.zeros(1 << n_observed, dtype=bool)
    if path.suffix == ".csv":
        with open(path, "rb") as fh:
            header = len(fh.readline())
        rows = np.memmap(path, dtype=np.uint8, mode="r", offset=header)
        rows = rows.reshape(-1, 2 * (n_observed + 2))
        for start in range(0, len(rows), chunk):
            bits = rows[start : start + chunk, 0 : 2 * n_observed : 2] - ord("0")
            seen[bits.astype(np.int64) @ weights] = True
    else:
        words = np.memmap(path, dtype="<u4", mode="r")
        for start in range(0, len(words), chunk):
            seen[words[start : start + chunk] & ((1 << n_observed) - 1)] = True
    return np.flatnonzero(seen)


def _check_cli_outputs(
    w: Workload, config, work: Path, label_out: str, checks: Checks
) -> None:
    n_cells = 1 << config.n_observed
    match = _LABEL_LINE.search(label_out)
    checks.expect(f"{w.name}: label reports its counts", match is not None)
    if match:
        eligible, n_train, n_test, dropped = (int(g) for g in match.groups())

        def rows(rel):
            return len((work / rel).read_text(encoding="ascii").splitlines()) - 1

        checks.run(
            f"{w.name}: train + test == eligible",
            lambda: rows("labels/train_labels.csv") + rows("labels/test_labels.csv")
            == n_train + n_test == eligible,
        )
        checks.run(
            f"{w.name}: eligible + dropped == cells seen",
            lambda: rows("labels/drops.csv") == dropped
            and eligible + dropped
            == len(np.union1d(
                _cell_ids(work / f"exp{w.exp_suffix}", config.n_observed),
                _cell_ids(work / f"obs{w.obs_suffix}", config.n_observed),
            )),
        )

    def truth_sound():
        t = np.loadtxt(work / "truth.csv", delimiter=",", skiprows=1, ndmin=2)
        return len(t) == n_cells and _sound(t[:, 7], t[:, 8], t[:, 9])

    def preds_ok():
        p = np.loadtxt(work / "preds.csv", delimiter=",", skiprows=1, ndmin=2)
        return len(p) == n_cells and _preds_ok(p[:, 1], p[:, 2])

    checks.run(f"{w.name}: true_lower <= true_f <= true_upper", truth_sound)
    checks.run(f"{w.name}: predictions in value range, lower <= upper", preds_ok)


def cli_pass(
    w: Workload, config, size: Size, seeds: Seeds, work: Path, tracer, checks: Checks,
    check_outputs: bool,
) -> PassResult:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = CONFIG_DIR / w.config_file
    steps = [[str(a) for a in step] for step in _cli_steps(w, cfg, work, size, seeds)]
    outputs = {}
    codes = []
    start = time.perf_counter()
    with tracer.span("pipeline"):
        for argv in steps:
            buf = io.StringIO()
            with tracer.span(f"cli.{argv[0]}"), redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                tracer.count("cli.nonzero_exits")
            codes.append(code)
            outputs[argv[0]] = buf.getvalue()
    seconds = time.perf_counter() - start

    for argv, code in zip(steps, codes):
        checks.expect(f"{w.name}: unitselect {argv[0]} exits 0", code == 0)
    if check_outputs:
        _check_cli_outputs(w, config, work, outputs["label"], checks)
    try:
        metrics = json.loads((work / "metrics.json").read_text(encoding="ascii"))
        mae = (float(metrics["mae_lower"]), float(metrics["mae_upper"]))
    except (OSError, ValueError, KeyError):
        mae = (math.nan, math.nan)
    checks.expect(f"{w.name}: metrics.json holds both MAEs", all(map(math.isfinite, mae)))

    digest = hashlib.sha256()
    for rel in _artifacts(w):
        path = work / rel
        digest.update(rel.encode() + b"\0")
        digest.update(_file_digest(path) if path.exists() else b"-")
    return PassResult(seconds, mae[0], mae[1], digest.hexdigest())


def run_pass(w, config, size, seeds, work, tracer, checks, first: bool) -> PassResult:
    if w.config_file is None:
        return appendix_pass(config, size, seeds, tracer, checks)
    return cli_pass(w, config, size, seeds, work, tracer, checks, check_outputs=first)


def describe(w: Workload, size: Size, seeds: Seeds) -> dict:
    return {"workload": w.name, "size": asdict(size), "seeds": asdict(seeds)}
