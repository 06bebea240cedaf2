"""Benchmark of the unitselect pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload appendix --seed 61 --seconds 25 --trace 0

One run is one process and one workload.  It times whole pipeline passes of
that workload, with tracing off, until ``--seconds`` are used up (at least two
passes, so outputs can be compared across passes), checks every pass's
outputs, and prints the end-to-end metrics.  ``--trace 1`` instead makes one
untraced and one traced pass and prints the per-layer metrics.
``--workload all`` runs every workload, one child process after another, and
``--smoke`` shrinks every workload to a tiny size.  The last line of standard
output is always a JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a run then depends on one CPU's speed only, which on a
# small shared machine varies less than two, and reads the same on any nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

# Setup is probed before the first pass and again after every pass, so its
# median spans the whole run rather than one moment of a shared machine.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="experimental data seed; observational uses seed + 1 "
                   "(default: the paper's or README's seeds)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """Content digest of the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unitselect").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_runtime_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def _probe_setup(workload: str) -> float:
    """Seconds from launching a fresh benchmark process to its first timed
    call: interpreter start, imports, and the fingerprint-checked config load."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1]) - start


def _print_metrics(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(args, np, pipeline, tracing) -> int:
    w = pipeline.WORKLOADS[args.workload]
    size = w.tiny if args.smoke else w.full
    seeds = pipeline.seeds_for(w, args.seed)
    checks = pipeline.Checks()
    work = OUT_DIR / f"work-{w.name}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seeds.exp}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    run = pipeline.describe(w, size, seeds)
    env = _environment(np)
    record = {**run, "environment": env}
    print("# run " + json.dumps(run))
    print("# environment " + json.dumps(env))

    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.span("model.config_load"):
                config = pipeline.load_config(w)
            plain = pipeline.run_pass(w, config, size, seeds, work, tracing.NullTracer(),
                                      checks, first=True)
            with tracing.installed(tracer):
                traced = pipeline.run_pass(w, config, size, seeds, work, tracer, checks,
                                           first=False)
            passes = [plain, traced]
            metrics = {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in tracing.per_layer_metrics(tracer).items()
            }
            metrics["trace.overhead_s"] = {
                "value": traced.seconds - plain.seconds, "unit": "s"
            }
            tracer.dump(OUT_DIR / f"trace-{tag}.json")
            for layer, secs in sorted(tracer.layer_self_times().items()):
                print(f"# self time {layer:<10} {secs:.4f} s")
        else:
            config = pipeline.load_config(w)
            setup = [_probe_setup(w.name) for _ in range(SETUP_PROBES_FIRST)]
            passes = []
            start = time.monotonic()
            while True:
                passes.append(pipeline.run_pass(w, config, size, seeds, work,
                                                tracing.NullTracer(), checks,
                                                first=not passes))
                setup += [_probe_setup(w.name) for _ in range(SETUP_PROBES_PER_PASS)]
                median = statistics.median(p.seconds for p in passes)
                if (len(passes) >= MIN_PASSES
                        and time.monotonic() - start + median > args.seconds):
                    break
            metrics = {
                "pipeline_s": {"value": median, "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            record["setup_s_samples"] = setup
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, p in enumerate(passes[1:], start=2):
        checks.expect(f"{w.name}: pass {i} outputs identical to pass 1",
                      p.fingerprint == passes[0].fingerprint)
    failed = len(checks.failed)
    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    record.update(
        pass_seconds=[p.seconds for p in passes],
        attempted=checks.attempted,
        failed_checks=checks.failed,
        metrics=metrics,
    )
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# passes {len(passes)}: " + " ".join(f"{p.seconds:.4f}" for p in passes))
    print(f"# mae_lower {passes[0].mae_lower:.6g}, mae_upper {passes[0].mae_upper:.6g}")
    print(f"# attempted {checks.attempted}, failed {failed}, "
          f"failed_ratio {failed / checks.attempted:.6g}")
    _print_metrics(metrics)
    print(_result_line(failed == 0, checks.attempted, failed, metrics))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own child process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads:
        argv = [sys.executable, __file__, "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.smoke:
            argv.append("--smoke")
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "unitselect" / "__init__.py").is_file():
        print(f"no unitselect sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import pipeline
    import tracing

    if args.workload != "all" and args.workload not in pipeline.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.probe_setup:
        pipeline.load_config(pipeline.WORKLOADS[args.workload])
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args, list(pipeline.WORKLOADS))
    return run_one(args, np, pipeline, tracing)


if __name__ == "__main__":
    sys.exit(main())
