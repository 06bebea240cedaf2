"""Smoke test of the benchmark: tiny inputs, every metric named, every check passing.

Run from the repository root with ``python -m pytest benchmarks``; it takes
about a minute, most of it the informer over wide-cells' 65,536 cells.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_and_passes_checks(trace, group):
    out = _run(ROOT, "--workload", "all", "--smoke", "--seed", "5",
               "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    for w in SPEC["workloads"]:
        got = {
            key.split("/", 1)[1]: m["unit"]
            for key, m in result["metrics"].items()
            if key.startswith(w["name"] + "/")
        }
        assert got == expected, w["name"]
    # and each one is printed by name with its unit
    for name, unit in expected.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit)
                   for line in lines), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "appendix", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
