"""The benchmark's use of the package, run with the tier-1 tests.

One traced appendix pass at its tiny size goes through
``benchmarks/pipeline.py`` and ``benchmarks/tracing.py`` as
``benchmarks/run.py`` runs them, so a change that breaks what the benchmark
calls (the count-map form, row iteration, a wrapped module attribute) fails
here and not only in the benchmark's own smoke test.  The pass's fingerprint
is not pinned: the bits of training depend on the BLAS build.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_traced_appendix_pass_passes_its_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    pipeline = importlib.import_module("pipeline")
    tracing = importlib.import_module("tracing")
    w = pipeline.WORKLOADS["appendix"]
    checks = pipeline.Checks()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pipeline.run_pass(w, pipeline.load_config(w), w.tiny, pipeline.seeds_for(w, None),
                          tmp_path, tracer, checks, first=True)
    assert checks.failed == [] and checks.attempted > 0
    metrics = tracing.per_layer_metrics(tracer)
    # the wrappers saw the calls: counts the traced run reports as 0 otherwise
    for name in ("cells.cells_seen", "cells.eligible", "datagen.rows"):
        assert metrics[name][0] > 0, name
