"""In-memory spans around the package's public functions.

A span is (name, start, end, parent); the layer of a span is the part of its
name before the first dot.  Spans live in memory until the run ends, when
``Tracer.dump`` writes them out.  Wrappers are installed on the package's
modules only for the traced run, so the timed runs call the library directly.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from unitselect import cells, datagen, informer, learner


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or None, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span; yields its attribute dict, which hooks may fill."""
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec[4]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Span duration minus the time its (sequential) children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def total_self(self, prefix: str) -> float:
        return sum(
            s for (n, *_), s in zip(self.spans, self.self_times()) if n.startswith(prefix)
        )

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, self.self_times()):
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n", encoding="ascii")


class NullTracer:
    """Stands in for Tracer in the timed runs: records nothing."""

    def span(self, name: str):
        return nullcontext({})

    def count(self, name: str, n: float = 1) -> None:
        pass


def _file_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(datagen.meta_path(path))


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
        if after is not None:
            # Its own span, so the bookkeeping is not billed to the caller.
            with tracer.span("trace.hook"):
                after(tracer, attrs, result, *args, **kwargs)
        return result

    return wrapper


def _wrap_iter_blocks(tracer: Tracer, fn):
    # Generation is lazy: time each shard as the consumer pulls it, so the
    # shard spans become children of whoever consumes them (write or aggregate).
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span("datagen.generate"):
                try:
                    block = next(it)
                except StopIteration:
                    return
            tracer.count("datagen.rows", len(block))
            yield block

    return wrapper


def _after_write_dataset(tracer, attrs, meta, path, *args, **kwargs):
    tracer.count("datagen.bytes_written", _file_bytes(path))


def _after_read_dataset(tracer, attrs, result, path, *args, **kwargs):
    tracer.count("datagen.bytes_read", _file_bytes(path))


def _after_build_labels(tracer, attrs, result, *args, **kwargs):
    labels, drops = result
    # Every cell present in either map lands in exactly one of the outputs;
    # the output checks verify that against the datasets.
    tracer.count("cells.cells_seen", len(labels) + len(drops))
    tracer.count("cells.eligible", len(labels))
    for reason, n in Counter(d.reason for d in drops).items():
        tracer.count(f"cells.dropped.{reason}", n)


def _after_train(tracer, attrs, model, features, targets, hp, *args, **kwargs):
    # Both callers (the appendix pipeline and `unitselect train`) fit the
    # lower bound first, then the upper bound.
    n = tracer.counts["learner.train_calls"]
    bound = "lower" if n % 2 == 0 else "upper"
    attrs["bound"] = bound
    tracer.count("learner.train_calls")
    tracer.count("learner.epochs", hp.epochs)
    tracer.counts["learner.train_cells"] = len(features)
    tracer.counts[f"learner.final_loss_{bound}"] = model.loss_history[-1]


def _after_predict_all(tracer, attrs, rows, *args, **kwargs):
    tracer.count("learner.repaired", sum(r.repaired for r in rows))


def _after_evaluate(tracer, attrs, metrics, *args, **kwargs):
    tracer.counts["learner.mae_lower"] = metrics["mae_lower"]
    tracer.counts["learner.mae_upper"] = metrics["mae_upper"]


def _after_informer_table(tracer, attrs, records, *args, **kwargs):
    tracer.count("informer.cells", len(records))


# (module, public function, span name, hook run on the result)
_WRAPPED = [
    (datagen, "write_dataset", "datagen.write_dataset", _after_write_dataset),
    (datagen, "read_dataset", "datagen.read_dataset", _after_read_dataset),
    (cells, "aggregate", "cells.aggregate", None),
    (cells, "build_labels", "cells.build_labels", _after_build_labels),
    (cells, "split", "cells.split", None),
    (cells, "write_labels_csv", "cells.io", None),
    (cells, "read_labels_csv", "cells.io", None),
    (cells, "write_drops_csv", "cells.io", None),
    (informer, "informer_table", "informer.table", _after_informer_table),
    (informer, "write_informer_csv", "informer.io", None),
    (informer, "read_informer_csv", "informer.io", None),
    (learner, "train", "learner.train", _after_train),
    (learner, "predict_all", "learner.predict_all", _after_predict_all),
    (learner, "evaluate", "learner.evaluate", _after_evaluate),
    (learner, "save_model", "learner.io", None),
    (learner, "load_model", "learner.io", None),
    (learner, "write_predictions_csv", "learner.io", None),
    (learner, "read_predictions_csv", "learner.io", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Replace the wrapped module attributes for the duration of the block.

    The CLI and the appendix pipeline both call these functions through their
    module (``cells.aggregate(...)``), so the replacements are what they call.
    """
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _WRAPPED]
    saved.append((datagen, "iter_blocks", datagen.iter_blocks))
    try:
        for mod, attr, name, after in _WRAPPED:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr), after))
        datagen.iter_blocks = _wrap_iter_blocks(tracer, datagen.iter_blocks)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


CLI_COMMANDS = (
    "simulate", "informer", "label", "train", "predict", "select", "evaluate", "report",
)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = tracer.counts
    train = [
        (s[4].get("bound"), s[2] - s[1]) for s in tracer.spans if s[0] == "learner.train"
    ]
    eligible = c["cells.eligible"]
    seen = c["cells.cells_seen"]
    inconsistent = c["cells.dropped.INCONSISTENT"]
    m: dict[str, tuple[float, str]] = {
        "datagen.generate_s": (tracer.total("datagen.generate"), "s"),
        "datagen.rows": (c["datagen.rows"], "count"),
        "datagen.write_s": (tracer.total_self("datagen.write_dataset"), "s"),
        "datagen.read_s": (tracer.total("datagen.read_dataset"), "s"),
        "datagen.bytes_written": (c["datagen.bytes_written"], "bytes"),
        "datagen.bytes_read": (c["datagen.bytes_read"], "bytes"),
        "cells.aggregate_s": (tracer.total("cells.aggregate"), "s"),
        "cells.build_labels_s": (tracer.total("cells.build_labels"), "s"),
        "cells.split_s": (tracer.total("cells.split"), "s"),
        "cells.io_s": (tracer.total("cells.io"), "s"),
        "cells.cells_seen": (seen, "count"),
        "cells.eligible": (eligible, "count"),
        "cells.dropped_below_threshold": (c["cells.dropped.BELOW_THRESHOLD"], "count"),
        "cells.dropped_zero_arm": (c["cells.dropped.ZERO_ARM"], "count"),
        "cells.dropped_inconsistent": (inconsistent, "count"),
        "cells.eligible_ratio": (eligible / seen if seen else 0.0, "ratio"),
        "bounds.evals": (eligible + inconsistent + c["informer.cells"], "count"),
        "informer.table_s": (tracer.total("informer.table"), "s"),
        "informer.io_s": (tracer.total("informer.io"), "s"),
        "informer.cells": (c["informer.cells"], "count"),
        "learner.train_lower_s": (sum(t for b, t in train if b == "lower"), "s"),
        "learner.train_upper_s": (sum(t for b, t in train if b == "upper"), "s"),
        "learner.train_cells": (c["learner.train_cells"], "count"),
        "learner.epochs": (c["learner.epochs"], "count"),
        "learner.final_loss_lower": (c["learner.final_loss_lower"], "mse"),
        "learner.final_loss_upper": (c["learner.final_loss_upper"], "mse"),
        "learner.predict_all_s": (tracer.total("learner.predict_all"), "s"),
        "learner.evaluate_s": (tracer.total("learner.evaluate"), "s"),
        "learner.io_s": (tracer.total("learner.io"), "s"),
        "learner.repaired": (c["learner.repaired"], "count"),
        "learner.mae_lower": (c["learner.mae_lower"], "payoff"),
        "learner.mae_upper": (c["learner.mae_upper"], "payoff"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (tracer.total(f"cli.{cmd}"), "s")
    m["cli.self_s"] = (tracer.total_self("cli."), "s")
    m["cli.nonzero_exits"] = (c["cli.nonzero_exits"], "count")
    m["model.config_load_s"] = (tracer.total("model.config_load"), "s")
    return m
