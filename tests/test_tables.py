import re
from contextlib import contextmanager

import numpy as np
import pytest

from unitselect import tables
from unitselect.bounds import DEFAULT_BENEFIT_VECTOR
from unitselect.cells import DropTable, LabelTable, SplitSpec, aggregate, build_labels, split
from unitselect.datagen import iter_blocks
from unitselect.informer import InformerTable, informer_table
from unitselect.learner import PredictionTable
from unitselect.model import cell_bits
from unitselect.tables import write_cell_csv


class _FailingFile:
    """A text file that fails, flushed, once ``writes`` writes have gone
    through."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        if self.writes == 0:
            self.fh.flush()
            raise OSError("disk full")
        self.writes -= 1
        return self.fh.write(text)


def test_write_cell_csv_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old contents\r\n")
    atomic_write = tables.atomic_write

    @contextmanager
    def fail_after_the_first_block(*args, **kwargs):
        with atomic_write(*args, **kwargs) as fh:
            yield _FailingFile(fh, writes=2)  # the header, then one block

    monkeypatch.setattr(tables, "_WRITE_BLOCK", 1)
    monkeypatch.setattr(tables, "atomic_write", fail_after_the_first_block)
    with pytest.raises(OSError, match="disk full"):
        write_cell_csv(path, ["cell_id", "value"], [np.arange(3), np.array([0.5, 1.0, -2.0])])
    assert path.read_bytes() == b"old contents\r\n"
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.setattr(tables, "atomic_write", atomic_write)
    write_cell_csv(path, ["cell_id", "value"], [np.arange(3), np.array([0.5, 1.0, -2.0])])
    assert path.read_bytes() == b"cell_id,value\r\n0,0.5\r\n1,1\r\n2,-2\r\n"
    assert list(tmp_path.iterdir()) == [path]


def _savetxt_csv(path, header, columns):
    # The writer as it was before it formatted by block: one np.savetxt row
    # per Python call, over an object array of all columns.
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    kinds = [c.dtype.kind for c in cols for _ in range(c.shape[1])]
    fmt = ["%.12g" if k == "f" else "%d" if k in "biu" else "%s" for k in kinds]
    rows = np.hstack([c.astype(object) for c in cols])
    with open(path, "w", newline="", encoding="ascii") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


@pytest.mark.parametrize("n_rows", [0, 1, 7, 2 * tables._WRITE_BLOCK + 3])
def test_write_cell_csv_writes_the_bytes_savetxt_wrote(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    specials = np.array([-0.0, 0.0, 1e-5, 9.99999999999e-5, 1e-4, 1e16, 1e15, -1e17,
                         0.1 + 0.2, 1 / 3, 123456789012.5, 2.0**53 + 1, np.pi])
    floats = rng.choice(specials, size=n_rows) * rng.choice([1.0, rng.random()], size=n_rows)
    columns = [
        (2**62 + np.arange(n_rows)).astype(np.int64),  # above 2**53: float64 would round
        floats,
        rng.random(n_rows) < 0.5,
        rng.choice(np.array(["", "below_threshold", "zero_arm"], dtype=object), size=n_rows),
        rng.integers(0, 2, size=(n_rows, 3), dtype=np.uint8),
        rng.normal(size=(n_rows, 2)) * 10.0 ** rng.integers(-8, 18, size=(n_rows, 2)),
        rng.integers(-(2**63), 2**63 - 1, size=n_rows, dtype=np.int64),
    ]
    header = ["cell_id", "f", "flag", "reason", "b1", "b2", "b3", "e1", "e2", "i"]
    write_cell_csv(tmp_path / "block.csv", header, columns)
    _savetxt_csv(tmp_path / "savetxt.csv", header, columns)
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "savetxt.csv").read_bytes()
    assert got.count(b"\r\n") == n_rows + 1 and b"\n" not in got.replace(b"\r\n", b"")


# The row fields of each table, by the names ``benchmarks/`` reads them by.
ROW_FIELDS = {
    LabelTable: ["cell", "lower_label", "upper_label", "n_exp", "n_obs"],
    DropTable: ["cell", "reason", "n_exp", "n_obs"],
    InformerTable: ["cell", "exp", "obs", "true_f", "true_lower", "true_upper"],
    PredictionTable: ["cell_id", "pred_lower", "pred_upper", "repaired"],
}


def test_rows_are_the_columns_as_python_values(desk4):
    v = DEFAULT_BENEFIT_VECTOR
    tables = [np.zeros((16, 4), dtype=np.int64) for _ in range(2)]
    for table, regime, seed in zip(tables, ("experimental", "observational"), (1, 2)):
        for block in iter_blocks(desk4, regime, 20_000, seed):
            aggregate(block, regime, into=table)
    labels, drops = build_labels(*tables, v, threshold=1300)
    train_set, _ = split(labels, SplitSpec(0.2, seed=3))  # not in id order
    truth = informer_table(desk4, v)
    preds = PredictionTable(truth.cell_id, truth.true_lower, truth.true_upper, truth.true_f > 0)
    python_type = {"i": int, "f": float, "b": bool, "O": str}
    for table in (train_set, drops, truth, preds):
        rows = list(table)
        assert len(rows) == len(table) > 0
        for i, row in enumerate(rows):
            assert list(vars(row)) == ROW_FIELDS[type(table)]
            for name, field in zip(table._columns, ROW_FIELDS[type(table)]):
                col, value = getattr(table, name), getattr(row, field)
                if field == "cell":
                    # what the benchmark reads of a row's cell: its id and bits
                    assert list(vars(value)) == ["id", "bits"]
                    assert type(value.id) is int and value.id == col[i]
                    assert value.bits == tuple(cell_bits(col[i : i + 1], table.n_observed)[0])
                    assert type(value.bits) is tuple
                    assert all(type(b) is int for b in value.bits)
                    continue
                entries = value if col.ndim == 2 else [value]
                assert all(type(x) is python_type[col.dtype.kind] for x in entries)
                assert value == col[i : i + 1].tolist()[0]


@pytest.mark.parametrize(
    "ids, distinct",
    [([0, 1, 5], True), ([5, 0, 1], True), ([0, 1, 1], False), ([5, 0, 5], False),
     ([3, 3], False), ([0, -1], False), ([], True)],
)
def test_read_cell_csv_refuses_repeated_and_negative_ids(tmp_path, ids, distinct):
    # ascending ids are taken as they are, and others are sorted to find a
    # repeat: either way a repeat is refused with one message
    path = tmp_path / "t.csv"
    path.write_text("cell_id,value\n" + "".join(f"{i},0.5\n" for i in ids))
    if distinct:
        got, values = tables.read_cell_csv(path, ["cell_id", "value"])
        assert got.tolist() == ids and values.tolist() == [[0.5]] * len(ids)
    else:
        message = f"{path}: cell ids must be distinct non-negative integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tables.read_cell_csv(path, ["cell_id", "value"])
