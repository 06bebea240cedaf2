import numpy as np
import pytest

from unitselect import tables
from unitselect.bounds import DEFAULT_BENEFIT_VECTOR
from unitselect.cells import DropTable, LabelTable, SplitSpec, aggregate, build_labels, split
from unitselect.datagen import generate_array
from unitselect.informer import InformerTable, informer_table
from unitselect.learner import PredictionTable
from unitselect.model import CellKey
from unitselect.tables import write_cell_csv


def test_write_cell_csv_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old contents\r\n")
    savetxt = np.savetxt

    def fail_after_one_row(fh, rows, **kwargs):
        savetxt(fh, rows[:1], **kwargs)
        fh.flush()
        raise OSError("disk full")

    monkeypatch.setattr(tables.np, "savetxt", fail_after_one_row)
    with pytest.raises(OSError, match="disk full"):
        write_cell_csv(path, ["cell_id", "value"], [np.arange(3), np.array([0.5, 1.0, -2.0])])
    assert path.read_bytes() == b"old contents\r\n"
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.setattr(tables.np, "savetxt", savetxt)
    write_cell_csv(path, ["cell_id", "value"], [np.arange(3), np.array([0.5, 1.0, -2.0])])
    assert path.read_bytes() == b"cell_id,value\r\n0,0.5\r\n1,1\r\n2,-2\r\n"
    assert list(tmp_path.iterdir()) == [path]


# The row fields of each table, by the names ``benchmarks/`` reads them by.
ROW_FIELDS = {
    LabelTable: ["cell", "lower_label", "upper_label", "n_exp", "n_obs"],
    DropTable: ["cell", "reason", "n_exp", "n_obs"],
    InformerTable: ["cell", "exp", "obs", "true_f", "true_lower", "true_upper"],
    PredictionTable: ["cell_id", "pred_lower", "pred_upper", "repaired"],
}


def test_rows_are_the_columns_as_python_values(desk4):
    v = DEFAULT_BENEFIT_VECTOR
    exp_map = aggregate(generate_array(desk4, "experimental", 20_000, 1), "experimental")
    obs_map = aggregate(generate_array(desk4, "observational", 20_000, 2), "observational")
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1300)
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
                    assert type(value) is CellKey
                    assert value == CellKey.from_id(int(col[i]), table.n_observed)
                    assert all(type(b) is int for b in value.bits)
                    continue
                entries = value if col.ndim == 2 else [value]
                assert all(type(x) is python_type[col.dtype.kind] for x in entries)
                assert value == col[i : i + 1].tolist()[0]
