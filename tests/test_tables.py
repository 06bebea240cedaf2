import numpy as np
import pytest

from unitselect import tables
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
