import pytest

from ruincapital.errors import DomainError
from ruincapital.table import CurveTable


def make_table():
    t = CurveTable(columns=["c", "cap"], metadata={"alpha": 0.05, "note": "x"})
    t.append([0.5, 12.25])
    t.append([1.0, None])
    t.append([1.5, 0.0])
    return t


def test_append_and_len():
    t = make_table()
    assert len(t) == 3
    assert t.column("c") == [0.5, 1.0, 1.5]
    assert t.column("cap") == [12.25, None, 0.0]


def test_width_validation():
    t = make_table()
    with pytest.raises(DomainError):
        t.append([1.0])


def test_text_round_trip_preserves_values_and_metadata():
    t = make_table()
    text = t.to_text()
    # metadata comes first as sorted '#' comment lines
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert "alpha" in lines[0]
    back = CurveTable.from_text(text)
    assert back.columns == t.columns
    assert back.rows == t.rows
    assert back.metadata["alpha"] == 0.05
    assert back.metadata["note"] == "x"


def test_na_cells_round_trip():
    t = make_table()
    back = CurveTable.from_text(t.to_text())
    assert back.rows[1][1] is None


def test_repr_float_cells_are_lossless():
    t = CurveTable(columns=["x"], metadata={})
    v = 0.1 + 0.2
    t.append([v])
    back = CurveTable.from_text(t.to_text())
    assert back.rows[0][0] == v


def test_csv_file_round_trip(tmp_path):
    t = make_table()
    path = tmp_path / "curve.csv"
    t.write_csv(path)
    back = CurveTable.read_csv(path)
    assert back.rows == t.rows
    assert back.metadata == t.metadata


def test_from_columns_keeps_dict_order_and_metadata():
    meta = {"alpha": 0.05}
    t = CurveTable.from_columns({"c": [0.5, 1.0], "cap": [12.25, None], "a": [1.0, 2.0]}, meta)
    assert t.columns == ["c", "cap", "a"]
    assert t.rows == [[0.5, 12.25, 1.0], [1.0, None, 2.0]]
    assert t.metadata == meta
    back = CurveTable.from_text(t.to_text())
    assert (back.columns, back.rows, back.metadata) == (t.columns, t.rows, t.metadata)
    assert CurveTable.from_columns({"x": []}).metadata == {}


def test_from_columns_rejects_unequal_lengths():
    # zip would silently drop the last row
    with pytest.raises(DomainError, match="unequal lengths"):
        CurveTable.from_columns({"c": [0.5, 1.0], "cap": [12.25]})
