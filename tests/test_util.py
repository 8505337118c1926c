from tightsample.util import read_csv, write_csv


def test_write_csv_round_trips_through_read_csv(tmp_path):
    path = tmp_path / "table.csv"
    rows = [["a,b", 'say "hi"', 0.1 + 0.2],
            ["two\nlines", "", 1 / 3],
            ["plain", "-", -2.5e-17]]
    write_csv(path, ["name", "note", "value"], rows)
    read = list(read_csv(path, "table"))
    assert [row for _lineno, row in read] == [
        ["name", "note", "value"], *([a, b, str(x)] for a, b, x in rows)]
    assert [float(row[2]) for _lineno, row in read[1:]] == [x for _a, _b, x in rows]
    assert [lineno for lineno, _row in read] == [1, 2, 4, 5]   # a record's last line

