import numpy as np
import pytest

from reference import reference_first_seen
from tightsample.util import first_seen, read_csv, write_csv

INT64 = np.iinfo(np.int64)


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



def _first_seen_cases():
    rng = np.random.default_rng(20)
    yield "empty-1d", np.array([], dtype=np.int64)
    yield "empty-pairs", np.empty((0, 2), dtype=np.int64)
    yield "single", np.array([7], dtype=np.int64)
    yield "all-equal", np.full(9, -3, dtype=np.int64)
    yield "all-equal-pairs", np.full((4, 2), 5, dtype=np.int64)
    yield "extremes", np.array([INT64.max, 0, INT64.min, -1, INT64.max, INT64.min, 1])
    for k in range(4):
        yield f"random-1d-{k}", rng.integers(-20, 20, size=int(rng.integers(1, 60)))
        yield f"random-pairs-{k}", rng.integers(-50, 50, size=(int(rng.integers(1, 40)), 2))
        yield f"wide-{k}", rng.integers(INT64.min, INT64.max, size=(30, 2), endpoint=True)


@pytest.mark.parametrize("values", [v for _name, v in _first_seen_cases()],
                         ids=[name for name, _v in _first_seen_cases()])
def test_first_seen_is_the_dict_numbering(values):
    numbers, distinct, first = first_seen(values)
    expected = reference_first_seen(values)
    assert numbers.shape == values.shape
    for got, want in zip((numbers, distinct, first), expected):
        assert got.tolist() == want.tolist()
    assert distinct[numbers].tolist() == values.tolist()
    assert numbers.dtype == np.int64 and distinct.dtype == values.dtype
