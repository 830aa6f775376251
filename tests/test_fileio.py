import csv
import json

import numpy as np
import pytest

from bsdlab.fileio import ROWS_PER_WRITE, read_table, write_json, write_table


class Unprintable:
    def __repr__(self):
        raise RuntimeError("cell cannot be formatted")


class TestTable:
    def test_sequences_and_blocks_fill_each_row(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["name", "id", "x0", "x1", "w"],
                    [["a", "b±"], np.array([3, 4]), np.array([[0.1, 1e-05], [5e-324, 2.0]]),
                     [1e16, -0.0]], newline="\r\n")
        assert path.read_bytes() == ("name,id,x0,x1,w\r\na,3,0.1,1e-05,1e+16\r\n"
                                     "b±,4,5e-324,2.0,-0.0\r\n").encode()

    def test_string_cells_quoted_as_rfc4180(self, tmp_path):
        path = tmp_path / "t.csv"
        names = ["a,b", 'say "hi"', "two\nlines", "cr\r", "plain±"]
        write_table(path, ["name", "x"], [names, np.arange(5)])
        assert path.read_text(encoding="utf-8").splitlines(keepends=True)[1] == '"a,b",0\n'
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["name", "x"]] + [[name, str(i)] for i, name in enumerate(names)]

    @pytest.mark.parametrize("n", [0, 1, ROWS_PER_WRITE, 2 * ROWS_PER_WRITE + 3])
    def test_read_returns_written_bits(self, n, tmp_path):
        values = np.random.default_rng(n).normal(size=(n, 3)) ** 9
        path = tmp_path / "t.csv"
        write_table(path, ["i", "a", "b", "c"], [np.arange(n), values])
        header, table = read_table(path)
        assert header == ["i", "a", "b", "c"] and table.shape == (n, 4)
        np.testing.assert_array_equal(table[:, 1:].view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1.0, 2.0], [1.0]]),         # ragged columns
        (["a", "b"], [np.ones((2, 3))]),           # block wider than the header
        (["a", "b", "c"], [[1.0], [2.0]]),         # header wider than the cells
    ], ids=["rows", "block", "header"])
    def test_shape_mismatch_writes_nothing(self, tmp_path, header, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="columns"):
            write_table(path, header, columns)
        assert list(tmp_path.iterdir()) == []

    def test_row_wider_than_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_table(path)


class TestAtomicWrites:
    """A writer that raises part-way leaves the previous file whole and no temp file."""

    def test_table_writer_raising_mid_write(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["x"], [[1.0, 2.0]])
        before = path.read_bytes()
        # the first chunk is written before the bad cell is reached
        column = [0.5] * ROWS_PER_WRITE + [Unprintable()]
        with pytest.raises(RuntimeError, match="formatted"):
            write_table(path, ["x"], [column])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_json_writer_raising_mid_write(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 1, "a": [0.1, 2]})
        before = path.read_bytes()
        assert before == b'{\n  "a": [\n    0.1,\n    2\n  ],\n  "b": 1\n}\n'
        with pytest.raises(TypeError):
            write_json(path, {"a": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
        assert json.loads(before) == {"a": [0.1, 2], "b": 1}
