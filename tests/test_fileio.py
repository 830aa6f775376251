import csv
import json
import re
import struct

import numpy as np
import pytest

from bsdlab.data import write_idx
from bsdlab.fileio import ROWS_PER_WRITE, read_blocks, write_blocks, write_json, write_table

MAGIC = "BSDLAB-TEST v1"


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
        header, *rows = path.read_text().splitlines()
        table = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 4))
        assert header == "i,a,b,c" and table.shape == (n, 4)
        np.testing.assert_array_equal(table[:, 0], np.arange(n))
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


def block_file(path, entries, payload):
    """A block file with the given manifest entries and raw payload bytes."""
    header = json.dumps({"blocks": entries}).encode()
    path.write_bytes(MAGIC.encode() + b"\n" + header + b"\n" + payload)
    return path


class TestBlocks:
    def test_empty_and_scalar_blocks_round_trip(self, tmp_path):
        # a zero dimension and a shape of [] are well-formed manifest entries
        blocks = {"a": np.arange(6.0).reshape(2, 3), "empty": np.empty((0, 4)), "s": 5e-324}
        write_blocks(tmp_path / "b.bin", MAGIC, {"epoch": 2}, blocks)
        header, got = read_blocks(tmp_path / "b.bin", MAGIC)
        assert header["epoch"] == 2 and list(got) == ["a", "empty", "s"]
        for name, block in blocks.items():
            np.testing.assert_array_equal(got[name], block)
            assert got[name].shape == np.shape(block)

    @pytest.mark.parametrize("entries, payload", [
        ([{"shape": [2]}], bytes(16)),
        ([{"name": 3, "shape": [2]}], bytes(16)),
        ([{"name": "a"}], bytes(16)),
        ([{"name": "a", "shape": 2}], bytes(16)),
        ([{"name": "a", "shape": [2, -1]}], b""),
        ([{"name": "a", "shape": [2.0]}], bytes(16)),
        ([{"name": "a", "shape": [True]}], bytes(8)),
        (["a"], bytes(16)),
    ], ids=["no-name", "name-not-str", "no-shape", "shape-not-list", "negative-dim",
            "float-dim", "bool-dim", "entry-not-object"])
    def test_malformed_manifest_entry_rejected(self, tmp_path, entries, payload):
        path = block_file(tmp_path / "b.bin", entries, payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: manifest entry")):
            read_blocks(path, MAGIC)

    def test_bytes_after_last_block_rejected(self, tmp_path):
        path = block_file(tmp_path / "b.bin", [{"name": "a", "shape": [2]}], bytes(24))
        with pytest.raises(ValueError, match=re.escape(f"{path}: bytes after the last block")):
            read_blocks(path, MAGIC)


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

    def test_idx_writer_raising_mid_write(self, tmp_path):
        path = tmp_path / "x.idx"
        write_idx(path, np.arange(6).reshape(2, 3))
        before = path.read_bytes()
        # the magic and the first dimension are written before the second,
        # which does not fit IDX's 32-bit field, is reached
        with pytest.raises(struct.error):
            write_idx(path, np.zeros((0, 2 ** 32), dtype=np.uint8))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.idx"]
