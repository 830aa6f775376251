"""Crash-safe file replacement, the binary block format of checkpoints and states,
and the float-table CSV writer of traces and store snapshots."""

import json
import math
import os
from contextlib import contextmanager

import numpy as np

# Rows formatted per fh.write: large enough to amortize the write, small
# enough that no whole-file string is built.
ROWS_PER_WRITE = 256


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Write to ``<path>.tmp``, then rename it over ``path``: a writer that raises
    or crashes leaves the old ``path`` intact (no fsync: not power-loss safe)."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_blocks(path, magic, header, blocks):
    """Atomically write a magic line, a JSON header with the block manifest,
    then each block as little-endian f64 bytes; ``read_blocks`` is bit-exact."""
    header = dict(header, blocks=[{"name": n, "shape": list(np.shape(b))}
                                  for n, b in blocks.items()])
    with atomic_open(path) as fh:
        fh.write(magic.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for block in blocks.values():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_blocks(path, magic):
    """Read a ``write_blocks`` file; returns (header, name -> float64 array)."""
    with open(path, "rb") as fh:
        found = fh.readline().rstrip(b"\n").decode("ascii", errors="replace")
        if found != magic:
            raise ValueError(f"{path}: expected magic {magic!r}, found {found!r}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            header = None
        if not isinstance(header, dict) or not isinstance(header.get("blocks"), list):
            raise ValueError(f"{path}: truncated or non-JSON header line")
        blocks = {}
        for block in header["blocks"]:
            shape = tuple(block["shape"])
            raw = fh.read(math.prod(shape) * 8)
            if len(raw) != math.prod(shape) * 8:
                raise ValueError(f"truncated file {path}: block {block['name']!r}")
            blocks[block["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header, blocks


def write_float_table(fh, header, values, labels=None, newline="\n"):
    """Write a header line, then row i as ``i[,labels[i]],repr(v) for v in values[i]``.

    ``repr`` is the shortest string that parses back to the same double, so
    the table reads back bit for bit. Rows are formatted in chunks of
    ``ROWS_PER_WRITE``, one ``fh.write`` per chunk.
    """
    values = np.asarray(values, dtype=np.float64)
    if labels is not None and len(labels) != values.shape[0]:
        raise ValueError(f"{len(labels)} labels for {values.shape[0]} rows")
    fh.write(",".join(header) + newline)
    for start in range(0, values.shape[0], ROWS_PER_WRITE):
        rows = values[start:start + ROWS_PER_WRITE].tolist()
        ids = range(start, start + len(rows))
        if labels is None:
            lines = (f"{i},{','.join(map(repr, row))}{newline}" for i, row in zip(ids, rows))
        else:
            tags = np.asarray(labels[start:start + len(rows)]).astype(np.int64).tolist()
            lines = (f"{i},{tag},{','.join(map(repr, row))}{newline}"
                     for i, tag, row in zip(ids, tags, rows))
        fh.write("".join(lines))
