"""Crash-safe file replacement, and the binary block format of checkpoints and states."""

import json
import math
import os
from contextlib import contextmanager

import numpy as np


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
        header = json.loads(fh.readline().decode("ascii"))
        blocks = {}
        for block in header["blocks"]:
            shape = tuple(block["shape"])
            raw = fh.read(math.prod(shape) * 8)
            if len(raw) != math.prod(shape) * 8:
                raise ValueError(f"truncated file {path}: block {block['name']!r}")
            blocks[block["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header, blocks
