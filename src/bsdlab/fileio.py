"""Atomic, crash-safe writers and their formats: the blocks of checkpoints, states and traces
with their one rule, ``check_header`` and ``check_blocks``; the text table; JSON for the rest."""

import json
import math
import os
from contextlib import contextmanager

import numpy as np

# Rows formatted per fh.write: large enough to amortize the write, small
# enough that no whole-file string is built.
ROWS_PER_WRITE = 256

# The longest line, newline included, that a line reader reads: the JSON header line
# of ``read_blocks`` and each row of ``training.read_records``. A longer one is refused
# before the rest of it is read, so a file with no newline is never read whole.
# Measured lines: a header lists every block, 762 B for a ``.state`` with hidden
# (32, 32), Adam and bsd and 12.2 KB with 50 of 32; a records row 204-247 B.
HEADER_MAX_BYTES = 64 << 10


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
    """Read a ``write_blocks`` file; returns (header, name -> float64 array). A file that
    does not match its magic line or its manifest, repeats a name, or has a header line
    longer than ``HEADER_MAX_BYTES`` raises ``ValueError``."""
    with open(path, "rb") as fh:
        # at most the magic and its newline: a file without one is not read whole
        found = fh.readline(len(magic) + 1).rstrip(b"\n").decode("ascii", errors="replace")
        if found != magic:
            raise ValueError(f"{path}: expected magic {magic!r}, found {found!r}")
        line = fh.readline(HEADER_MAX_BYTES + 1)
        if len(line) > HEADER_MAX_BYTES:
            raise ValueError(f"{path}: header line longer than {HEADER_MAX_BYTES} bytes")
        try:
            header = json.loads(line.decode("ascii"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            header = None
        if not isinstance(header, dict) or not isinstance(header.get("blocks"), list):
            raise ValueError(f"{path}: truncated or non-JSON header line")
        blocks = {}
        for entry in header["blocks"]:
            shape = entry.get("shape") if isinstance(entry, dict) else None
            if (not isinstance(shape, list) or not isinstance(entry.get("name"), str)
                    or not all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"{path}: manifest entry {entry!r} is not "
                                 "{name: str, shape: list of ints >= 0}")
            if entry["name"] in blocks:
                raise ValueError(f"{path}: manifest names block {entry['name']!r} twice")
            raw = read_declared(fh, math.prod(shape) * 8,
                                f"truncated file {path}: block {entry['name']!r}")
            blocks[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the last block")
    return header, blocks


def check_blocks(path, blocks, table):
    """Raise ``ValueError`` naming ``path`` and the block unless ``blocks`` (as ``read_blocks``
    returns them) are exactly those ``table`` names, each of its shape and passing its check;
    ``table`` maps a name to ``(shape, check, words)``, ``words`` saying what ``check`` wants."""
    for name in table:
        if name not in blocks:
            raise ValueError(f"{path}: missing block {name!r}")
    for name in blocks:
        if name not in table:
            raise ValueError(f"{path}: extra block {name!r}")
    for name, (shape, check, words) in table.items():
        if blocks[name].shape != shape:
            raise ValueError(f"{path}: block {name!r} has shape {blocks[name].shape}, "
                             f"not {shape}")
        if not check(blocks[name]):
            raise ValueError(f"{path}: block {name!r} does not hold {words}")


def check_header(path, header, keys):
    """Raise ``ValueError`` naming ``path`` and the key unless every key of ``header`` (as
    ``read_blocks`` returns it) is one of ``keys`` or the block manifest, ``blocks``."""
    for key in header:
        if key != "blocks" and key not in keys:
            raise ValueError(f"{path}: extra header key {key!r}")


def read_declared(fh, size, what):
    """The next ``size`` bytes of binary ``fh``, checked against the bytes left before
    any is read: a header that claims more than the file holds raises
    ``ValueError("<what>: expected <size> bytes, got <left>")``, allocating nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ValueError(f"{what}: expected {size} bytes, got {left}")
    return fh.read(size)


def write_table(path, header, columns, newline="\n"):
    """Atomically write a comma-joined header line, then one row per index of ``columns``.

    A column is a length-n sequence (one cell per row) or an (n, m) block (m
    cells per row). A number is written as its Python ``repr``, for a float
    the shortest string that parses back to the same double, so
    ``np.loadtxt`` gets the bits back; a string is written as it is unless
    it holds a comma, quote or line break, which RFC 4180 quotes. Rows
    are formatted in chunks of ``ROWS_PER_WRITE``, one ``fh.write`` per chunk.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    if width != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"{path}: columns of {[len(c) for c in columns]} rows and "
                         f"{width} cells do not fill a {len(header)}-column table")
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, n, ROWS_PER_WRITE):
            cells = [_cells(c[start:start + ROWS_PER_WRITE]) for c in columns]
            fh.write(newline.join(map(",".join, zip(*cells))) + newline)


def _cells(column):
    """One string per row: the row's cell, or its block's cells joined by commas."""
    rows = column.tolist()
    # repr equals str on numbers and is the cheaper call
    cell = _quoted if column.dtype.kind == "U" else repr
    return map(cell, rows) if column.ndim == 1 else (",".join(map(cell, r)) for r in rows)


def _quoted(text):
    """``text`` as one CSV cell: in double quotes, inner quotes doubled, when it
    holds a comma, quote or line break (RFC 4180); otherwise as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_json(path, obj):
    """Atomically write ``obj`` as JSON: sorted keys, indent 2, trailing newline."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_text(obj))


def json_text(obj):
    """The text ``write_json`` writes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def json_object(text, where):
    """``text`` parsed as a JSON object; anything else raises a ``ValueError`` naming ``where``."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, and UnicodeDecodeError on bytes
        raise ValueError(f"{where} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    return obj


def numbered_files(paths, suffix):
    """{n: path}, n ascending, for paths named ``<prefix>_<n><suffix>``, n in ASCII digits; a
    name without that form (``seed_2.bak`` for suffix ``""``), or a second name for one n
    (``epoch_03`` beside ``epoch_3``), raises."""
    files = {}
    for path in sorted(paths):
        digits = path.name.partition("_")[2].removesuffix(suffix)
        if not (digits.isascii() and digits.isdecimal()):
            raise ValueError(f"{path}: name does not end in _<digits>")
        n = int(digits)
        if n in files:
            raise ValueError(f"{path}: {files[n].name} has the same number")
        files[n] = path
    return dict(sorted(files.items()))
