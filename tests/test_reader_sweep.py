"""Every reader a command reaches, fed damaged copies of one small valid file.

A case cuts the file at one length, sets one of its first ``HEAD`` bytes to
one of ``VALUES``, or appends one of ``JUNK``. The reader must load the damaged
file, or refuse it with a ``ValueError`` or ``OSError`` whose message names
the file; ``parse_config`` may also refuse with a ``ConfigError`` naming the
key. Warnings are errors, so a numpy cast or overflow warning fails a case too.
``NAMED`` holds the reader defects found one at a time, each as the damaged
file that showed it.
"""

import io
import json
import math
import re
import tracemalloc
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from bsdlab.cli import build_datasets, cmd_compare, main
from bsdlab.config import ConfigError, parse_config
from bsdlab.data import load_csv, load_idx, write_idx
from bsdlab.fileio import numbered_files
from bsdlab.models import init_model, load_checkpoint
from bsdlab.numerics import OptimizerState
from bsdlab.targets import TargetStrategy
from bsdlab.training import (TRACE_MAGIC, _load_train_state, read_records, read_trace_csv,
                             run_layout)

HEAD = 512
VALUES = (b"\x00", b"\xff", b"0", b"9", b"-", b'"')
JUNK = (b"\n", b"\x00", b"junk\n", b"{}\n", bytes(8))


@dataclass
class Reader:
    source: bytes  # the valid file
    path: Path  # where each damaged copy is written
    read: Callable  # reads ``path``; returns on a load, raises on a refusal
    named: str  # what a refusal's message must hold
    refusals: tuple = (ValueError, OSError)  # a refusal of any other type is a failure


def block_file(blocks, magic=TRACE_MAGIC, header=None):
    """The bytes ``write_blocks`` writes, a ``.trace`` unless ``magic`` says otherwise,
    from (name, array) pairs that may name a block twice."""
    header = dict(header or {},
                  blocks=[{"name": name, "shape": list(b.shape)} for name, b in blocks])
    return b"".join([magic.encode() + b"\n", json.dumps(header).encode() + b"\n",
                     *(np.ascontiguousarray(b, dtype="<f8").tobytes() for _, b in blocks)])


def split_blocks(raw):
    """(magic, header without its manifest, (name, array) pairs) of a block file's bytes."""
    magic, line, data = raw.split(b"\n", 2)
    header = json.loads(line)
    pairs, start = [], 0
    for entry in header.pop("blocks"):
        size = 8 * math.prod(entry["shape"])
        block = np.frombuffer(data[start:start + size], "<f8").reshape(entry["shape"])
        pairs.append((entry["name"], block))
        start += size
    return magic.decode(), header, pairs


def compare(run):
    """``bsdlab compare run run`` without ``main``'s handler, which turns a ``ValueError``
    or ``OSError`` into one ``error:`` line and lets any other exception through."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cmd_compare(Namespace(run_dirs=[run, run], out=None)) == 0


def numbered_names(listing, parent):
    """``numbered_files`` over the names in ``listing`` (one a line); a name it accepts
    must end in ``_<n>`` with n in ASCII digits."""
    names = listing.read_bytes().decode("utf-8", "surrogateescape").split("\n")
    files = numbered_files((parent / name for name in names if name), ".trace")
    for n, path in files.items():
        digits = path.stem.partition("_")[2]
        assert digits.isascii() and digits.isdecimal() and int(digits) == n, (n, path)


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    config = tmp / "exp.json"
    config.write_text(json.dumps({
        "name": "tiny", "output_dir": str(tmp / "runs"), "seeds": [1],
        "dataset": {"kind": "blobs", "classes": 3, "per_class": 4, "test_per_class": 2,
                    "seed": 3},
        "model": {"hidden": [4], "dropout": 0.0},
        "train": {"epochs": 2, "batch_size": 4, "eval_every": 1,
                  "strategy": {"mode": "bsd", "gamma": 0.9, "c": 50.0}}}))
    assert main(["train", str(config), "--quiet"]) == 0
    layout = run_layout(tmp / "runs" / "tiny")
    cfg = parse_config(config)
    train_set, _ = build_datasets(cfg)
    spec, train_cfg = cfg.model_spec(train_set.d, train_set.k), cfg.train_config()

    model = init_model(spec)

    def load_state(path):
        # a fresh store each time: the loader derives the mass from the store's first one
        strategy = TargetStrategy(train_cfg.strategy, train_set.labels, train_set.k,
                                  train_cfg.epochs)
        _load_train_state(path, model, OptimizerState(train_cfg), strategy)

    def load_records(path):
        with open(path, "rb") as fh:
            read_records(fh)

    images, labels = tmp / "images.idx", tmp / "labels.idx"
    write_idx(images, np.arange(48).reshape(3, 4, 4))
    write_idx(labels, np.array([0, 1, 2]))
    damaged = tmp / "damaged"
    damaged.mkdir()
    for name in ("epoch_2.trace", "seed_1.state", "final.ckpt", "images.idx", "labels.idx",
                 "train.csv", "seed_1.jsonl", "listing.txt", "exp.json"):
        (damaged / name).touch()
    trace_dir = layout["traces"] / "seed_1"
    listing = "".join(f"{p.name}\n" for p in sorted(trace_dir.glob("epoch_*.trace"))).encode()
    return {
        "trace": Reader(
            (trace_dir / "epoch_2.trace").read_bytes(), damaged / "epoch_2.trace",
            read_trace_csv, str(damaged / "epoch_2.trace")),
        "state": Reader(
            (layout["checkpoints"] / "seed_1.state").read_bytes(), damaged / "seed_1.state",
            load_state, str(damaged / "seed_1.state")),
        "ckpt": Reader(
            (layout["checkpoints"] / "seed_1_final.ckpt").read_bytes(), damaged / "final.ckpt",
            load_checkpoint, str(damaged / "final.ckpt")),
        "idx-images": Reader(
            images.read_bytes(), damaged / "images.idx",
            lambda path: load_idx(path, labels), str(damaged / "images.idx")),
        "idx-labels": Reader(
            labels.read_bytes(), damaged / "labels.idx",
            lambda path: load_idx(images, path), str(damaged / "labels.idx")),
        "csv": Reader(
            b"x0,x1,label\n0.5,-1.25,0\n1e-3,2,1\n3.5,0,2\n", damaged / "train.csv",
            load_csv, str(damaged / "train.csv")),
        "records": Reader(
            (layout["records"] / "seed_1.jsonl").read_bytes(), damaged / "seed_1.jsonl",
            load_records, str(damaged / "seed_1.jsonl")),
        "names": Reader(
            listing, damaged / "listing.txt",
            lambda path: numbered_names(path, trace_dir), f"{trace_dir}/"),
        "config": Reader(
            config.read_bytes(), damaged / "exp.json", parse_config, str(damaged / "exp.json"),
            (ConfigError, ValueError, OSError)),
        "config.resolved": Reader(
            layout["config"].read_bytes(), layout["config"],
            lambda path: compare(path.parent), str(layout["config"])),
    }


def damaged_copies(source):
    """(case name, bytes): every truncation, each of the first ``HEAD`` bytes set to
    each of ``VALUES``, and each ``JUNK`` appended."""
    for length in range(len(source)):
        yield f"cut at {length}", source[:length]
    for at in range(min(HEAD, len(source))):
        for value in VALUES:
            if source[at:at + 1] != value:
                yield f"byte {at} set to {value!r}", source[:at] + value + source[at + 1:]
    for junk in JUNK:
        yield f"{junk!r} appended", source + junk


def rewrite(path, raw):
    with open(path, "r+b") as fh:  # in place: a truncate to 0 and rewrite can flush
        fh.write(raw)
        fh.truncate()


def outcome(reader, raw):
    """None if the reader loads ``raw`` or refuses it as it should; otherwise what went wrong."""
    rewrite(reader.path, raw)
    try:
        reader.read(reader.path)
    except reader.refusals as exc:
        if reader.named in str(exc) or isinstance(exc, ConfigError):
            return None
        return f"{type(exc).__name__} not naming the file: {exc}"
    except Exception as exc:  # noqa: BLE001 - every other type is the failure reported
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["trace", "state", "ckpt", "idx-images", "idx-labels", "csv",
                                  "records", "names", "config", "config.resolved"])
def test_reader_loads_or_names_the_file(readers, name):
    reader = readers[name]
    failures = [(case, what) for case, raw in damaged_copies(reader.source)
                if (what := outcome(reader, raw)) is not None]
    assert not failures, f"{len(failures)} failing cases, first: {failures[:5]}"
    rewrite(reader.path, reader.source)
    reader.read(reader.path)  # the valid file loads


P = np.full((2, 3), 1 / 3)


def probs_row(row):
    """A ``.trace`` of two samples whose second ``probs`` row is ``row``."""
    return block_file([("labels", np.array([0.0, 1.0])), ("probs", np.array([P[0], row]))])


def block_set(name, index, value):
    """An edit of a block file's bytes that sets entry ``index`` of block ``name``."""
    def edit(raw):
        start = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # after the header line
        for entry in json.loads(raw[raw.index(b"\n") + 1:start])["blocks"]:
            size = 8 * math.prod(entry["shape"])
            if entry["name"] == name:
                block = np.frombuffer(raw[start:start + size], "<f8").reshape(entry["shape"])
                block = block.copy()
                block[index] = value
                return raw[:start] + block.tobytes() + raw[start + size:]
            start += size
        raise KeyError(name)
    return edit


def metric_set(text):
    """An edit of a records file's bytes that sets line 1's ``test_acc`` to ``text``."""
    return lambda raw: re.sub(rb'"test_acc": [^,}]+', b'"test_acc": ' + text, raw, count=1)


# a file of this many bytes with no newline; no refusal may read it whole or quote it
JUNK_BYTES = 4 << 20

OFF_SIMPLEX = "does not hold rows of finite entries >= 0 summing to 1 within 1e-06"
# the valid ``.state``'s mass: c = 50 and gamma = 0.9 after its 2 epochs
MASS = 0.9 * (0.9 * 50.0 + 1.0) + 1.0


def carried(block=None, **keys):
    """An edit of a block file's bytes that adds the header ``keys`` and, if given, the
    (name, array) ``block``: what its writer once wrote and its epoch now fixes."""
    def edit(raw):
        magic, header, pairs = split_blocks(raw)
        return block_file(pairs + ([block] if block else []), magic, dict(header, **keys))
    return edit


def state_masses(index, value):
    """A carried ``strategy/A`` block of the valid ``.state``'s 12 masses, entry ``index``
    set to ``value``."""
    masses = np.full(12, MASS)
    masses[index] = value
    return carried(("strategy/A", masses))


# (reader, edit of the valid file's bytes, message); each case was accepted, or
# escaped as another exception type, before its check was added
NAMED = {
    "trace-block-twice": ("trace", lambda raw: block_file(
        [("labels", np.zeros(2)), ("probs", P), ("probs", np.eye(3)[:2])]),
        "manifest names block 'probs' twice"),
    "trace-nan-row": ("trace", lambda raw: probs_row([np.nan] * 3),
                      f"block 'probs' {OFF_SIMPLEX}"),
    "trace-negative-entry": ("trace", lambda raw: probs_row([2.0, -1.0, 0.0]),
                             f"block 'probs' {OFF_SIMPLEX}"),
    "trace-extra-block": ("trace", lambda raw: block_file(
        [("labels", np.zeros(2)), ("probs", P), ("junk", np.array([np.nan]))]),
        "extra block 'junk'"),
    "state-y-off-simplex": ("state", block_set("strategy/y", 0, [2.0, -1.0, 0.0]),
                            f"block 'strategy/y' {OFF_SIMPLEX}"),
    "state-y-nan-row": ("state", block_set("strategy/y", 0, np.nan),
                        f"block 'strategy/y' {OFF_SIMPLEX}"),
    "state-A-negative": ("state", state_masses(0, -1.0), "extra block 'strategy/A'"),
    "state-A-one-ulp-up": ("state", state_masses(5, np.nextafter(MASS, np.inf)),
                           "extra block 'strategy/A'"),
    "state-A-one-epoch-early": ("state", state_masses(slice(None), 0.9 * 50.0 + 1.0),
                                "extra block 'strategy/A'"),
    "state-opt-step-zero": ("state", carried(opt_step=0), "extra header key 'opt_step'"),
    "state-param-inf": ("state", block_set("param/w0", (0, 0), np.inf),
                        "block 'param/w0' does not hold finite values"),
    "state-moment-nan": ("state", block_set("opt/v/b1", 0, np.nan),
                         "block 'opt/v/b1' does not hold finite values"),
    "ckpt-param-nan": ("ckpt", block_set("w0", (0, 0), np.nan),
                       "block 'w0' does not hold finite values"),
    "records-metric-true": ("records", metric_set(b"true"),
                            "line 1 has test_acc true, not a float or null"),
    "records-metric-string": ("records", metric_set(b'"x"'),
                              'line 1 has test_acc "x", not a float or null'),
    "epoch-arabic-indic-digit": ("names", lambda raw: raw + "epoch_٣.trace\n".encode(),
                                 "epoch_٣.trace: name does not end in _<digits>"),
    "epoch-true": ("records", lambda raw: raw.replace(b'"epoch": 1,', b'"epoch": true,'),
                   "line 1 is not a complete row for epoch 1"),
    "epoch-float": ("records", lambda raw: raw.replace(b'"epoch": 2,', b'"epoch": 2.0,'),
                    "line 2 is not a complete row for epoch 2"),
    "records-not-utf8": ("records", lambda raw: raw.replace(b'"epoch"', b'"\xffepoch"', 1),
                         "line 1 is not JSON: "),
    "resolved-name-int": ("config.resolved",
                          lambda raw: raw.replace(b'"name": "tiny"', b'"name": 3'),
                          "not a resolved run config"),
    "resolved-classes-list": ("config.resolved",
                              lambda raw: raw.replace(b'"classes": 3', b'"classes": [3]'),
                              "not a resolved run config"),
    "resolved-not-utf8": ("config.resolved", lambda raw: raw.replace(b"tiny", b"tiny\xff"),
                          "the run config is not JSON: "),
    "config-not-utf8": ("config", lambda raw: raw.replace(b"tiny", b"tiny\xff"),
                        "not valid JSON"),
    "csv-not-utf8": ("csv", lambda raw: raw.replace(b"0.5", b"0.\xff"),
                     "CSV row 2, column 'x0': '0.\ufffd' is not a number"),
    "csv-label-beyond-int64": ("csv", lambda raw: raw.replace(b",0\n", b",%d\n" % 2 ** 64),
                               f"column 'label': '{2 ** 64}' is not an integer label"),
    "trace-no-newline": ("trace", lambda raw: b"x" * JUNK_BYTES,
                         "expected magic 'BSDLAB-TRACE v1', found 'xxxxxxxxxxxxxxxx'"),
    "trace-header-no-newline": ("trace", lambda raw: TRACE_MAGIC.encode() + b"\n"
                                + b"x" * JUNK_BYTES, "header line longer than 65536 bytes"),
    "records-no-newline": ("records", lambda raw: raw + b"x" * JUNK_BYTES,
                           "line 3 is longer than 65536 bytes"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", NAMED)
def test_named_defect_refused(readers, case):
    name, edit, message = NAMED[case]
    reader = readers[name]
    raw = edit(reader.source)
    assert raw != reader.source
    reader.path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(reader.refusals) as info:
            reader.read(reader.path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reader.named in str(info.value) and message in str(info.value)
    assert len(str(info.value)) < len(reader.named) + 200
    assert peak < JUNK_BYTES // 4


# the block of each block-file reader that the rule cases damage, and a value its check refuses
RULE_BLOCKS = {"trace": ("labels", 3.0), "state": ("strategy/y", -1.0), "ckpt": ("b1", np.nan)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("defect", ["missing", "extra", "shape", "value"])
@pytest.mark.parametrize("name", RULE_BLOCKS)
def test_block_rule_refused_in_one_form(readers, name, defect):
    """Each block-file reader refuses a break of ``fileio.check_blocks``' rule with the
    same message, naming the file and the block."""
    reader, (target, bad) = readers[name], RULE_BLOCKS[name]
    magic, header, pairs = split_blocks(reader.source)
    block = dict(pairs)[target]
    if defect == "missing":
        pairs, message = [(n, b) for n, b in pairs if n != target], f"missing block '{target}'"
    elif defect == "extra":
        pairs, message = pairs + [("junk", np.zeros(1))], "extra block 'junk'"
    else:
        if defect == "shape":
            damaged = np.concatenate([block, block[:1]])
            message = f"block '{target}' has shape {damaged.shape}, not {block.shape}"
        else:
            damaged = block.copy()
            damaged.flat[0] = bad
            message = f"block '{target}' does not hold "
        pairs = [(n, damaged if n == target else b) for n, b in pairs]
    reader.path.write_bytes(block_file(pairs, magic, header))
    with pytest.raises(ValueError) as info:
        reader.read(reader.path)
    assert str(info.value).startswith(f"{reader.named}: {message}")
