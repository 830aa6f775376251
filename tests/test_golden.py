"""Golden digests: tiny fixed runs must keep writing the same artifact bytes.

Each case trains a fixed ``run_experiment`` job and hashes every artifact it
leaves except ``timing.txt``: records, traces, the ``.state`` files, the final
checkpoints and the store CSVs. One more case drives the CLI end to end and
hashes what the analyses read back from the traces: every report of the five
``analyze --what`` commands and the ``compare --out`` table. A digest is SHA-256 over each file's relative
path and bytes, in sorted path order. A change that is meant to keep every
number must keep every digest; one that changes artifacts on purpose updates
the digest here and says why in CHANGES.md. The digests were recorded with
Python 3.11.7 and numpy 2.4.6 on x86-64 OpenBLAS; another BLAS build may
round matmuls differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bsdlab.cli import ANALYSES, main
from bsdlab.data import Dataset, NoiseSpec, apply_noise, make_blobs
from bsdlab.models import ModelSpec
from bsdlab.targets import StrategyConfig
from bsdlab.training import BsdPlusConfig, TrainConfig, run_experiment

SEEDS = [1, 2]


def digest_files(root):
    """(relative path, SHA-256) of every artifact under ``root``, sorted by path."""
    root = Path(root)
    return [(str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "timing.txt"]


def digest_tree(root):
    h = hashlib.sha256()
    root = Path(root)
    for rel, _ in digest_files(root):
        h.update(rel.encode() + b"\0" + (root / rel).read_bytes() + b"\0")
    return h.hexdigest()


def blob_data():
    train = make_blobs(3, 8, spacing=2.0, cov_scale=0.8, seed=[21, 0])
    train = apply_noise(train, NoiseSpec(kind="symmetric", rate=0.3, seed=4))
    test = make_blobs(3, 4, spacing=2.0, cov_scale=0.8, seed=[21, 1], split="test")
    return train, test


def grid_data():
    """Two classes of 6x6 grids: noise, plus a bright band across the middle rows for class 1."""
    rng = np.random.default_rng(22)
    labels = np.tile([0, 1], 8)
    samples = rng.normal(0.0, 0.3, size=(16, 6, 6, 1))
    samples[labels == 1, 2:4, :, 0] += 1.0
    train = Dataset(samples=samples[:12], clean_labels=labels[:12], labels=labels[:12], k=2)
    test = Dataset(samples=samples[12:], clean_labels=labels[12:], labels=labels[12:], k=2,
                   split="test")
    return train, test


def grid_data_7x7x2():
    """Three classes of 7x7x2 grids: noise, plus a class-specific bright band in one channel."""
    rng = np.random.default_rng(23)
    labels = np.tile([0, 1, 2], 6)
    samples = rng.normal(0.0, 0.3, size=(18, 7, 7, 2))
    samples[labels == 1, 2:5, :, 0] += 1.0
    samples[labels == 2, :, 2:5, 1] += 1.0
    train = Dataset(samples=samples[:15], clean_labels=labels[:15], labels=labels[:15], k=3)
    test = Dataset(samples=samples[15:], clean_labels=labels[15:], labels=labels[15:], k=3,
                   split="test")
    return train, test


def blob_job(mode, optimizer="adam", momentum=0.9, **kw):
    strategy_kw = {"granularity": "mini-batch"} if mode == "dlb" else {}
    cfg = TrainConfig(epochs=3, batch_size=5, optimizer=optimizer, lr=0.05,
                      momentum=momentum, eval_every=2,
                      strategy=StrategyConfig(mode=mode, gamma=0.8, c=20.0,
                                              **strategy_kw), **kw)
    spec = ModelSpec(input_dim=2, classes=3, hidden=(5, 4), dropout=0.0)
    return spec, blob_data(), cfg


def conv_plus_job():
    cfg = TrainConfig(epochs=2, batch_size=4, optimizer="adam", lr=0.02, eval_every=1,
                      strategy=StrategyConfig(mode="bsd", gamma=0.8, c=20.0),
                      bsd_plus=BsdPlusConfig(enabled=True, lam=0.5, views=2))
    spec = ModelSpec(input_dim=36, classes=2, hidden=(4,), architecture="tiny-conv",
                     grid_shape=(6, 6, 1), dropout=0.1)
    return spec, grid_data(), cfg


def conv_plus_odd_job():
    """A 7x7x2 grid: 5x5 conv output, so the 2x2 pool drops a row and a column."""
    cfg = TrainConfig(epochs=2, batch_size=4, optimizer="adam", lr=0.02, eval_every=1,
                      strategy=StrategyConfig(mode="bsd", gamma=0.8, c=20.0),
                      bsd_plus=BsdPlusConfig(enabled=True, lam=0.5, views=2,
                                             strong_jitter=0.1, erase_frac=0.3))
    spec = ModelSpec(input_dim=98, classes=3, hidden=(5,), architecture="tiny-conv",
                     grid_shape=(7, 7, 2), dropout=0.2)
    return spec, grid_data_7x7x2(), cfg


CASES = {
    "baseline": lambda: blob_job("baseline"),
    "label-smoothing": lambda: blob_job("label-smoothing"),
    "ps-kd": lambda: blob_job("ps-kd"),
    "dlb": lambda: blob_job("dlb"),
    "te": lambda: blob_job("te"),
    "bsd": lambda: blob_job("bsd", tau=0.8, schedule="cosine"),
    "bsd-sgd-momentum": lambda: blob_job("bsd", optimizer="sgd", momentum=0.9,
                                         weight_decay=1e-3),
    "bsd-sgd-plain": lambda: blob_job("bsd", optimizer="sgd", momentum=0.0),
    "bsd_plus-tiny-conv": conv_plus_job,
    "bsd_plus-tiny-conv-7x7x2": conv_plus_odd_job,
}

GOLDEN = {
    "baseline": "2499bfb5374151b967bc9d6c49ade4e10b25038dc9dd1269208de3bc9a3c7859",
    "bsd": "bb8252ac64d8e62ddf759d610b1ab36a80fe43e14fa6e2f2d5a7ebaa964d345c",
    "bsd-sgd-momentum": "14d54a900200a48c0fa989a2cfc5334f7b3929b80fa7230017c83cd52f9e98de",
    "bsd-sgd-plain": "769cbe09ac1d95305ff36be509e2301e951e3f63b739d707688aca7e7dc4a86f",
    "bsd_plus-tiny-conv": "1d0b303787505b5ceaf96e0ada0db5cdc949f27f4df7facc9e79fd4bb74bbe7d",
    "bsd_plus-tiny-conv-7x7x2": "8d4555033d6bbc02ced4c726d0638f2c19a01a6bd31bcb8875b52418219c3f67",
    "dlb": "b1d0db581c7181fd965f5fd07a1ef34d1679db3aee52cbfd5432638f3862ad56",
    "label-smoothing": "e0c961ecb4cfdbac36db0eb16241adf03049a6b3819c9a67ff3fc4e67f800cd7",
    "ps-kd": "ce44e2bcf19823410d5e3d922f3879649ba68cbf68d0abd6cab96efbb7460a3c",
    "te": "f9feaca752559a9da1b03142a2637f1b2477b540d87d30e6106b4258447fd934",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digest(case, tmp_path):
    spec, (train, test), cfg = CASES[case]()
    run_experiment(spec, train, test, cfg, SEEDS, tmp_path / "run")
    files = "\n".join(f"{rel} {sha}" for rel, sha in digest_files(tmp_path / "run"))
    assert digest_tree(tmp_path / "run") == GOLDEN[case], files


def cli_config(path, name, data_seed, mode, output_dir):
    path.write_text(json.dumps({
        "name": name,
        "dataset": {"kind": "blobs", "classes": 3, "per_class": 12,
                    "test_per_class": 400, "spacing": 2.0, "cov_scale": 0.8,
                    "seed": data_seed},
        "model": {"hidden": [6], "dropout": 0.0},
        "train": {"epochs": 4, "batch_size": 8, "lr": 0.05, "eval_every": 1,
                  "strategy": {"mode": mode, "gamma": 0.8, "c": 20.0}},
        "seeds": SEEDS,
        "output_dir": str(output_dir),
    }))
    return path


GOLDEN_REPORTS = {
    "reports": "3789b1d7dee56922b1abebddd6d2fa1c7c02859e9a6cadac532233f928e8f12c",
    "compare.csv": "3848b427e552cc02bd0c657ff1eeb04f5fa4bcaff280de7b470116f3f3e5d9cf",
}


def test_analysis_report_digest(tmp_path):
    out = tmp_path / "runs"
    for name, data_seed, mode in (("main", 31, "bsd"), ("shifted", 32, "baseline")):
        cfg = cli_config(tmp_path / f"{name}.json", name, data_seed, mode, out)
        assert main(["train", str(cfg), "--quiet"]) == 0
    for what in ANALYSES:
        extra = ["--ood-run", str(out / "shifted")] if what == "ood" else []
        assert main(["analyze", str(out / "main"), "--what", what, *extra]) == 0
    assert main(["compare", str(out / "main"), str(out / "shifted"),
                 "--out", str(tmp_path / "compare.csv")]) == 0
    reports = out / "main" / "reports"
    files = "\n".join(f"{rel} {sha}" for rel, sha in digest_files(reports))
    got = {"reports": digest_tree(reports),
           "compare.csv": hashlib.sha256((tmp_path / "compare.csv").read_bytes()).hexdigest()}
    assert got == GOLDEN_REPORTS, files
