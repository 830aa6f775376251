"""Golden digests: tiny fixed runs must keep writing the same artifact bytes.

Each case trains a fixed ``run_experiment`` job and hashes every artifact it
leaves except ``timing.txt`` and the binary ``.trace`` files: records, trace
CSVs, the ``.state`` files, the final checkpoints and the store CSVs. A run
writes one ``.trace`` per eval epoch and exports only the final one as CSV,
so before hashing, the test exports every other ``.trace`` with
``write_trace_csv``; the digests, recorded when each eval epoch wrote its
CSV, thereby check the ``.trace`` files too. One more case drives the CLI end
to end and hashes what the analyses read back from the traces: every report
of the five ``analyze --what`` commands and the ``compare --out`` table. A
digest is SHA-256 over each file's relative path and bytes, in sorted path
order. A change that is meant to keep every number must keep every digest;
one that changes artifacts on purpose updates the digest here and says why
in CHANGES.md. The digests were recorded with Python 3.11.7 and numpy 2.4.6
on x86-64 OpenBLAS; another BLAS build may round matmuls differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bsdlab.cli import ANALYSES, main
from bsdlab.config import parse_config, resolved_json
from bsdlab.data import Dataset, NoiseSpec, apply_noise, make_blobs
from bsdlab.models import ModelSpec
from bsdlab.targets import StrategyConfig
from bsdlab.training import (BsdPlusConfig, TrainConfig, read_trace_csv, run_experiment,
                             write_trace_csv)

SEEDS = [1, 2]


def digest_files(root):
    """(relative path, SHA-256) of every artifact under ``root`` but ``timing.txt``
    and the ``.trace`` files, sorted by path."""
    root = Path(root)
    return [(str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timing.txt" and p.suffix != ".trace"]


def digest_tree(root):
    h = hashlib.sha256()
    root = Path(root)
    for rel, _ in digest_files(root):
        h.update(rel.encode() + b"\0" + (root / rel).read_bytes() + b"\0")
    return h.hexdigest()


def blob_data():
    train = make_blobs(3, 8, spacing=2.0, cov_scale=0.8, seed=[21, 0])
    train = apply_noise(train, NoiseSpec(kind="symmetric", rate=0.3, seed=4))
    test = make_blobs(3, 4, spacing=2.0, cov_scale=0.8, seed=[21, 1])
    return train, test


def grid_data():
    """Two classes of 6x6 grids: noise, plus a bright band across the middle rows for class 1."""
    rng = np.random.default_rng(22)
    labels = np.tile([0, 1], 8)
    samples = rng.normal(0.0, 0.3, size=(16, 6, 6, 1))
    samples[labels == 1, 2:4, :, 0] += 1.0
    train = Dataset(samples=samples[:12], clean_labels=labels[:12], labels=labels[:12], k=2)
    test = Dataset(samples=samples[12:], clean_labels=labels[12:], labels=labels[12:], k=2)
    return train, test


def grid_data_7x7x2():
    """Three classes of 7x7x2 grids: noise, plus a class-specific bright band in one channel."""
    rng = np.random.default_rng(23)
    labels = np.tile([0, 1, 2], 6)
    samples = rng.normal(0.0, 0.3, size=(18, 7, 7, 2))
    samples[labels == 1, 2:5, :, 0] += 1.0
    samples[labels == 2, :, 2:5, 1] += 1.0
    train = Dataset(samples=samples[:15], clean_labels=labels[:15], labels=labels[:15], k=3)
    test = Dataset(samples=samples[15:], clean_labels=labels[15:], labels=labels[15:], k=3)
    return train, test


def blob_job(mode, optimizer="adam", momentum=0.9, **kw):
    cfg = TrainConfig(epochs=3, batch_size=5, optimizer=optimizer, lr=0.05,
                      momentum=momentum, eval_every=2,
                      strategy=StrategyConfig(mode=mode, gamma=0.8, c=20.0), **kw)
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
    "baseline": "3407390b9c6345b6393003d4ec8c39f055c7925842236e7fd3bebc29cdaf9b1c",
    "bsd": "b93ec79aed8218deaecc21ac1e05a8bda1f51d3ce58deda23051c1b8416f29fa",
    "bsd-sgd-momentum": "df151ce680c845a5b62162272610ce884e9dd63580a9b9288a3176c1835c696e",
    "bsd-sgd-plain": "b883b4f0980b7bafccff1c58f04b78f806707d73a270519261fe0eeebb4bbace",
    "bsd_plus-tiny-conv": "e1ad8ab323e561e6f4692dd572fe50c078223e2ca852296c59a455012f4e7621",
    "bsd_plus-tiny-conv-7x7x2": "0a9e4136b8ed2bb6f05e3dba73b263b12deb1b7c37fb13d82327ea0066fdd5fd",
    "dlb": "29da449d5469bd9913498066587970108a29dfb85d6586710ee837bb679a8ab9",
    "label-smoothing": "442fff81f28c162ea07db4348ac38df5964d5db630b6c055f37258718ada7611",
    "ps-kd": "cc163114a5a2cbc234aded9bac80ade9135d7f8b0377e0a3939deb21bf4dc493",
    "te": "c2ced1fb3c3f1b138317d5cecacd5d5b5f1dc6432a869a5b71cce32e93addb94",
}


def trained_run(case, run):
    """Train ``case`` into ``run``, check its trace files, then export every eval
    epoch's ``.trace`` that has no CSV, so the tree holds what digests pin."""
    spec, (train, test), cfg = CASES[case]()
    run_experiment(spec, train, test, cfg, SEEDS, run)
    evals = [e for e in range(1, cfg.epochs + 1) if e % cfg.eval_every == 0 or e == cfg.epochs]
    for seed in SEEDS:
        trace_dir = run / "traces" / f"seed_{seed}"
        assert sorted(p.name for p in trace_dir.iterdir()) == sorted(
            [f"epoch_{e}.trace" for e in evals] + [f"epoch_{cfg.epochs}.csv"])
        final = trace_dir / f"epoch_{cfg.epochs}.csv"
        preds, labels, k = read_trace_csv(final)
        header = final.read_text().splitlines()[0].split(",")
        table = np.loadtxt(final, delimiter=",", skiprows=1, ndmin=2)
        assert k == len(header) - 2 and labels.dtype == np.int64
        np.testing.assert_array_equal(labels, table[:, 1].astype(np.int64))
        np.testing.assert_array_equal(preds.view(np.int64), table[:, 2:].copy().view(np.int64))
        for e in evals[:-1]:
            preds, labels, _ = read_trace_csv(trace_dir / f"epoch_{e}.trace")
            write_trace_csv(trace_dir / f"epoch_{e}.csv", preds, labels)
    return run


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digest(case, tmp_path):
    run = trained_run(case, tmp_path / "run")
    files = "\n".join(f"{rel} {sha}" for rel, sha in digest_files(run))
    assert digest_tree(run) == GOLDEN[case], files


# Per-file SHA-256 of the dlb and ps-kd traces and final checkpoints, recorded
# with a separate last-prediction buffer. A gamma = 0 evidence store keeps
# the last prediction bit for bit, so these files must not change; only the
# records (``mean_evidence``), the ``.state`` blocks and the store CSVs may.
# The checkpoint digests were re-recorded once, when the ``.ckpt`` header lost
# ``format_version`` and ``seed`` (magic ``BSDLAB-CKPT v2``); its blocks kept their bytes.
GOLDEN_FILES = {
    "dlb": {
        "checkpoints/seed_1_final.ckpt":
            "382f175a02d6093871e9b10872e90b7592f419342c698f738adec3644fd65b51",
        "checkpoints/seed_2_final.ckpt":
            "cf895d44558897008eac15a856531e18e62e40fc030465c7ad20fb7f7df3e283",
        "traces/seed_1/epoch_2.csv":
            "6da479961305f8c6109ddbd20f56dbda396428a7eaba0e9438bfec81f244da18",
        "traces/seed_1/epoch_3.csv":
            "871666465c07def67c6db3602d73bdd9e9a461dc8e86587da2b1a71b963cac36",
        "traces/seed_2/epoch_2.csv":
            "08bb91f15b91b673f8ea28c270ac8b28819e65cbd3ac5053745558d20a96fec1",
        "traces/seed_2/epoch_3.csv":
            "f749bc31b64b80f06f0f73e65598cd60df23d3b7309396e2497e7904ebe44626",
    },
    "ps-kd": {
        "checkpoints/seed_1_final.ckpt":
            "31d9220d33c8e3ffbdb4027ba2a7d7e56dd29a6b2c14ae099c3215f9b12f5d4c",
        "checkpoints/seed_2_final.ckpt":
            "c1d26e99154fcfae8b828b028e0c9df8f629b393ad7a715b9fd05524a3f824b3",
        "traces/seed_1/epoch_2.csv":
            "a541c7c2e09a13d40dba37901045d95eaddc80e09ed9ded96cdbe7d0d920a5ac",
        "traces/seed_1/epoch_3.csv":
            "a9713d610e882d4b172d6fad3998be5b988ca4edc1f8512df6d6d78c0de4e564",
        "traces/seed_2/epoch_2.csv":
            "20db2071f2d5d04013c9ffc95f8e4a210af6dd9436822c67d75bba32ae3b94d4",
        "traces/seed_2/epoch_3.csv":
            "18c184d82a46fac66b82886c4d10edc47204d9a87c2ae648fe67917ebcf7752d",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FILES))
def test_last_prediction_store_keeps_traces_and_checkpoints(case, tmp_path):
    got = {rel: sha for rel, sha in digest_files(trained_run(case, tmp_path / "run"))
           if rel.startswith("traces/") or rel.endswith("_final.ckpt")}
    assert got == GOLDEN_FILES[case]


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
    "reports": "e6cee6c4a84b5e42e5fd76b9000530e88c722e4c0a896db324d7809ac569205d",
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


# Resolved configs: parse_config must keep writing the same config.resolved
# bytes for the shipped configs, the empty config and configs that set every
# key to a non-default value. Dataset paths resolve to absolute paths, so the
# test directory is replaced by "/data" before hashing.
EVERY_KEY = {
    "name": "every_key",
    "dataset": {"kind": "idx", "images": "train-images.idx", "labels": "train-labels.idx",
                "test_images": "test-images.idx", "test_labels": "test-labels.idx"},
    "model": {"hidden": [7, 5], "activation": "tanh", "architecture": "tiny-conv",
              "dropout": 0.25},
    "train": {"epochs": 7, "batch_size": 9, "optimizer": "sgd", "lr": 0.125,
              "momentum": 0.5, "beta1": 0.75, "beta2": 0.875, "adam_eps": 1e-6,
              "weight_decay": 0.001, "schedule": "cosine", "tau": 0.5, "eval_every": 2,
              "strategy": {"mode": "te", "gamma": 0.5, "c": 20, "epsilon": 0.25,
                           "ls_alpha": 0.2, "pskd_alpha": 0.6, "te_momentum": 0.7},
              "bsd_plus": {"enabled": True, "lambda": 0.5, "views": 3, "weak_jitter": 0.01,
                           "strong_jitter": 0.1, "erase_frac": 0.2}},
    "noise": {"kind": "asymmetric", "rate": 0.3, "seed": 5},
    "seeds": [4, 2],
    "output_dir": "elsewhere",
}

EVERY_BLOBS_KEY = {
    "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "test_per_class": 10,
                "dim": 5, "spacing": 2, "cov_scale": 0.5, "seed": 11},
}

GOLDEN_RESOLVED = {
    "benchmark_baseline_noisy": "417a1b0aa67786666b2fbce7cf1e97696fcc5aa1bd839236b8af89dabe977bf4",
    "benchmark_bsd_noisy": "07c32cfc51a41bf68ce3831b4c07e2ed48ddac734061035108d9d9d081fa977b",
    "quickstart": "449e1a13a8e42338a85f90d0b14ce8a6be859e45b4f44b69b0797fd7b619bf05",
    "empty": "faac5fa1d0d2ed6b95732c7b921afb43f0210b48249da9010da2df26e2663401",
    "every_key": "b3a7f0440942653a7bafa047a495446a60a8f43bdfa14f46d9872fe976bb3606",
    "every_blobs_key": "7e5e6f4c643e692ccc439e7cd247a0e83da9921dfde27ce2fee6781e6eef432a",
}


def resolved_input(case, tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "configs" / f"{case}.json"
    if shipped.exists():
        return shipped
    for key in ("images", "labels", "test_images", "test_labels"):
        (tmp_path / EVERY_KEY["dataset"][key]).touch()
    raw = {"empty": {}, "every_key": EVERY_KEY, "every_blobs_key": EVERY_BLOBS_KEY}[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("case", sorted(GOLDEN_RESOLVED))
def test_resolved_config_digest(case, tmp_path):
    text = resolved_json(parse_config(resolved_input(case, tmp_path)))
    text = text.replace(str(tmp_path.resolve()), "/data")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RESOLVED[case], text
