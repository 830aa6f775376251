"""Shared fixtures: the desk-scale benchmark used by the acceptance suite.

Four class clusters on a ring with moderate overlap, an MLP [2->32->32->4],
100 epochs of Adam, and the reference target hyperparameters. Training all
twenty runs (baseline/bsd x clean/40%-symmetric-noise x 5 seeds) takes a few
minutes, so the fixture is session-scoped and shared by every criterion that
reads it.
"""

import time
from pathlib import Path

import pytest

from bsdlab.data import NoiseSpec, apply_noise, make_blobs
from bsdlab.models import ModelSpec
from bsdlab.targets import StrategyConfig
from bsdlab.training import TrainConfig, run_experiment

BENCH_SEEDS = [1, 2, 3, 4, 5]
BENCH_SPACING = 2.5
BENCH_COV = 1.0
BENCH_DATA_SEED = 99
BENCH_NOISE = NoiseSpec(kind="symmetric", rate=0.4, seed=7)


def benchmark_datasets(noisy):
    train = make_blobs(4, 1000, 2, BENCH_SPACING, BENCH_COV,
                       seed=[BENCH_DATA_SEED, 0])
    test = make_blobs(4, 250, 2, BENCH_SPACING, BENCH_COV,
                      seed=[BENCH_DATA_SEED, 1])
    if noisy:
        train = apply_noise(train, BENCH_NOISE)
    return train, test


def benchmark_train_config(mode):
    return TrainConfig(
        epochs=100, batch_size=16, optimizer="adam", lr=0.03,
        schedule="constant", tau=1.0, eval_every=5,
        strategy=StrategyConfig(mode=mode, gamma=0.95, c=1000.0, epsilon=0.0),
    )


def benchmark_model_spec():
    return ModelSpec(input_dim=2, classes=4, hidden=(32, 32), dropout=0.0)


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Train the full benchmark grid once; returns run dirs, records, timings."""
    root = tmp_path_factory.mktemp("benchmark")
    out = {}
    for noisy in (True, False):
        train, test = benchmark_datasets(noisy)
        for mode in ("baseline", "bsd"):
            key = f"{mode}_{'noisy' if noisy else 'clean'}"
            run_dir = root / key
            t0 = time.perf_counter()
            records = run_experiment(benchmark_model_spec(), train, test,
                                     benchmark_train_config(mode), BENCH_SEEDS,
                                     run_dir)
            out[key] = {
                "dir": Path(run_dir),
                "records": records,
                "seconds": time.perf_counter() - t0,
            }
    return out
