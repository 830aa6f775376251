"""The benchmark's three workloads: seeded inputs, one repetition, output checks.

A workload writes its inputs (JSON configs, and IDX image files for the grid
workload) from the workload seed alone, then runs the same job again and
again. One repetition trains every arm and ends with ``analyze`` and
``compare`` through ``bsdlab.cli.main``, so every workload reports the same
end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bsdlab import cli, models, training
from bsdlab.data import write_idx

NOISE = {"kind": "symmetric", "rate": 0.4}
BSD = {"mode": "bsd", "gamma": 0.95, "c": 1000.0, "epsilon": 0.0}
BASELINE = {"mode": "baseline"}


class JobFailed(RuntimeError):
    """A training job or CLI command raised or exited non-zero."""


class CheckFailed(RuntimeError):
    """A repetition's artifacts disagree with what the benchmark expects."""


@dataclass
class Arm:
    name: str
    config_path: Path
    cfg: object       # bsdlab.config.ExperimentConfig
    spec: object      # bsdlab.models.ModelSpec
    train: object     # bsdlab.data.Dataset
    test: object

    @property
    def run_name(self):
        return self.cfg.name


@dataclass
class RepTiming:
    """One repetition's phase times (probe time excluded) and reference-speed factors."""

    train_s: float
    analyze_s: float
    train_scale: float
    analyze_scale: float
    samples: int

    @property
    def wall_s(self):
        return self.train_s + self.analyze_s

    @property
    def scaled_wall_s(self):
        return self.train_s * self.train_scale + self.analyze_s * self.analyze_scale


def digest_tree(root):
    """SHA-256 over every file under ``root`` except ``timing.txt``, by relative path."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "timing.txt":
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_trace(path):
    """(labels, probs) of a trace CSV, parsed without bsdlab's reader."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    return table[:, 1].astype(np.int64), table[:, 2:]


class Workload:
    name = ""
    arms = ()            # (reference, treatment); "bsd" is the arm final_test_acc reads
    epoch_arms = None    # arms whose epochs feed epoch_s_p50/p90; None means every arm
    epochs = 1
    train_seeds = 1

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0   # training jobs and CLI commands started
        self.clock = None    # the ProbedClock of the repetition being run
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.data_seed, self.noise_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        self.seeds = [int(v) for v in rng.integers(0, 2**31, size=self.train_seeds)]
        if self.epoch_arms is None:
            self.epoch_arms = self.arms

    # -- inputs ---------------------------------------------------------------
    def dataset_section(self, tmp):
        raise NotImplementedError

    def config(self, arm, dataset):
        raise NotImplementedError

    def write_inputs(self, tmp):
        dataset = self.dataset_section(tmp)
        paths = {}
        for arm in self.arms:
            path = tmp / f"{arm}.json"
            path.write_text(json.dumps(self.config(arm, dataset), indent=2, sort_keys=True) + "\n")
            paths[arm] = path
        return paths

    def setup(self, tmp):
        """Write the inputs, parse the configs, load the data and init the models."""
        arms = []
        for arm, path in self.write_inputs(tmp).items():
            cfg = cli.parse_config(path)
            train, test = cli.build_datasets(cfg)
            grid = train.samples.shape[1:] if train.is_grid else None
            spec = cfg.model_spec(train.d, train.k, grid_shape=grid)
            for s in cfg.seeds:
                models.init_model(replace(spec, seed=s))
            arms.append(Arm(arm, path, cfg, spec, train, test))
        return arms

    def sizes(self, arms):
        """Workload sizes, read from the set-up inputs."""
        arm = arms[0]
        train = arm.cfg.resolved["train"]
        return {"arms": [a.name for a in arms], "n_train": arm.train.n, "n_test": arm.test.n,
                "sample_shape": list(arm.train.samples.shape[1:]), "classes": arm.train.k,
                "batch": train["batch_size"], "epochs": train["epochs"],
                "eval_every": train["eval_every"], "seeds_per_arm": len(arm.cfg.seeds)}

    # -- one repetition -------------------------------------------------------
    def command(self, argv):
        """Run one ``bsdlab`` command in-process; its output is kept off stdout."""
        self.attempted += 1
        self.clock.probe()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise JobFailed(f"bsdlab {argv[0]} exited {code}: {err.getvalue().strip()}")

    def train_arms(self, arms, rep_dir):
        for arm in arms:
            self.attempted += 1
            self.clock.probe()
            try:
                training.run_experiment(arm.spec, arm.train, arm.test, arm.cfg.train_config(),
                                        arm.cfg.seeds, rep_dir / arm.run_name,
                                        config_snapshot=arm.cfg.resolved)
            except Exception as exc:
                raise JobFailed(f"training {arm.run_name} failed: {exc!r}") from exc

    def analyze(self, arms, rep_dir):
        for arm in arms:
            self.command(["analyze", rep_dir / arm.run_name, "--what", "calibration"])
        self.command(["compare", *(rep_dir / a.run_name for a in arms), "--out", rep_dir / "compare.csv"])

    def run(self, arms, rep_dir, clock):
        """Train every arm, then analyze; probes go at every job and command."""
        self.clock = clock
        p0, t0 = clock.probe(), clock.now()
        self.train_arms(arms, rep_dir)
        p1, t1 = clock.probe(), clock.now()
        self.analyze(arms, rep_dir)
        p2, t2 = clock.probe(), clock.now()
        samples = sum(a.train.n * self.epochs * len(a.cfg.seeds) for a in arms)
        return RepTiming(train_s=t1 - t0, analyze_s=t2 - t1, train_scale=clock.scale(p0, p1),
                         analyze_scale=clock.scale(p1, p2), samples=samples)

    # -- checks ---------------------------------------------------------------
    def check(self, arms, rep_dir):
        """Final test accuracy per arm and seed, each confirmed from the trace files."""
        accs = {arm.name: [self.check_seed(arm, rep_dir / arm.run_name, s) for s in arm.cfg.seeds]
                for arm in arms}
        for path in self.reports(arms, rep_dir):
            if not path.is_file():
                raise CheckFailed(f"missing report {path.relative_to(rep_dir)}")
        rows = (rep_dir / "compare.csv").read_text().splitlines()
        if len(rows) != len(arms) + 1:
            raise CheckFailed(f"compare table has {len(rows) - 1} rows, expected {len(arms)}")
        return accs

    def check_seed(self, arm, run, s):
        lines = (run / "records" / f"seed_{s}.jsonl").read_text().splitlines()
        if len(lines) != self.epochs:
            raise CheckFailed(f"{arm.run_name} seed {s}: {len(lines)} record rows")
        recorded = json.loads(lines[-1])["test_acc"]
        labels, probs = _read_trace(run / "traces" / f"seed_{s}" / f"epoch_{self.epochs}.csv")
        if not np.array_equal(labels, arm.test.labels):
            raise CheckFailed(f"{arm.run_name} seed {s}: trace labels differ from the test set")
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
            raise CheckFailed(f"{arm.run_name} seed {s}: trace rows off the simplex")
        acc = float(np.mean(probs.argmax(axis=1) == labels))
        if acc != recorded:
            raise CheckFailed(f"{arm.run_name} seed {s}: recorded accuracy {recorded} "
                              f"!= trace accuracy {acc}")
        if acc < 1.5 / arm.train.k:
            raise CheckFailed(f"{arm.run_name} seed {s}: accuracy {acc} near chance")
        if not (run / "checkpoints" / f"seed_{s}_final.ckpt").is_file():
            raise CheckFailed(f"{arm.run_name} seed {s}: no final checkpoint")
        return acc

    def reports(self, arms, rep_dir):
        return [rep_dir / a.run_name / "reports" / f"calibration_seed_{s}.json"
                for a in arms for s in a.cfg.seeds]


def _blobs_section(seed, per_class, test_per_class):
    return {"kind": "blobs", "classes": 4, "per_class": per_class,
            "test_per_class": test_per_class, "dim": 2, "spacing": 2.5,
            "cov_scale": 1.0, "seed": seed}


class BlobsB16(Workload):
    """Acceptance-grid shape: 2-D blobs, MLP 2-32-32-4, Adam, batch 16."""

    name = "blobs_b16"
    arms = ("baseline", "bsd")
    epochs = 10
    train_seeds = 1

    def dataset_section(self, tmp):
        return _blobs_section(self.data_seed, 1000, 250)

    def config(self, arm, dataset):
        return {
            "name": f"{self.name}_{arm}",
            "dataset": dataset,
            "model": {"hidden": [32, 32], "activation": "relu", "dropout": 0.0},
            "train": {"epochs": self.epochs, "batch_size": 16, "optimizer": "adam",
                      "lr": 0.03, "eval_every": 5,
                      "strategy": BSD if arm == "bsd" else BASELINE},
            "noise": dict(NOISE, seed=self.noise_seed),
            "seeds": self.seeds,
        }


# 12x12 class templates; each is invariant under the horizontal flip that
# weak augmentation applies, so augmentation never changes a class.
GRID = 12


def _templates():
    t = np.zeros((4, GRID, GRID))
    t[0, 5:7, 2:10] = 1.0                      # horizontal bar
    t[1, 2:10, 5:7] = 1.0                      # vertical bar
    t[2, 3:9, 3:9] = 1.0                       # ring
    t[2, 4:8, 4:8] = 0.0
    t[3, 4:8, 4:8] = 1.0                       # filled block
    return t


def make_grids(rng, per_class):
    """Shifted, noisy class templates as uint8 images, in shuffled order."""
    k = 4
    labels = np.repeat(np.arange(k), per_class)
    base = _templates()[labels]
    shifts = rng.integers(-1, 2, size=(labels.size, 2))
    images = np.empty_like(base)
    for i, (dy, dx) in enumerate(shifts):
        images[i] = np.roll(base[i], (dy, dx), axis=(0, 1))
    images = 0.1 + 0.8 * images + rng.normal(0.0, 0.1, size=images.shape)
    order = rng.permutation(labels.size)
    pixels = np.clip(np.rint(images[order] * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels[order].astype(np.uint8)


class GridConvPlus(Workload):
    """12x12 image grids through the tiny conv net, bsd against bsd_plus."""

    name = "grid_conv_plus"
    arms = ("bsd", "bsd_plus")
    # A bsd_plus epoch costs about three bsd epochs; pooling the two would put
    # the median in the gap between them.
    epoch_arms = ("bsd_plus",)
    epochs = 10
    train_seeds = 1

    def dataset_section(self, tmp):
        rng = np.random.default_rng(self.data_seed)
        section = {"kind": "idx"}
        for split, per_class in (("train", 500), ("test", 250)):
            images, labels = make_grids(rng, per_class)
            write_idx(tmp / f"{split}.images.idx", images)
            write_idx(tmp / f"{split}.labels.idx", labels)
            prefix = "" if split == "train" else "test_"
            section[f"{prefix}images"] = f"{split}.images.idx"
            section[f"{prefix}labels"] = f"{split}.labels.idx"
        return section

    def config(self, arm, dataset):
        return {
            "name": f"{self.name}_{arm}",
            "dataset": dataset,
            "model": {"hidden": [32], "activation": "relu", "architecture": "tiny-conv",
                      "dropout": 0.1},
            "train": {"epochs": self.epochs, "batch_size": 64, "optimizer": "adam",
                      "lr": 0.01, "eval_every": 5, "strategy": BSD,
                      "bsd_plus": {"enabled": arm == "bsd_plus", "views": 2, "lambda": 0.5,
                                   "strong_jitter": 0.1, "erase_frac": 0.2}},
            "noise": dict(NOISE, seed=self.noise_seed),
            "seeds": self.seeds,
        }


class CliTraceRoundtrip(Workload):
    """``bsdlab train`` on two configs, then every analysis and ``compare``."""

    name = "cli_trace_roundtrip"
    arms = ("baseline", "bsd")
    epochs = 5            # 30 epochs per repetition, so p90 has >= 120 samples
    train_seeds = 3
    analyses = ("calibration", "dark-knowledge", "dynamics", "flip")

    def dataset_section(self, tmp):
        return _blobs_section(self.data_seed, 250, 2500)

    def config(self, arm, dataset):
        return {
            "name": f"cli_{arm}",
            "dataset": dataset,
            "model": {"hidden": [32, 32], "activation": "relu", "dropout": 0.0},
            "train": {"epochs": self.epochs, "batch_size": 32, "optimizer": "adam",
                      "lr": 0.03, "eval_every": 1,
                      "strategy": BSD if arm == "bsd" else BASELINE},
            "noise": dict(NOISE, seed=self.noise_seed),
            "seeds": self.seeds,
            "output_dir": "runs",
        }

    def train_arms(self, arms, rep_dir):
        previous = os.environ.get(cli.OUT_ROOT_ENV)
        os.environ[cli.OUT_ROOT_ENV] = str(rep_dir)
        try:
            for arm in arms:
                self.command(["train", arm.config_path, "--quiet"])
        finally:
            if previous is None:
                del os.environ[cli.OUT_ROOT_ENV]
            else:
                os.environ[cli.OUT_ROOT_ENV] = previous

    def analyze(self, arms, rep_dir):
        reference, treatment = (rep_dir / a.run_name for a in arms)
        for what in self.analyses:
            self.command(["analyze", treatment, "--what", what])
        self.command(["analyze", treatment, "--what", "ood", "--ood-run", reference])
        self.command(["compare", treatment, reference, "--out", rep_dir / "compare.csv"])

    def reports(self, arms, rep_dir):
        run = rep_dir / arms[1].run_name / "reports"
        per_seed = [run / f"{kind}_seed_{s}.{ext}" for s in arms[1].cfg.seeds
                    for kind, ext in (("calibration", "json"), ("mu", "csv"), ("dynamics", "csv"))]
        return per_seed + [run / "flip.json", run / "ood_auroc.json"]


WORKLOADS = {w.name: w for w in (BlobsB16, GridConvPlus, CliTraceRoundtrip)}
