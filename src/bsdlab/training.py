"""Training loop, loss assembly, schedules, and experiment orchestration.

One epoch follows the in-place recursion exactly: for each mini-batch,
forward, loss against the currently stored targets (sharpened by tau),
gradient step, then fold the batch predictions back into the target state.
Targets consumed by a batch are always the pre-update values; predictions fed
to the state are the same forward outputs used for the loss, captured before
the optimizer step, with no gradient connection.

Every random draw flows from named integer streams derived from
(run seed, epoch, stream tag), so runs are bit-reproducible and resuming from
a saved state at an epoch boundary replays the identical remainder.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict, replace as dc_replace
from pathlib import Path

import numpy as np

from . import analysis
from .data import Dataset, augment_strong, augment_weak
from .fileio import read_blocks, write_blocks, write_float_table
from .models import Model, backward, forward, init_model, save_checkpoint
from .numerics import (PROB_FLOOR, _class_reduce, adam_state, entropy, kl_div,
                       optimizer_step, sgd_state, soft_cross_entropy)
from .targets import StrategyConfig, TargetStrategy, sharpen

RECORD_SCHEMA_VERSION = 1
STATE_MAGIC = "BSDLAB-STATE v1"

# rng stream tags
_SHUFFLE, _DROPOUT, _WEAK, _STRONG_BASE = 0, 1, 2, 3

__all__ = [
    "BsdPlusConfig",
    "TrainConfig",
    "RunRecord",
    "TrainingDiverged",
    "lr_at",
    "train_epoch",
    "contrastive_term",
    "evaluate",
    "run_experiment",
    "run_layout",
]


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class BsdPlusConfig:
    enabled: bool = False
    lam: float = 2.0          # contrastive weight
    views: int = 2            # strong views per sample
    weak_jitter: float = 0.05
    strong_jitter: float = 0.2
    erase_frac: float = 0.3

    def __post_init__(self):
        if self.enabled and self.views < 1:
            raise ValueError("bsd_plus needs at least one strong view")
        if self.lam < 0.0:
            raise ValueError("contrastive weight must be >= 0")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    optimizer: str = "adam"   # "adam" | "sgd"
    lr: float = 0.01
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    schedule: str = "constant"  # "constant" | "cosine"
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    tau: float = 1.0
    bsd_plus: BsdPlusConfig = field(default_factory=BsdPlusConfig)
    eval_every: int = 5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0 (1 disables sharpening)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


# per-seed wall-clock phases reported in timing.txt
PHASES = ("train_epoch", "evaluate", "trace_write", "state_write")


@dataclass
class RunRecord:
    seed: int
    config: dict
    rows: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))

    @contextmanager
    def timed(self, phase):
        """Add the wall-clock seconds of the ``with`` body to ``phase_s[phase]``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[phase] += time.perf_counter() - t0

    def timing_line(self):
        phases = ", ".join(f"{name} {secs:.3f} s" for name, secs in self.phase_s.items())
        return f"seed {self.seed}: {self.wall_clock_s:.3f} s ({phases})\n"


def lr_at(schedule, base_lr, epoch, total_epochs):
    """Learning rate for a 0-based epoch index."""
    if schedule == "constant":
        return base_lr
    return base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return sgd_state(cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return adam_state(cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps,
                      weight_decay=cfg.weight_decay)


def _epoch_rng(seed, epoch, tag):
    return np.random.default_rng([seed, epoch, tag])


def _kl_logit_grad(strong_probs, anchor_probs, floor=PROB_FLOOR):
    """d KL(p, q) / d logits(p) for constant q: p * (ln p - ln q - KL(p, q))."""
    lp = np.log(np.maximum(strong_probs, floor))
    lq = np.log(np.maximum(anchor_probs, floor))
    diff = lp - lq
    row_kl = _class_reduce(np.add, strong_probs * diff, keepdims=True)
    return strong_probs * (diff - row_kl)


def contrastive_term(model: Model, strong_views, anchor_probs, lam, rng, grad_flat, loss=0.0):
    """Consistency loss (lam / (m * n)) * sum_j sum_i KL(f(view_j)_i, anchor_i).

    ``strong_views`` holds m batches of the n samples whose anchor
    probabilities (constants) are ``anchor_probs``. Each view's parameter
    gradient is added into ``grad_flat``, laid out like ``model.flat``.
    Returns ``loss`` plus each view's term, added view by view. The model runs
    in its current mode; ``rng`` drives train-mode dropout.
    """
    m = len(strong_views)
    if m == 0:
        raise ValueError("need at least one strong view")
    scale = lam / (m * anchor_probs.shape[0])
    view_flat = np.empty_like(model.flat)
    view_grads = model.views(view_flat)
    for view in strong_views:
        probs, cache = forward(model, view, rng)
        loss += float(scale * kl_div(probs, anchor_probs).sum())
        backward(model, cache, scale * _kl_logit_grad(probs, anchor_probs), out=view_grads)
        grad_flat += view_flat
    return loss


def _augmented_views(samples, cfg: TrainConfig, seed, epoch):
    """Weak view plus m strong views for a batch; identity when bsd_plus is off."""
    plus = cfg.bsd_plus
    if not plus.enabled:
        return samples, []
    weak = augment_weak(samples, _epoch_rng(seed, epoch, _WEAK), jitter_sigma=plus.weak_jitter)
    strong = [
        augment_strong(samples, _epoch_rng(seed, epoch, _STRONG_BASE + j),
                       jitter_sigma=plus.strong_jitter, erase_frac=plus.erase_frac)
        for j in range(plus.views)
    ]
    return weak, strong


def train_epoch(model: Model, dataset: Dataset, strategy: TargetStrategy,
                opt_state, cfg: TrainConfig, epoch, seed):
    """Run one epoch (1-based ``epoch``); returns epoch metrics."""
    if strategy.labels.shape[0] != dataset.n:
        raise ValueError("target state and dataset sizes are misaligned")
    n, k = dataset.n, dataset.k
    model.train()
    lr = lr_at(cfg.schedule, cfg.lr, epoch - 1, cfg.epochs)
    perm = _epoch_rng(seed, epoch, _SHUFFLE).permutation(n)
    dropout_rng = _epoch_rng(seed, epoch, _DROPOUT)
    # gradient buffer laid out like model.flat; strong views add theirs in
    grad_flat = np.empty_like(model.flat)
    grads = model.views(grad_flat)
    loss_sum = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = perm[start:start + cfg.batch_size]
        bsz = idx.shape[0]
        raw = dataset.samples[idx]
        weak, strong_views = _augmented_views(raw, cfg, seed, epoch)

        try:
            probs, cache = forward(model, weak, dropout_rng)
        except ValueError as exc:
            if "non-finite" in str(exc):
                raise TrainingDiverged(
                    f"non-finite activations at epoch {epoch}, batch starting {start} "
                    f"(seed {seed}): {exc}") from exc
            raise
        targets = strategy.targets(idx, epoch)
        sharp = sharpen(targets, cfg.tau)
        batch_loss = float(soft_cross_entropy(sharp, probs).sum() / (bsz * k))
        dlogits = (probs - sharp) / (bsz * k)
        backward(model, cache, dlogits, out=grads)

        if strong_views:
            batch_loss = contrastive_term(model, strong_views, probs, cfg.bsd_plus.lam,
                                          dropout_rng, grad_flat, batch_loss)

        if not np.isfinite(batch_loss):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}, batch starting {start} (seed {seed})")
        try:
            optimizer_step(model.flat, grad_flat, opt_state, lr=lr)
        except ValueError as exc:  # grad_flat matches model.flat, so only a non-finite entry
            bad = next(name for name, g in grads.items() if not np.isfinite(g).all())
            raise TrainingDiverged(
                f"non-finite gradient in block {bad!r} at epoch {epoch}, batch starting "
                f"{start} (seed {seed})") from exc
        strategy.update(idx, probs)
        loss_sum += batch_loss * bsz

    target_entropy = float(np.mean(entropy(strategy.current_targets(epoch))))
    return {
        "epoch": epoch,
        "lr": float(lr),
        "train_loss": loss_sum / n,
        "mean_target_entropy": target_entropy,
        "mean_evidence": strategy.mean_evidence(),
    }


def evaluate(model: Model, dataset: Dataset):
    """Eval-mode predictions plus accuracy/ECE/NLL on the active labels."""
    mode = model.mode
    model.eval()
    preds, _ = forward(model, dataset.samples)
    model.mode = mode
    return {
        "preds": preds,
        "acc": analysis.accuracy(preds, dataset.labels),
        "ece": analysis.ece(preds, dataset.labels),
        "nll": analysis.nll(preds, dataset.labels),
    }


# ---------------------------------------------------------------------------
# Persistence

def run_layout(run_dir):
    run_dir = Path(run_dir)
    return {
        "root": run_dir,
        "config": run_dir / "config.resolved",
        "records": run_dir / "records",
        "checkpoints": run_dir / "checkpoints",
        "traces": run_dir / "traces",
        "reports": run_dir / "reports",
    }


def _save_train_state(path, model, opt_state, strategy, epoch):
    blocks = {f"param/{n}": v for n, v in model.params.items()}
    moments = [(key, model.views(vec)) for key, vec in
               (("m", opt_state.m), ("v", opt_state.v), ("buf", opt_state.buf)) if vec is not None]
    for name in model.params:
        for key, views in moments:
            blocks[f"opt/{key}/{name}"] = views[name]
    if not strategy.frozen:
        blocks["strategy/y"] = strategy.store.y
        blocks["strategy/A"] = strategy.store.A
    header = {"epoch": epoch, "opt_step": opt_state.step}
    write_blocks(path, STATE_MAGIC, header, blocks)


def _load_train_state(path, model, opt_state, strategy):
    header, blocks = read_blocks(path, STATE_MAGIC)

    def load(name, dest):
        block = blocks.get(name)
        if block is None:
            raise ValueError(f"{path}: missing block {name!r}; the state does not match "
                             f"this run's model, optimizer or strategy")
        if block.shape != dest.shape:
            raise ValueError(f"{path}: block {name!r} has shape {block.shape}, "
                             f"this run needs {dest.shape}")
        dest[...] = block

    for name, param in model.params.items():
        load(f"param/{name}", param)
    opt_state.step = int(header["opt_step"])
    for key in ("m", "v", "buf"):
        if any(b.startswith(f"opt/{key}/") for b in blocks):
            if getattr(opt_state, key) is None:
                setattr(opt_state, key, np.zeros_like(model.flat))
            for name, view in model.views(getattr(opt_state, key)).items():
                load(f"opt/{key}/{name}", view)
    if not strategy.frozen:
        load("strategy/y", strategy.store.y)
        load("strategy/A", strategy.store.A)
    return int(header["epoch"])


def write_trace_csv(path, preds, labels):
    """One row per test sample: ``sample_id,label,p_0..p_{k-1}``, floats as ``repr``."""
    preds = np.asarray(preds)
    header = ["sample_id", "label"] + [f"p_{j}" for j in range(preds.shape[1])]
    with open(path, "w", newline="") as fh:
        write_float_table(fh, header, preds, labels=labels)


def read_trace_csv(path):
    """Read a ``write_trace_csv`` file bit for bit; returns (preds (n, k), labels, k)."""
    with open(path) as fh:
        k = len(fh.readline().strip().split(",")) - 2
        body = fh.tell()
        if fh.read(1):
            fh.seek(body)
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:
            table = np.empty((0, k + 2))
    if table.shape[1] != k + 2:
        raise ValueError(f"{path}: rows have {table.shape[1]} columns, header has {k + 2}")
    return np.ascontiguousarray(table[:, 2:]), table[:, 1].astype(np.int64), k


def _record_line(row):
    return json.dumps(row, sort_keys=True) + "\n"


def _truncate_records(path, epoch):
    """Cut a records file back to its rows for epochs 1..``epoch``.

    Each row is flushed before its epoch's state is saved, so a crash in
    between leaves one row more than the state covers; resuming drops it.
    """
    with open(path, "rb+") as fh:
        for expected in range(1, epoch + 1):
            line = fh.readline()
            if not line.endswith(b"\n") or json.loads(line).get("epoch") != expected:
                raise ValueError(f"{path} does not hold complete rows for epochs 1..{epoch}")
        fh.truncate()


def run_single_seed(model_spec, train_set: Dataset, test_set: Dataset,
                    cfg: TrainConfig, seed, layout, config_snapshot,
                    progress=None, stop_after=None, resume=False):
    """Train one seed end to end, persisting records, traces, and checkpoints.

    ``stop_after``/``resume`` exercise the checkpoint-resume path: stopping
    after epoch e and resuming later replays epochs e+1..T identically.
    """
    t0 = time.perf_counter()
    for key in ("records", "checkpoints", "traces"):
        layout[key].mkdir(parents=True, exist_ok=True)
    trace_dir = layout["traces"] / f"seed_{seed}"
    trace_dir.mkdir(exist_ok=True)
    records_path = layout["records"] / f"seed_{seed}.jsonl"
    state_path = layout["checkpoints"] / f"seed_{seed}.state"

    spec = dc_replace(model_spec, seed=seed)
    model = init_model(spec)
    opt_state = make_optimizer(cfg)
    strategy = TargetStrategy(cfg.strategy, train_set.labels, train_set.k, cfg.epochs)

    start_epoch = 0
    if resume:
        if not state_path.exists():
            raise FileNotFoundError(f"no training state to resume at {state_path}")
        start_epoch = _load_train_state(state_path, model, opt_state, strategy)
        _truncate_records(records_path, start_epoch)
    elif records_path.exists():
        records_path.unlink()

    record = RunRecord(seed=seed, config=config_snapshot)
    last_epoch = cfg.epochs if stop_after is None else min(stop_after, cfg.epochs)
    with open(records_path, "a") as rec_fh:
        for epoch in range(start_epoch + 1, last_epoch + 1):
            with record.timed("train_epoch"):
                row = train_epoch(model, train_set, strategy, opt_state, cfg, epoch, seed)
            row["schema_version"] = RECORD_SCHEMA_VERSION
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                with record.timed("evaluate"):
                    ev = evaluate(model, test_set)
                row.update(test_acc=ev["acc"], test_ece=ev["ece"], test_nll=ev["nll"])
                with record.timed("trace_write"):
                    write_trace_csv(trace_dir / f"epoch_{epoch}.csv", ev["preds"],
                                    test_set.labels)
            else:
                row.update(test_acc=None, test_ece=None, test_nll=None)
            rec_fh.write(_record_line(row))
            rec_fh.flush()
            record.rows.append(row)
            with record.timed("state_write"):
                _save_train_state(state_path, model, opt_state, strategy, epoch)
            if progress is not None:
                progress(seed, row)

    if last_epoch == cfg.epochs:
        save_checkpoint(model, layout["checkpoints"] / f"seed_{seed}_final.ckpt")
        if not strategy.frozen:
            strategy.store.save_csv(layout["records"] / f"store_seed_{seed}.csv")
    record.wall_clock_s = time.perf_counter() - t0
    return record, model


def run_experiment(model_spec, train_set: Dataset, test_set: Dataset,
                   cfg: TrainConfig, seeds, run_dir, config_snapshot=None,
                   progress=None):
    """Train every seed with independent derived streams; returns RunRecords.

    Wall-clock totals, with the per-seed phase totals of ``RunRecord.phase_s``,
    go to a sidecar timing file so every other artifact in the run directory
    is byte-reproducible from (config, seeds).
    """
    layout = run_layout(run_dir)
    layout["root"].mkdir(parents=True, exist_ok=True)
    snapshot = config_snapshot if config_snapshot is not None else {
        "train": asdict(cfg), "seeds": list(seeds)}
    records = []
    for seed in seeds:
        record, _ = run_single_seed(model_spec, train_set, test_set, cfg, seed,
                                    layout, snapshot, progress=progress)
        records.append(record)
    with open(layout["root"] / "timing.txt", "w") as fh:
        fh.writelines(record.timing_line() for record in records)
    return records
