"""Training loop, loss assembly, schedules, and experiment orchestration.

One epoch follows the in-place recursion exactly: for each mini-batch,
forward, loss against the stored targets (sharpened by tau), gradient step;
the predictions are folded back into the target state once per epoch, in one
store update after the last step. That is the same computation as folding
each batch in after its step: the epoch's shuffle visits every sample once,
so a batch reads only its own rows, and no row is written before the next
epoch. Targets consumed by a batch are therefore always the pre-update
values; predictions fed to the state are the same forward outputs used for
the loss, captured before the optimizer step, with no gradient connection.
The update checks and renormalizes each prediction row on its own.

Every random draw flows from named integer streams derived from
(run seed, epoch, stream tag), so runs are bit-reproducible and resuming from
a saved state at an epoch boundary replays the identical remainder. A
``SeedRun``'s ``step`` trains, and on eval epochs evaluates, one epoch without
opening a file; ``run_single_seed`` writes each epoch's record row, ``.state``
and eval ``.trace`` (the last also as CSV), then the seed's checkpoint and store.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as dc_replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import analysis
from .data import Dataset, augment_strong, augment_weak
from .fileio import (atomic_open, json_object, read_blocks, write_blocks, write_json,
                     write_table)
from .models import Model, backward, forward, init_model, predict, save_checkpoint
from .numerics import (PROB_FLOOR, NonFinite, OptimizerState, _all_finite, _class_reduce,
                       entropy, kl_div, optimizer_step, soft_cross_entropy)
from .settings import Settings, setting
from .targets import SIMPLEX_RENORM_TOL, StrategyConfig, TargetStrategy, sharpen

RECORD_SCHEMA_VERSION = 1
STATE_MAGIC = "BSDLAB-STATE v1"
TRACE_MAGIC = "BSDLAB-TRACE v1"

# rng stream tags
_SHUFFLE, _DROPOUT, _WEAK, _STRONG_BASE = 0, 1, 2, 3

__all__ = [
    "BsdPlusConfig",
    "TrainConfig",
    "SeedRun",
    "TrainingDiverged",
    "lr_at",
    "train_epoch",
    "contrastive_term",
    "evaluate",
    "run_experiment",
    "run_layout",
]


class TrainingDiverged(RuntimeError):
    """A seed met a non-finite value; the message says in which step or evaluation."""


@dataclass
class BsdPlusConfig(Settings):
    enabled: bool = setting(False)
    lam: float = setting(2.0, lambda v: v >= 0.0, ">= 0", key="lambda")  # contrastive weight
    views: int = setting(2, lambda v: v >= 1, ">= 1")  # strong views per sample
    weak_jitter: float = setting(0.05, lambda v: v >= 0.0, ">= 0")
    strong_jitter: float = setting(0.2, lambda v: v >= 0.0, ">= 0")
    erase_frac: float = setting(0.3, lambda v: 0.0 <= v <= 1.0, "in [0,1]")


@dataclass
class TrainConfig(Settings):
    epochs: int = setting(100, lambda v: v >= 1, ">= 1")
    batch_size: int = setting(128, lambda v: v >= 1, ">= 1")
    optimizer: str = setting("adam", lambda v: v in ("adam", "sgd"), "'adam' or 'sgd'")
    lr: float = setting(0.01, lambda v: v >= 0.0, ">= 0")
    momentum: float = setting(0.9, lambda v: 0.0 <= v < 1.0, "in [0,1)")
    beta1: float = setting(0.9, lambda v: 0.0 <= v < 1.0, "in [0,1)")
    beta2: float = setting(0.999, lambda v: 0.0 <= v < 1.0, "in [0,1)")
    adam_eps: float = setting(1e-8, lambda v: v > 0.0, "> 0")
    weight_decay: float = setting(0.0, lambda v: v >= 0.0, ">= 0")
    schedule: str = setting("constant", lambda v: v in ("constant", "cosine"),
                            "'constant' or 'cosine'")
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    tau: float = setting(1.0, lambda v: v > 0.0, "> 0")  # target sharpening; 1 disables
    bsd_plus: BsdPlusConfig = field(default_factory=BsdPlusConfig)
    eval_every: int = setting(5, lambda v: v >= 1, ">= 1")


# per-seed wall-clock phases reported in timing.txt
PHASES = ("train_epoch", "evaluate", "trace_write", "state_write")


@dataclass
class SeedRun:
    """One seed's model, optimizer and strategy after ``epoch`` epochs, and its record."""
    seed: int
    model: Model
    opt_state: OptimizerState
    strategy: TargetStrategy
    epoch: int = 0
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

    def step(self, train_set: Dataset, test_set: Dataset, cfg: TrainConfig):
        """Train the next epoch, and evaluate it on eval epochs; opens no file. Appends
        its record row and returns ``(row, ev)``, with ``ev`` None off eval epochs."""
        epoch = self.epoch + 1
        with self.timed("train_epoch"):
            row = train_epoch(self.model, train_set, self.strategy, self.opt_state, cfg, epoch,
                              self.seed)
        self.epoch = epoch
        row.update(schema_version=RECORD_SCHEMA_VERSION, test_acc=None, test_ece=None,
                   test_nll=None)
        ev = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            with self.timed("evaluate"):
                try:
                    ev = evaluate(self.model, test_set)
                except NonFinite as exc:
                    raise TrainingDiverged(f"{exc} on the test set at epoch {epoch} "
                                           f"(seed {self.seed})") from exc
            row.update(test_acc=ev["acc"], test_ece=ev["ece"], test_nll=ev["nll"])
        self.rows.append(row)
        return row, ev


def lr_at(schedule, base_lr, epoch, total_epochs):
    """Learning rate for a 0-based epoch index."""
    if schedule == "constant":
        return base_lr
    return base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0


def make_optimizer(cfg: TrainConfig):
    return OptimizerState(cfg)


def _epoch_rng(seed, epoch, tag):
    return np.random.default_rng([seed, epoch, tag])


def _kl_logit_grad(strong_probs, anchor_probs):
    """d KL(p, q) / d logits(p) for constant q: p * (ln p - ln q - KL(p, q))."""
    lp = np.log(np.maximum(strong_probs, PROB_FLOOR))
    lq = np.log(np.maximum(anchor_probs, PROB_FLOOR))
    diff = lp - lq
    row_kl = _class_reduce(np.add, strong_probs * diff, keepdims=True)
    return strong_probs * (diff - row_kl)


def contrastive_term(model: Model, strong_views, anchor_probs, lam, rng, grad_flat, loss=0.0):
    """Consistency loss (lam / (m * n)) * sum_j sum_i KL(f(view_j)_i, anchor_i).

    ``strong_views`` holds m batches of the n samples whose anchor
    probabilities (constants) are ``anchor_probs``. Each view's parameter
    gradient is added into ``grad_flat``, laid out like ``model.flat``.
    Returns ``loss`` plus each view's term, added view by view. Each view
    goes through the training pass ``forward``; ``rng`` drives its dropout.
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


def _augmented_views(samples, plus: BsdPlusConfig, weak_rng, strong_rngs):
    """Weak view plus one strong view per rng in ``strong_rngs``; identity when bsd_plus is off."""
    if not plus.enabled:
        return samples, []
    weak = augment_weak(samples, weak_rng, jitter_sigma=plus.weak_jitter)
    strong = [augment_strong(samples, rng, jitter_sigma=plus.strong_jitter,
                             erase_frac=plus.erase_frac)
              for rng in strong_rngs]
    return weak, strong


def train_epoch(model: Model, dataset: Dataset, strategy: TargetStrategy,
                opt_state, cfg: TrainConfig, epoch, seed):
    """Run one epoch (1-based ``epoch``); returns epoch metrics. A ``NonFinite`` in a batch
    step (weak view, loss, backward, strong views, optimizer step) stops it before the update
    and raises ``TrainingDiverged`` naming epoch, batch start, seed and a gradient's block."""
    if strategy.labels.shape[0] != dataset.n:
        raise ValueError("target state and dataset sizes are misaligned")
    n, k = dataset.n, dataset.k
    lr = lr_at(cfg.schedule, cfg.lr, epoch - 1, cfg.epochs)
    perm = _epoch_rng(seed, epoch, _SHUFFLE).permutation(n)
    dropout_rng = _epoch_rng(seed, epoch, _DROPOUT)
    plus = cfg.bsd_plus
    # one stream per view for the whole epoch, so each batch draws fresh augmentations
    weak_rng, strong_rngs = None, []
    if plus.enabled:
        weak_rng = _epoch_rng(seed, epoch, _WEAK)
        strong_rngs = [_epoch_rng(seed, epoch, _STRONG_BASE + j) for j in range(plus.views)]
    # gradient buffer laid out like model.flat; strong views add theirs in
    grad_flat = np.zeros_like(model.flat)
    grads = model.views(grad_flat)
    # one gather and one store update per epoch; exact because perm visits
    # each sample once (see the module docstring)
    samples = dataset.samples[perm]
    served = strategy.targets(perm, epoch)
    if cfg.tau != 1.0:
        served = sharpen(served, cfg.tau)
    preds = np.empty((n, k))
    loss_sum = 0.0
    for start in range(0, n, cfg.batch_size):
        stop = min(start + cfg.batch_size, n)
        bsz = stop - start
        weak, strong_views = _augmented_views(samples[start:stop], plus, weak_rng, strong_rngs)
        sharp = served[start:stop]
        try:
            probs, cache = forward(model, weak, dropout_rng)
            batch_loss = float(soft_cross_entropy(sharp, probs).sum() / (bsz * k))
            dlogits = (probs - sharp) / (bsz * k)
            backward(model, cache, dlogits, out=grads)
            if strong_views:
                batch_loss = contrastive_term(model, strong_views, probs, plus.lam,
                                              dropout_rng, grad_flat, batch_loss)
            if not math.isfinite(batch_loss):
                raise NonFinite("loss")
            optimizer_step(model.flat, grad_flat, opt_state, lr=lr)
        except NonFinite as exc:  # grads view all of grad_flat, so one block holds a bad entry
            block = (f" in block {next(b for b, g in grads.items() if not _all_finite(g))!r}"
                     if exc.what == "gradient" else "")
            raise TrainingDiverged(f"{exc}{block} at epoch {epoch}, batch starting {start} "
                                   f"(seed {seed})") from exc
        preds[start:stop] = probs
        loss_sum += batch_loss * bsz
    strategy.update(perm, preds)

    target_entropy = float(np.mean(entropy(strategy.current_targets(epoch))))
    return {
        "epoch": epoch,
        "lr": float(lr),
        "train_loss": loss_sum / n,
        "mean_target_entropy": target_entropy,
        "mean_evidence": strategy.mean_evidence(),
    }


def evaluate(model: Model, dataset: Dataset):
    """Eval-mode predictions (``predict``) plus accuracy/ECE/NLL on the active labels."""
    preds = predict(model, dataset.samples)
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
        "timing": run_dir / "timing.txt",
    }


def _state_blocks(model, opt_state, strategy):
    """The ``.state`` blocks, name to array, in file order."""
    moments = [(key, model.views(getattr(opt_state, key))) for key in opt_state.moment_names]
    blocks = {f"param/{n}": v for n, v in model.params.items()}
    blocks.update((f"opt/{key}/{n}", views[n]) for n in model.params for key, views in moments)
    if not strategy.frozen:
        blocks.update({"strategy/y": strategy.store.y, "strategy/A": strategy.store.A})
    return blocks


def _save_train_state(path, model, opt_state, strategy, epoch):
    header = {"epoch": epoch, "opt_step": opt_state.step}
    write_blocks(path, STATE_MAGIC, header, _state_blocks(model, opt_state, strategy))


def _load_train_state(path, model, opt_state, strategy):
    header, blocks = read_blocks(path, STATE_MAGIC)
    for key in ("epoch", "opt_step"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise ValueError(f"{path}: header has no non-negative integer {key!r}")
    stored = sorted({b.split("/")[1] for b in blocks if b.startswith("opt/")})
    if stored != list(opt_state.moment_names):
        raise ValueError(f"{path}: holds optimizer moments {stored}, this run's optimizer "
                         f"keeps {list(opt_state.moment_names)}")
    opt_state.step = header["opt_step"]
    for key in stored:
        setattr(opt_state, key, np.zeros_like(model.flat))
    used = _state_blocks(model, opt_state, strategy)
    for name, dest in used.items():
        block = blocks.get(name)
        if block is None:
            raise ValueError(f"{path}: missing block {name!r}; the state does not match "
                             f"this run's model, optimizer or strategy")
        if block.shape != dest.shape:
            raise ValueError(f"{path}: block {name!r} has shape {block.shape}, "
                             f"this run needs {dest.shape}")
        dest[...] = block
    unused = [name for name in blocks if name not in used]
    if unused:
        raise ValueError(f"{path}: holds blocks {unused} that this run does not use; the "
                         "state does not match this run's model, optimizer or strategy")
    return header["epoch"]


def write_trace_csv(path, preds, labels):
    """One row per test sample: ``sample_id,label,p_0..p_{k-1}``, floats as ``repr``.

    The text export of a trace; a run writes it for its final epoch only.
    """
    preds = np.asarray(preds)
    if len(labels) != preds.shape[0]:
        raise ValueError(f"{len(labels)} labels for {preds.shape[0]} rows")
    header = ["sample_id", "label"] + [f"p_{j}" for j in range(preds.shape[1])]
    write_table(path, header, [np.arange(len(preds)), np.asarray(labels).astype(np.int64), preds])


def read_trace_csv(path):
    """Read a trace bit for bit; returns (preds (n, k), labels, k).

    ``path`` names the ``.trace`` file or its CSV export; either way only the
    ``.trace`` file, with blocks ``labels`` (n,) and ``probs`` (n, k), is read. Each
    label must be an integer in [0, k), and each ``probs`` row entries >= 0 that sum
    to 1 within ``SIMPLEX_RENORM_TOL``.
    """
    trace = Path(path).with_suffix(".trace")
    _, blocks = read_blocks(trace, TRACE_MAGIC)
    for name in ("labels", "probs"):
        if name not in blocks:
            raise ValueError(f"{trace}: missing block {name!r}")
    probs, labels = blocks["probs"], blocks["labels"]
    if probs.ndim != 2 or labels.shape != probs.shape[:1]:
        raise ValueError(f"{trace}: blocks 'labels' of shape {labels.shape} and 'probs' "
                         f"of shape {probs.shape} are not (n,) and (n, k)")
    k = probs.shape[1]
    if not ((labels >= 0) & (labels < k) & (labels == np.trunc(labels))).all():  # False on NaN
        raise ValueError(f"{trace}: block 'labels' holds a value that is not a finite "
                         f"integer in [0, {k})")
    with np.errstate(over="ignore"):  # a sum that overflows fails the check, it does not warn
        if not ((probs >= 0.0).all()  # False on NaN, so no -inf reaches the sum
                and (abs(_class_reduce(np.add, probs) - 1.0) <= SIMPLEX_RENORM_TOL).all()):
            raise ValueError(f"{trace}: block 'probs' holds a row that is not finite entries "
                             f">= 0 summing to 1 within {SIMPLEX_RENORM_TOL}")
    return probs, labels.astype(np.int64), k


def read_records(fh, last=None):
    """Rows 1..``last`` (every row when None) of a records file open as binary ``fh``.

    Line e must be a whole line holding a JSON object whose ``epoch`` is the int e;
    another raises ``ValueError`` naming the file and the line.
    """
    rows = []
    for epoch, line in enumerate(islice(fh, last), start=1):
        row = json_object(line, f"{fh.name}: line {epoch}")
        if type(row.get("epoch")) is not int or row["epoch"] != epoch or not line.endswith(b"\n"):
            raise ValueError(f"{fh.name}: line {epoch} is not a complete row for epoch {epoch}")
        rows.append(row)
    return rows


def _truncate_records(path, epoch):
    """Cut a records file back to its rows for epochs 1..``epoch``; returns those rows.

    Each row is flushed before its epoch's state is saved, so a crash in
    between leaves one row more than the state covers; resuming drops it.
    """
    with open(path, "rb+") as fh:
        rows = read_records(fh, epoch)
        if len(rows) < epoch:
            raise ValueError(f"{path} does not hold complete rows for epochs 1..{epoch}")
        fh.truncate()
    return rows


def run_single_seed(model_spec, train_set: Dataset, test_set: Dataset,
                    cfg: TrainConfig, seed, layout, progress=None, stop_after=None, resume=False):
    """Train one seed, writing all its files; returns its ``SeedRun``, eval buffers freed.

    ``stop_after``/``resume`` exercise the checkpoint-resume path: stopping
    after epoch e and resuming later replays epochs e+1..T identically.
    """
    t0 = time.perf_counter()
    trace_dir = layout["traces"] / f"seed_{seed}"
    for path in (layout["records"], layout["checkpoints"], trace_dir):
        path.mkdir(parents=True, exist_ok=True)
    records_path = layout["records"] / f"seed_{seed}.jsonl"
    state_path = layout["checkpoints"] / f"seed_{seed}.state"

    run = SeedRun(seed, init_model(dc_replace(model_spec, seed=seed)), make_optimizer(cfg),
                  TargetStrategy(cfg.strategy, train_set.labels, train_set.k, cfg.epochs))
    if resume:
        if not state_path.exists():
            raise FileNotFoundError(f"no training state to resume at {state_path}")
        run.epoch = _load_train_state(state_path, run.model, run.opt_state, run.strategy)
        run.rows = _truncate_records(records_path, run.epoch)

    last_epoch = cfg.epochs if stop_after is None else min(stop_after, cfg.epochs)
    with open(records_path, "a" if resume else "w") as rec_fh:
        while run.epoch < last_epoch:
            row, ev = run.step(train_set, test_set, cfg)
            if ev is not None:
                with run.timed("trace_write"):
                    trace = trace_dir / f"epoch_{run.epoch}.trace"
                    write_blocks(trace, TRACE_MAGIC, {},
                                 {"labels": test_set.labels, "probs": ev["preds"]})
                    if run.epoch == cfg.epochs:
                        write_trace_csv(trace.with_suffix(".csv"), ev["preds"], test_set.labels)
            rec_fh.write(json.dumps(row, sort_keys=True) + "\n")
            rec_fh.flush()
            with run.timed("state_write"):
                _save_train_state(state_path, run.model, run.opt_state, run.strategy, run.epoch)
            if progress is not None:
                progress(seed, row)

    if last_epoch == cfg.epochs:
        save_checkpoint(run.model, layout["checkpoints"] / f"seed_{seed}_final.ckpt")
        if not run.strategy.frozen:
            run.strategy.store.save_csv(layout["records"] / f"store_seed_{seed}.csv")
    run.model.scratch.clear()
    run.wall_clock_s = time.perf_counter() - t0
    return run


def _remove_run(layout):
    """Delete the ``run_layout`` entries of a previous run; other files in its directory stay."""
    for path in (p for key, p in layout.items() if key != "root"):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


def run_experiment(model_spec, train_set: Dataset, test_set: Dataset,
                   cfg: TrainConfig, seeds, run_dir, config_snapshot=None,
                   progress=None):
    """Train every seed with independent derived streams; returns their SeedRuns.

    Deletes a previous run's ``run_layout`` entries, then writes ``config_snapshot`` (the
    resolved config) to ``config.resolved``. Per-seed wall-clock totals and ``phase_s`` go
    to ``timing.txt``, so every other artifact is byte-reproducible from (config, seeds).
    """
    layout = run_layout(run_dir)
    _remove_run(layout)
    layout["root"].mkdir(parents=True, exist_ok=True)
    if config_snapshot is not None:
        write_json(layout["config"], config_snapshot)
    runs = [run_single_seed(model_spec, train_set, test_set, cfg, seed, layout,
                            progress=progress) for seed in seeds]
    with atomic_open(layout["timing"], "w") as fh:
        fh.writelines(run.timing_line() for run in runs)
    return runs
