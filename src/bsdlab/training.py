"""Training loop, loss assembly, schedules, and experiment orchestration.

One epoch follows the in-place recursion exactly: for each mini-batch,
forward, the loss gradient against the stored targets (sharpened by tau),
gradient step; the predictions are folded back into the target state once per
epoch, in one store update after the last step. That is the same computation
as folding each batch in after its step: the epoch's shuffle visits every
sample once, so a batch reads only its own rows, and no row is written before
the next epoch. Targets consumed by a batch are therefore always the
pre-update values; predictions fed to the state are the same forward outputs
used for the gradient, captured before the optimizer step, with no gradient
connection. The update refuses an epoch with a row off the simplex and never
rewrites a row.

A step needs only the fused logit gradient ``probs - target``, so the recorded
``train_loss`` is computed once per epoch, before the store update, from the
epoch's predictions and served targets: one cross-entropy pass, summed batch
by batch with the same float operations in the same order as a per-step loss.

Every random draw flows from named integer streams derived from
(run seed, epoch, stream tag), so runs are bit-reproducible and resuming from
a saved state at an epoch boundary replays the identical remainder. A
``SeedRun``'s ``step`` trains, and on eval epochs evaluates, one epoch without
opening a file. A ``_SeedWriter`` writes each epoch's eval ``.trace`` (the last
also as CSV), record row and ``.state``, then the seed's checkpoint and store;
``run_single_seed`` is the loop of the two.
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
from .fileio import (HEADER_MAX_BYTES, atomic_open, check_blocks, json_object, numbered_files,
                     read_blocks, write_blocks, write_json, write_table)
from .models import Model, backward, forward, init_model, predict, save_checkpoint
from .numerics import (PROB_FLOOR, SIMPLEX_TOL, NonFinite, OptimizerState, _all_finite,
                       _class_reduce, entropy, kl_div, on_simplex, optimizer_step,
                       soft_cross_entropy)
from .settings import Settings, check_error, setting
from .targets import StrategyConfig, TargetStrategy, sharpen

RECORD_SCHEMA_VERSION = 1
STATE_MAGIC = "BSDLAB-STATE v1"
TRACE_MAGIC = "BSDLAB-TRACE v1"
ON_SIMPLEX = f"rows of finite entries >= 0 summing to 1 within {SIMPLEX_TOL}"  # on_simplex

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


# a run's seed list: (check, message) for settings.check_error; parse_config uses it too
SEEDS_RULE = (lambda v: all(type(s) is int and s >= 0 for s in v) and 0 < len(set(v)) == len(v),
              "a nonempty list of non-negative integers, each once")

# per-seed wall-clock phases reported in timing.txt
PHASES = ("train_epoch", "evaluate", "trace_write", "state_write")


@dataclass
class SeedRun:
    """One seed's model, optimizer and strategy after ``epoch`` epochs, and its record."""
    seed: int
    model: Model
    opt_state: OptimizerState
    strategy: TargetStrategy
    epoch: int = field(default=0, init=False)
    rows: list = field(default_factory=list, init=False)
    wall_clock_s: float = field(default=0.0, init=False)
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0), init=False)

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


def contrastive_term(model: Model, strong_views, anchor_probs, lam, rng, grad_flat):
    """Consistency loss (lam / (m * n)) * sum_j sum_i KL(f(view_j)_i, anchor_i).

    ``strong_views`` holds m batches of the n samples whose anchor
    probabilities (constants) are ``anchor_probs``. Each view's parameter
    gradient is added into ``grad_flat``, laid out like ``model.flat``.
    Returns each view's term, in view order; the loss adds them in that order.
    Each view goes through the training pass ``forward``; ``rng`` drives its
    dropout. Its gradient goes through a vector kept in ``model.scratch``.
    """
    m = len(strong_views)
    if m == 0:
        raise ValueError("need at least one strong view")
    scale = lam / (m * anchor_probs.shape[0])
    kept = model.scratch.get("view_grad")
    if kept is None:
        view_flat = np.empty_like(model.flat)
        kept = model.scratch["view_grad"] = (view_flat, model.views(view_flat))
    view_flat, view_grads = kept
    terms = []
    for view in strong_views:
        probs, cache = forward(model, view, rng)
        terms.append(float(scale * kl_div(probs, anchor_probs).sum()))
        backward(model, cache, scale * _kl_logit_grad(probs, anchor_probs), out=view_grads)
        grad_flat += view_flat
    return terms


def _batch_losses(row_loss, batch_size, k):
    """Each batch's mean loss from the epoch's per-row losses, in batch order: the bits
    of ``row_loss[start:stop].sum() / (bsz * k)``, since a row sum of a C-ordered
    reshape adds its terms in the order a 1-D slice's sum does."""
    n = row_loss.shape[0]
    full = n - n % batch_size
    losses = (row_loss[:full].reshape(full // batch_size, batch_size).sum(axis=1)
              / (batch_size * k)).tolist()
    if full < n:
        losses.append(float(row_loss[full:].sum() / ((n - full) * k)))
    return losses


def train_epoch(model: Model, dataset: Dataset, strategy: TargetStrategy,
                opt_state, cfg: TrainConfig, epoch, seed):
    """Run one epoch (1-based ``epoch``); returns epoch metrics. A ``NonFinite`` in a batch
    step (weak view, backward, strong views, optimizer step) stops it before the update
    and raises ``TrainingDiverged`` naming epoch, batch start, seed and a gradient's block.

    The steps take no loss: ``train_loss`` is one ``soft_cross_entropy`` pass over the
    epoch's served targets and predictions after the last step, summed per batch, plus
    each batch's strong-view terms, in the order a per-step loss adds them. A non-finite
    batch loss then raises ``TrainingDiverged`` naming the first such batch, before the
    store update. Predictions and targets are checked finite, so no run reaches that."""
    if strategy.labels.shape[0] != dataset.n:
        raise ValueError("target state and dataset sizes are misaligned")
    n, k, bs = dataset.n, dataset.k, cfg.batch_size
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
    dlogits_buf = np.empty((min(bs, n), k))
    view_terms = []  # per batch, its strong views' loss terms
    for start in range(0, n, bs):
        stop = min(start + bs, n)
        bsz = stop - start
        batch = samples[start:stop]
        weak = batch if weak_rng is None else augment_weak(batch, weak_rng,
                                                           jitter_sigma=plus.weak_jitter)
        strong_views = [augment_strong(batch, rng, jitter_sigma=plus.strong_jitter,
                                       erase_frac=plus.erase_frac) for rng in strong_rngs]
        try:
            probs, cache = forward(model, weak, dropout_rng, out=preds[start:stop])
            dlogits = np.subtract(probs, served[start:stop], out=dlogits_buf[:bsz])
            dlogits /= bsz * k
            backward(model, cache, dlogits, out=grads)
            view_terms.append(contrastive_term(model, strong_views, probs, plus.lam, dropout_rng,
                                               grad_flat) if strong_views else ())
            optimizer_step(model.flat, grad_flat, opt_state, lr=lr)
        except NonFinite as exc:  # grads view all of grad_flat, so one block holds a bad entry
            block = (f" in block {next(b for b, g in grads.items() if not _all_finite(g))!r}"
                     if exc.what == "gradient" else "")
            raise TrainingDiverged(f"{exc}{block} at epoch {epoch}, batch starting {start} "
                                   f"(seed {seed})") from exc
    loss_sum = 0.0
    losses = _batch_losses(soft_cross_entropy(served, preds), bs, k)
    for start, batch_loss, terms in zip(range(0, n, bs), losses, view_terms):
        for term in terms:
            batch_loss += term
        if not math.isfinite(batch_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch starting {start} "
                                   f"(seed {seed})")
        loss_sum += batch_loss * (min(start + bs, n) - start)
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
    """Eval-mode predictions (``predict``) plus accuracy/ECE/NLL on the active labels;
    accuracy and the ECE bins share one argmax."""
    preds = predict(model, dataset.samples)
    acc, bins = analysis._accuracy_and_bins(preds, dataset.labels, analysis.DEFAULT_BINS)
    return {
        "preds": preds,
        "acc": acc,
        "ece": analysis._ece_from_bins(bins),
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


def previous_run(layout):
    """The ``run_layout`` entries but ``root`` that exist: a previous run, which a run deletes."""
    return [path for key, path in layout.items() if key != "root" and path.exists()]


def seed_files(layout, seed):
    """Seed ``seed``'s files under a ``run_layout``; seed ``"*"`` gives each one's glob pattern."""
    return {"records": layout["records"] / f"seed_{seed}.jsonl",
            "state": layout["checkpoints"] / f"seed_{seed}.state",
            "ckpt": layout["checkpoints"] / f"seed_{seed}_final.ckpt",
            "store": layout["records"] / f"store_seed_{seed}.csv",
            "traces": layout["traces"] / f"seed_{seed}"}  # a trace_file per eval epoch


def trace_file(trace_dir, epoch):
    """The eval ``.trace`` of ``epoch`` in a seed's trace directory; ``"*"`` gives the pattern."""
    return trace_dir / f"epoch_{epoch}.trace"


def numbered(pattern):
    """``numbered_files`` of the paths matching a ``seed_files`` or ``trace_file`` pattern."""
    return numbered_files(pattern.parent.glob(pattern.name), pattern.name.partition("*")[2])


def run_traces(layout):
    """{seed: {epoch: .trace}}, both ascending; a run or a seed without traces raises."""
    trace_dirs = numbered(seed_files(layout, "*")["traces"])
    if not trace_dirs:
        raise FileNotFoundError(f"no traces under {layout['traces']}; run 'bsdlab train' first "
                                "(eval traces are written every train.eval_every epochs)")
    traces = {}
    for seed, trace_dir in trace_dirs.items():
        traces[seed] = numbered(trace_file(trace_dir, "*"))
        if not traces[seed]:
            raise FileNotFoundError(f"no epoch traces in {trace_dir}")
    return traces


def _state_blocks(model, opt_state, strategy):
    """The ``.state`` blocks, name to array, in file order."""
    moments = [(key, model.views(getattr(opt_state, key))) for key in opt_state.moment_names]
    blocks = {f"param/{n}": v for n, v in model.params.items()}
    blocks.update((f"opt/{key}/{n}", views[n]) for n in model.params for key, views in moments)
    if not strategy.frozen:
        blocks.update({"strategy/y": strategy.store.y,
                       "strategy/A": np.full(len(strategy.labels), strategy.store.mass)})
    return blocks


def _save_train_state(path, model, opt_state, strategy, epoch):
    header = {"epoch": epoch, "opt_step": opt_state.step}
    write_blocks(path, STATE_MAGIC, header, _state_blocks(model, opt_state, strategy))


def _load_train_state(path, model, opt_state, strategy):
    """Load a ``.state`` into a fresh run's parts; returns its epoch, which fixes the header's
    ``opt_step`` (epoch times batches per epoch) and each ``strategy/A`` entry (the mass)."""
    header, blocks = read_blocks(path, STATE_MAGIC)
    for key in ("epoch", "opt_step"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise ValueError(f"{path}: header has no non-negative integer {key!r}")
    epoch, store = header["epoch"], strategy.store
    if epoch > strategy.total_epochs:
        raise ValueError(f"{path}: saved at epoch {epoch}, past this run's last epoch "
                         f"{strategy.total_epochs}")
    stored = sorted({b.split("/")[1] for b in blocks if b.startswith("opt/")})
    if stored != list(opt_state.moment_names):
        raise ValueError(f"{path}: holds optimizer moments {stored}, this run's optimizer "
                         f"keeps {list(opt_state.moment_names)}")
    opt_state.allocate(model.flat)
    mass = store.mass_after(epoch)
    # (check, words) for a block's values; blocks not named here must be finite
    rules = {"strategy/y": (on_simplex, ON_SIMPLEX),
             "strategy/A": (lambda a: a.tobytes() == np.full(a.shape, mass).tobytes(),
                            f"the mass {mass} in every entry, A0 after {epoch} updates")}
    used = _state_blocks(model, opt_state, strategy)
    check_blocks(path, blocks, {name: (dest.shape, *rules.get(name, (_all_finite, "finite values")))
                                for name, dest in used.items()})
    batches = -(-len(strategy.labels) // opt_state.cfg.batch_size)
    if header["opt_step"] != epoch * batches:
        raise ValueError(f"{path}: header 'opt_step' is {header['opt_step']}, not epoch "
                         f"{epoch} times {batches} batches")
    for name, dest in used.items():
        dest[...] = blocks[name]
    opt_state.step, store.mass = header["opt_step"], mass
    return epoch


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
    ``.trace`` file, with blocks ``labels`` (n,) and ``probs`` (n, k) and no other, is
    read. Each label must be an integer in [0, k), and ``probs`` must pass ``on_simplex``.
    """
    trace = Path(path).with_suffix(".trace")
    _, blocks = read_blocks(trace, TRACE_MAGIC)
    probs = blocks.get("probs", np.empty((0, 0)))  # a missing block is refused below
    if probs.ndim != 2:
        raise ValueError(f"{trace}: block 'probs' has shape {probs.shape}, not (n, k)")
    n, k = probs.shape
    check_blocks(trace, blocks, {
        "labels": ((n,), lambda y: ((y >= 0) & (y < k) & (y == np.trunc(y))).all(),  # False on NaN
                   f"integers in [0, {k})"),
        "probs": ((n, k), on_simplex, ON_SIMPLEX),
    })
    return probs, blocks["labels"].astype(np.int64), k


def read_records(fh, last=None):
    """Rows 1..``last`` (every row when None) of a records file open as binary ``fh``.

    Line e must be a whole line of at most ``HEADER_MAX_BYTES`` bytes holding a JSON
    object whose ``epoch`` is the int e and whose ``test_acc``, ``test_ece`` and
    ``test_nll`` are JSON floats or null; another raises ``ValueError`` naming the file
    and the line. A longer line is refused before the rest of it is read.
    """
    rows = []
    lines = iter(lambda: fh.readline(HEADER_MAX_BYTES + 1), b"")
    for epoch, line in enumerate(islice(lines, last), start=1):
        if len(line) > HEADER_MAX_BYTES:
            raise ValueError(f"{fh.name}: line {epoch} is longer than {HEADER_MAX_BYTES} bytes")
        row = json_object(line, f"{fh.name}: line {epoch}")
        if type(row.get("epoch")) is not int or row["epoch"] != epoch or not line.endswith(b"\n"):
            raise ValueError(f"{fh.name}: line {epoch} is not a complete row for epoch {epoch}")
        for key in ("test_acc", "test_ece", "test_nll"):
            if not (row.get(key) is None or type(row[key]) is float):
                raise ValueError(f"{fh.name}: line {epoch} has {key} {json.dumps(row[key])}, "
                                 "not a float or null")
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


class _SeedWriter:
    """One seed's files under a ``run_layout``. Set-up makes their directories; with ``resume``
    it first refuses a missing ``.state``, then loads it into ``run``, refuses one saved past
    the run's last epoch, and cuts the records back to the state's epoch."""

    def __init__(self, layout, run, labels, epochs, resume):
        self.labels, self.epochs = labels, epochs
        self.files = files = seed_files(layout, run.seed)
        if resume and not files["state"].exists():
            raise FileNotFoundError(f"no training state to resume at {files['state']}")
        for path in (layout["records"], layout["checkpoints"], files["traces"]):
            path.mkdir(parents=True, exist_ok=True)
        if resume:
            run.epoch = _load_train_state(files["state"], run.model, run.opt_state, run.strategy)
            run.rows = _truncate_records(files["records"], run.epoch)
        else:
            files["records"].write_bytes(b"")

    def epoch(self, run, row, ev):
        """Write an epoch's eval ``.trace`` (and on the last epoch its CSV), then append
        its record row, closed and so flushed, then save its ``.state``."""
        if ev is not None:
            with run.timed("trace_write"):
                trace = trace_file(self.files["traces"], run.epoch)
                write_blocks(trace, TRACE_MAGIC, {}, {"labels": self.labels, "probs": ev["preds"]})
                if run.epoch == self.epochs:
                    write_trace_csv(trace.with_suffix(".csv"), ev["preds"], self.labels)
        with open(self.files["records"], "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        with run.timed("state_write"):
            _save_train_state(self.files["state"], run.model, run.opt_state, run.strategy,
                              run.epoch)

    def finish(self, run):
        """Write the seed's final checkpoint and, unless frozen, its store CSV."""
        save_checkpoint(run.model, self.files["ckpt"])
        if not run.strategy.frozen:
            run.strategy.store.save_csv(self.files["store"])


def run_single_seed(model_spec, train_set: Dataset, test_set: Dataset,
                    cfg: TrainConfig, seed, layout, progress=None, stop_after=None, resume=False):
    """Train one seed, writing all its files; returns its ``SeedRun``, eval buffers freed.

    ``stop_after``/``resume`` exercise the checkpoint-resume path: stopping
    after epoch e and resuming later replays epochs e+1..T identically.
    """
    t0 = time.perf_counter()
    run = SeedRun(seed, init_model(dc_replace(model_spec, seed=seed)), make_optimizer(cfg),
                  TargetStrategy(cfg.strategy, train_set.labels, train_set.k, cfg.epochs))
    writer = _SeedWriter(layout, run, test_set.labels, cfg.epochs, resume)
    last_epoch = cfg.epochs if stop_after is None else min(stop_after, cfg.epochs)
    while run.epoch < last_epoch:
        row, ev = run.step(train_set, test_set, cfg)
        writer.epoch(run, row, ev)
        if progress is not None:
            progress(seed, row)
    if last_epoch == cfg.epochs:
        writer.finish(run)
    run.model.scratch.clear()
    run.wall_clock_s = time.perf_counter() - t0
    return run


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, then restore its count.

    BLAS threads split a product's rows where they choose, and some kernels sum a
    short block of rows in another order, so the bytes would depend on the thread
    count. Under a BLAS without these symbols nothing changes."""
    import ctypes  # here, not at the top, so that ``import bsdlab`` stays as fast

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        blas = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        get_threads = None
    if get_threads is None:  # outside the handler, so the block's errors chain to nothing
        yield
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def run_experiment(model_spec, train_set: Dataset, test_set: Dataset,
                   cfg: TrainConfig, seeds, run_dir, config_snapshot=None,
                   progress=None):
    """Train every seed with independent derived streams; returns their SeedRuns.

    Deletes a previous run's ``run_layout`` entries, then writes ``config_snapshot`` (the
    resolved config) to ``config.resolved``. Per-seed wall-clock totals and ``phase_s`` go
    to ``timing.txt``, so every other artifact is byte-reproducible from (config, seeds).
    numpy's bundled OpenBLAS runs one thread meanwhile (``_one_blas_thread``). Seeds that
    break ``SEEDS_RULE`` raise ``ValueError`` before anything is deleted or made.
    """
    error = check_error("seeds", seeds, *SEEDS_RULE)
    if error:
        raise ValueError(error)
    layout = run_layout(run_dir)
    for path in previous_run(layout):  # other files in the directory stay
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    layout["root"].mkdir(parents=True, exist_ok=True)
    if config_snapshot is not None:
        write_json(layout["config"], config_snapshot)
    with _one_blas_thread():
        runs = [run_single_seed(model_spec, train_set, test_set, cfg, seed, layout,
                                progress=progress) for seed in seeds]
    with atomic_open(layout["timing"], "w") as fh:
        fh.writelines(run.timing_line() for run in runs)
    return runs
