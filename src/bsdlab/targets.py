"""Per-sample Dirichlet evidence store, its discounted update, and the strategy layer.

The store keeps each sample's soft target as a normalized row ``y``, and one
total evidence mass ``A`` (the sum of a row's concentration parameters) for
all rows: every row starts at the same A0, and each epoch's update observes
every row once. One observation of a prediction ``p`` performs

    w = gamma * A / (gamma * A + 1)
    y <- w * y + (1 - w) * p
    A <- gamma * A + 1

which is the normalized form of discounting the concentration vector by
``gamma`` and adding ``p`` as fractional evidence.

The strategy layer runs the related target-construction schemes as stores of
the same recursion: plain one-hot training and label smoothing are frozen
stores, last-pass distillation (dlb) starts from the one-hot rows with
A0 = 1 and gamma = 0, so it keeps the last prediction, progressive
self-distillation (ps-kd) is that store with a linearly ramped one-hot mix,
and the bias-corrected zero-initialized exponential moving average (te) is
the one-hot start with the improper prior A0 = 0 and gamma = te_momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_table
from .numerics import SIMPLEX_TOL, _as_labels, _class_reduce, on_simplex, one_hot
from .settings import Settings, setting

STRATEGY_MODES = ("bsd", "baseline", "label-smoothing", "ps-kd", "dlb", "te")

__all__ = [
    "EvidenceStore",
    "init_prior",
    "update_weight",
    "sharpen",
    "StrategyConfig",
    "TargetStrategy",
    "STRATEGY_MODES",
]


@dataclass
class EvidenceStore:
    """Soft targets ``y`` (n rows on the simplex) and their one evidence mass ``mass``."""

    y: np.ndarray
    mass: float
    gamma: float

    def update(self, perm, preds):
        """Discounted Bayesian update of row ``perm[j]`` from ``preds[j]``, for a ``perm`` of all
        n rows and (n, k) ``preds`` that pass ``on_simplex``; else raise and write nothing."""
        n = len(self.y)
        if np.shape(preds) != self.y.shape or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"an update takes a permutation of all {n} rows and their "
                             f"{self.y.shape} predictions")
        if not on_simplex(preds):
            raise ValueError("prediction off the simplex: a negative or non-finite entry, "
                             f"or a row sum off 1 by more than {SIMPLEX_TOL}")
        w = update_weight(self.gamma, self.mass)
        self.y[perm] = w * self.y[perm] + (1.0 - w) * preds
        self.mass = self.mass_after(1)

    def mass_after(self, updates):
        """The mass after ``updates`` more updates: ``A <- gamma * A + 1`` each."""
        mass = self.mass
        for _ in range(updates):
            mass = self.gamma * mass + 1.0
        return mass

    def save_csv(self, path):
        """``sample_id,A,y_0..y_{k-1}`` rows, ``A`` repeating the mass, floats as ``repr``,
        ``\\r\\n`` ends: an export bsdlab never reads back (a run's ``.state`` holds the store)."""
        n, k = self.y.shape
        header = ["sample_id", "A"] + [f"y_{j}" for j in range(k)]
        write_table(path, header, [np.arange(n), np.full(n, self.mass), self.y], newline="\r\n")


def update_weight(gamma, A):
    """Trust placed on the stored target in one update: gamma*A / (gamma*A + 1).

    Strictly increasing in A for fixed gamma; exactly gamma when A sits at the
    stationary mass 1 / (1 - gamma).
    """
    gA = gamma * np.asarray(A, dtype=np.float64)
    return gA / (gA + 1.0)


def init_prior(labels, k, c, epsilon, gamma) -> EvidenceStore:
    """Concentration ``c`` on the labeled class, ``epsilon`` elsewhere, normalized.

    The stored row is the prior mean ``alpha0 / A0`` with ``A0 = c + (k-1)*epsilon``.
    """
    if c <= 0.0:
        raise ValueError("prior strength c must be > 0")
    if epsilon < 0.0:
        raise ValueError("off-class prior epsilon must be >= 0")
    labels = _as_labels(labels, None, k)
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")
    n = labels.shape[0]
    a0 = c + (k - 1) * epsilon
    y = np.full((n, k), epsilon / a0, dtype=np.float64)
    y[np.arange(n), labels] = c / a0
    return EvidenceStore(y=y, mass=float(a0), gamma=gamma)


def sharpen(target, tau):
    """Power transform target^(1/tau) renormalized to the simplex.

    tau = 1 is the identity; tau < 1 concentrates mass on the dominant class;
    one-hot rows are fixed points for every tau. Operates on the last axis.
    A row whose every powered entry underflows to 0 is powered again after
    division by its own maximum, so its top entry powers to exactly 1.
    """
    if tau <= 0.0:
        raise ValueError("sharpening tau must be > 0")
    t = np.asarray(target, dtype=np.float64)
    if tau == 1.0:
        return t.copy()
    powered = t ** (1.0 / tau)
    total = _class_reduce(np.add, powered, keepdims=True)
    lost = (total == 0.0)[..., 0]
    if lost.any():
        powered[lost] = (t[lost] / t[lost].max(axis=-1, keepdims=True)) ** (1.0 / tau)
        total[lost] = _class_reduce(np.add, powered[lost], keepdims=True)
    return powered / total


@dataclass
class StrategyConfig(Settings):
    """Which target-construction scheme to run, with its mode-specific knobs."""

    mode: str = setting("bsd", lambda v: v in STRATEGY_MODES,
                        f"one of {list(STRATEGY_MODES)} (unknown strategy mode)")
    gamma: float = setting(0.95, lambda v: 0.0 <= v <= 1.0, "in [0,1]")
    c: float = setting(1000.0, lambda v: v > 0.0, "> 0")
    epsilon: float = setting(0.0, lambda v: v >= 0.0, ">= 0")
    # label-smoothing mass spread over all classes
    ls_alpha: float = setting(0.1, lambda v: 0.0 <= v < 1.0, "in [0,1)")
    # terminal mixing weight, ramped linearly over epochs
    pskd_alpha: float = setting(0.8, lambda v: 0.0 <= v <= 1.0, "in [0,1]")
    te_momentum: float = setting(0.6, lambda v: 0.0 < v < 1.0, "in (0,1)")


class TargetStrategy:
    """Stateful target provider for one training run, backed by one EvidenceStore.

    ``__init__`` picks each mode's initial rows, initial mass, discount and
    whether the store is frozen (never updated); see the module docstring.
    Served rows are ``(1 - a) * onehot + a * y`` with ``a = 1`` except for
    ps-kd, whose ``a`` ramps linearly to ``pskd_alpha``. The training loop
    calls ``targets(perm, epoch)`` once for the epoch's rows and, after the
    epoch's last optimizer step, ``update(perm, preds)`` once, so every batch
    trains on the pre-update rows.
    """

    def __init__(self, cfg: StrategyConfig, labels, k, total_epochs):
        self.cfg = cfg
        self.labels = np.asarray(labels)
        self.total_epochs = total_epochs
        self.onehot = one_hot(self.labels, k)
        mode = cfg.mode
        self.frozen = mode in ("baseline", "label-smoothing")
        if mode == "bsd":
            self.store = init_prior(self.labels, k, cfg.c, cfg.epsilon, cfg.gamma)
            return
        y0 = self.onehot.copy()
        if mode == "label-smoothing":
            y0 = (1.0 - cfg.ls_alpha) * self.onehot + cfg.ls_alpha / k
        A0, gamma = (0.0, cfg.te_momentum) if mode == "te" else (1.0, 0.0)
        self.store = EvidenceStore(y0, A0, gamma)

    def _mix(self, epoch):
        """Weight a(epoch) of the stored row against the one-hot label."""
        if self.cfg.mode != "ps-kd":
            return 1.0
        if self.total_epochs <= 0:
            return 0.0
        return self.cfg.pskd_alpha * min(epoch, self.total_epochs) / self.total_epochs

    def targets(self, indices, epoch):
        """Target rows for the given sample indices at the given 1-based epoch."""
        a = self._mix(epoch)
        if a == 1.0:
            return self.store.y[indices]  # fancy indexing copies
        return (1.0 - a) * self.onehot[indices] + a * self.store.y[indices]

    def update(self, indices, preds):
        """Fold predictions into the store (post-step); frozen stores ignore them."""
        if not self.frozen:
            self.store.update(indices, preds)

    def mean_evidence(self):
        # the mean of n copies of the mass, as records hold it: not always the mass's own bits
        n = len(self.labels)
        return None if self.frozen else float(np.broadcast_to(self.store.mass, n).mean())

    def current_targets(self, epoch):
        """Every sample's target row, mixed from the store as ``targets`` mixes it at
        ``epoch`` and not sharpened by ``tau``. ``train_epoch`` takes it after the
        epoch's store update, so it is not the row that epoch served."""
        return self.targets(np.arange(self.labels.shape[0]), epoch)
