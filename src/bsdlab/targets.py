"""Per-sample Dirichlet evidence store, its discounted update, and the strategy layer.

The store keeps each sample's soft target as a normalized row ``y`` together
with the total evidence mass ``A`` (the sum of the underlying concentration
parameters). One observation of a prediction ``p`` performs

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
from .numerics import _class_reduce, one_hot
from .settings import Settings, setting

SIMPLEX_RENORM_TOL = 1e-6

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


def _check_pred(pred):
    """Validate prediction rows; renormalize tiny drift, reject real deviations.

    Each row decides on its own: a row whose sum is within 1e-12 of 1 keeps
    its bytes (dividing by a 1-ulp-off sum would perturb every entry), a row
    that drifts by up to the tolerance is divided by its own sum, and a
    negative entry or a larger drift in any row is treated as a caller bug.
    A NaN entry is passed through: it makes its row NaN but raises nothing,
    and it never hides a negative entry, because ``fmin`` skips NaNs. Rows
    are summed in C order, so a row's sum does not depend on the array's
    layout.
    """
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    if pred.size and np.fmin.reduce(pred, axis=None) < 0.0:
        raise ValueError("prediction has negative entries")
    s = _class_reduce(np.add, pred, keepdims=True)
    err = np.abs(s - 1.0)
    if np.max(err, initial=0.0) <= 1e-12:  # NaN-propagating, so False for a NaN row
        return pred
    if np.any(err > SIMPLEX_RENORM_TOL):
        raise ValueError(
            f"prediction off the simplex by {err.max():.3e} (> {SIMPLEX_RENORM_TOL})"
        )
    return np.where(err <= 1e-12, pred, pred / s)


@dataclass
class EvidenceStore:
    """Soft targets ``y`` (n rows on the simplex) and evidence masses ``A`` (n positives)."""

    y: np.ndarray
    A: np.ndarray
    gamma: float

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def k(self):
        return self.y.shape[1]

    def update_rows(self, indices, preds):
        """Discounted Bayesian update of the selected rows from their predictions."""
        preds = _check_pred(preds)
        A = self.A[indices]
        w = update_weight(self.gamma, A)
        self.y[indices] = w[:, None] * self.y[indices] + (1.0 - w)[:, None] * preds
        self.A[indices] = self.gamma * A + 1.0

    def save_csv(self, path):
        """``sample_id,A,y_0..y_{k-1}`` rows, floats as ``repr``, ``\\r\\n`` line ends: an
        export that bsdlab never reads back (a run's ``.state`` holds the store)."""
        header = ["sample_id", "A"] + [f"y_{j}" for j in range(self.k)]
        write_table(path, header, [np.arange(self.n), self.A, self.y], newline="\r\n")


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
    labels = np.asarray(labels)
    if c <= 0.0:
        raise ValueError("prior strength c must be > 0")
    if epsilon < 0.0:
        raise ValueError("off-class prior epsilon must be >= 0")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")
    n = labels.shape[0]
    a0 = c + (k - 1) * epsilon
    y = np.full((n, k), epsilon / a0, dtype=np.float64)
    y[np.arange(n), labels] = c / a0
    A = np.full(n, a0, dtype=np.float64)
    return EvidenceStore(y=y, A=A, gamma=gamma)


def sharpen(target, tau):
    """Power transform target^(1/tau) renormalized to the simplex.

    tau = 1 is the identity; tau < 1 concentrates mass on the dominant class;
    one-hot rows are fixed points for every tau. Operates on the last axis.
    """
    if tau <= 0.0:
        raise ValueError("sharpening tau must be > 0")
    t = np.asarray(target, dtype=np.float64)
    if tau == 1.0:
        return t.copy()
    powered = t ** (1.0 / tau)
    return powered / _class_reduce(np.add, powered, keepdims=True)


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
        self.store = EvidenceStore(y0, np.full(self.labels.shape[0], A0), gamma)

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
            self.store.update_rows(indices, preds)

    def mean_evidence(self):
        return None if self.frozen else float(self.store.A.mean())

    def current_targets(self, epoch):
        """Snapshot of every sample's target row as it would be served at ``epoch``."""
        return self.targets(np.arange(self.labels.shape[0]), epoch)
