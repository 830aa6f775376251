"""Calibration metrics, OOD/perturbation metrics, and the dark-knowledge decomposition.

All operations are pure over immutable prediction traces. Every metric that
takes labels checks them first with ``numerics._as_labels``. Conditional means
and binned statistics use numpy's deterministic reductions so repeated calls
give identical bytes; the class-mean matrix is symmetrized as (M + M^T) / 2,
which is bitwise symmetric because float addition commutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PROB_FLOOR, _as_labels, _class_reduce, kl_div, softmax

__all__ = [
    "CalibrationReport",
    "DarkKnowledge",
    "ece",
    "sce",
    "ace",
    "nll",
    "accuracy",
    "reliability_bins",
    "calibration_report",
    "auroc",
    "mean_flip_probability",
    "mu_matrix",
    "delta_decomposition",
    "fit_temperature",
    "temperature_scale",
    "temp_adjusted_kl",
    "mean_kl",
]

DEFAULT_BINS = 15


@dataclass
class CalibrationReport:
    accuracy: float
    ece: float
    sce: float
    ace: float
    nll: float
    bins: int
    bin_lo: list
    bin_hi: list
    bin_conf: list
    bin_acc: list
    bin_count: list


@dataclass
class DarkKnowledge:
    mu: np.ndarray                 # (k, k), symmetric by construction
    delta: np.ndarray              # (n, k) per-sample deviations
    delta_comp: np.ndarray         # (n, k) subtraction residual; delta + delta_comp = pred - mu exactly
    delta_l1: np.ndarray           # (n,) L1 magnitudes
    class_mean_delta_l1: np.ndarray  # (k,) mean magnitude per label class
    mu_row_sums: np.ndarray        # (k,) diagnostics; symmetrization need not preserve row sums


def _as_preds(preds):
    p = np.asarray(preds, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("need a nonempty (n, k) prediction array")
    if not np.all(np.isfinite(p)):
        raise ValueError("predictions hold a non-finite entry")
    return p


def _bin_index(conf, bins):
    idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
    return np.maximum(idx, 0)


def _check_bins(bins):
    if bins < 1:
        raise ValueError("bins must be >= 1")


def _bin_slices(idx, bins):
    """(order, bounds): ``order`` lists the samples bin by bin, each bin's in their
    original order, and bin b is ``order[bounds[b]:bounds[b + 1]]``. A mean over
    that contiguous slice has the bytes of the mean over a boolean bin mask."""
    bounds = [0] + np.cumsum(np.bincount(idx, minlength=bins)).tolist()
    # the smallest integer type that holds every bin lets numpy radix-sort the index
    return np.argsort(idx.astype(np.min_scalar_type(bins - 1)), kind="stable"), bounds


def accuracy(preds, labels):
    preds = _as_preds(preds)
    labels = _as_labels(labels, *preds.shape)
    return float(np.mean(preds.argmax(axis=1) == labels))


def ece(preds, labels, bins=DEFAULT_BINS):
    """Expected calibration error over equal-width max-probability bins."""
    return _ece_from_bins(reliability_bins(preds, labels, bins))


def _ece_from_bins(rows):
    """Count-weighted mean of |accuracy - confidence| over ``reliability_bins`` rows."""
    n = sum(r["count"] for r in rows)
    return float(sum((r["count"] / n) * abs(r["acc"] - r["conf"]) for r in rows if r["count"]))


def sce(preds, labels, bins=DEFAULT_BINS):
    """Static calibration error: classwise equal-width bins, count-weighted."""
    preds = _as_preds(preds)
    labels = _as_labels(labels, *preds.shape)
    _check_bins(bins)
    n, k = preds.shape
    total = 0.0
    for j in range(k):
        pj = preds[:, j]
        order, bounds = _bin_slices(_bin_index(pj, bins), bins)
        pj, hit = pj[order], (labels[order] == j).astype(np.float64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                total += ((hi - lo) / n) * abs(hit[lo:hi].mean() - pj[lo:hi].mean())
    return float(total / k)


def ace(preds, labels, bins=DEFAULT_BINS):
    """Adaptive calibration error: classwise equal-mass bins, bin-averaged."""
    preds = _as_preds(preds)
    labels = _as_labels(labels, *preds.shape)
    _check_bins(bins)
    n, k = preds.shape
    # the equal-mass bins of np.array_split: the first n % bins hold one more
    size, extra = divmod(n, bins)
    bounds = np.cumsum([0] + [size + 1] * extra + [size] * (bins - extra)).tolist()
    total = 0.0
    used = 0
    for j in range(k):
        pj = preds[:, j]
        order = np.argsort(pj, kind="stable")
        pj, hit = pj[order], (labels[order] == j).astype(np.float64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                total += abs(hit[lo:hi].mean() - pj[lo:hi].mean())
                used += 1
    return float(total / used)


def nll(preds, labels):
    """Mean negative log-likelihood of the true labels."""
    preds = _as_preds(preds)
    labels = _as_labels(labels, *preds.shape)
    p_true = preds[np.arange(preds.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(p_true, PROB_FLOOR))))


def reliability_bins(preds, labels, bins=DEFAULT_BINS):
    """Per-bin (lo, hi, mean confidence, empirical accuracy, count)."""
    return _accuracy_and_bins(preds, labels, bins)[1]


def _accuracy_and_bins(preds, labels, bins):
    """``(accuracy(preds, labels), reliability_bins(preds, labels, bins))`` from one argmax."""
    preds = _as_preds(preds)
    labels = _as_labels(labels, *preds.shape)
    _check_bins(bins)
    hits = preds.argmax(axis=1) == labels
    conf = _class_reduce(np.maximum, preds)
    order, bounds = _bin_slices(_bin_index(conf, bins), bins)
    conf = conf[order]
    correct = hits.astype(np.float64)[order]
    rows = []
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rows.append({
            "bin_lo": b / bins,
            "bin_hi": (b + 1) / bins,
            "conf": float(conf[lo:hi].mean()) if hi > lo else 0.0,
            "acc": float(correct[lo:hi].mean()) if hi > lo else 0.0,
            "count": hi - lo,
        })
    return float(np.mean(hits)), rows


def calibration_report(preds, labels) -> CalibrationReport:
    acc, rows = _accuracy_and_bins(preds, labels, DEFAULT_BINS)
    return CalibrationReport(
        accuracy=acc,
        ece=_ece_from_bins(rows),
        sce=sce(preds, labels),
        ace=ace(preds, labels),
        nll=nll(preds, labels),
        bins=DEFAULT_BINS,
        bin_lo=[r["bin_lo"] for r in rows],
        bin_hi=[r["bin_hi"] for r in rows],
        bin_conf=[r["conf"] for r in rows],
        bin_acc=[r["acc"] for r in rows],
        bin_count=[r["count"] for r in rows],
    )


def _midranks(values):
    """1-based ranks of a nonempty array, ties sharing the mean of their ranks;
    every NaN is a tie group of its own."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    n = sorted_vals.shape[0]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(id_scores, ood_scores):
    """Rank-based AUROC with midrank tie handling; ID is the positive class."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("both score sets must be nonempty")
    pooled = np.concatenate([id_scores, ood_scores])
    ranks = _midranks(pooled)
    n_id, n_ood = id_scores.size, ood_scores.size
    rank_sum = ranks[:n_id].sum()
    return float((rank_sum - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))


def mean_flip_probability(sequences):
    """Fraction of adjacent frames whose class changes, sample-averaged.

    ``sequences`` is one array-like of equal-length sequences of class indices,
    ``(n, frames)``; ragged input is not accepted. Every sequence needs at least
    two frames.
    """
    frames = np.asarray(sequences)
    if frames.shape[0] == 0:
        raise ValueError("no sequences given")
    if frames.ndim != 2:
        raise ValueError("expected (n, frames) class indices")
    if frames.shape[1] < 2:
        raise ValueError("prediction sequence shorter than 2 frames")
    return float(np.mean(np.mean(frames[:, 1:] != frames[:, :-1], axis=1)))


def mu_matrix(preds, labels, k):
    """Symmetrized class-conditional mean matrix.

    Row i of the raw matrix is the mean prediction over samples labeled i;
    the result is (M + M^T) / 2. Missing classes are a hard error.
    """
    preds = _as_preds(preds)
    if k != preds.shape[1]:
        raise ValueError(f"k={k} does not match the predictions' {preds.shape[1]} classes")
    labels = _as_labels(labels, preds.shape[0], k)
    missing = [j for j in range(k) if not np.any(labels == j)]
    if missing:
        raise ValueError(f"no samples for classes {missing}")
    M = np.empty((k, k), dtype=np.float64)
    for j in range(k):
        M[j] = preds[labels == j].mean(axis=0)
    return (M + M.T) / 2.0


def delta_decomposition(preds, labels, mu) -> DarkKnowledge:
    """Per-sample deviation from the class row: delta_i = pred_i - mu[label_i].

    A single float64 cannot always hold pred - mu exactly (the rounded
    difference re-added to mu can land one ulp off when an entry is far
    smaller than its class mean), so the subtraction residual is kept
    alongside delta; delta + delta_comp equals pred - mu exactly, so the
    test oracle ``reconstruct_predictions`` in ``tests/oracles.py`` rebuilds
    each prediction bit for bit.
    """
    preds = _as_preds(preds)
    mu = np.asarray(mu, dtype=np.float64)
    k = preds.shape[1]
    if mu.shape != (k, k):
        raise ValueError(f"mu has shape {mu.shape}, not ({k}, {k}) for {k}-class predictions")
    labels = _as_labels(labels, preds.shape[0], k)
    a, b = preds, -mu[labels]
    delta = a + b
    bb = delta - a
    comp = (a - (delta - bb)) + (b - bb)  # Knuth two-sum residual
    mags = _class_reduce(np.add, np.abs(delta))
    class_means = np.array([
        mags[labels == j].mean() if np.any(labels == j) else 0.0 for j in range(k)
    ])
    return DarkKnowledge(mu=mu, delta=delta, delta_comp=comp, delta_l1=mags,
                         class_mean_delta_l1=class_means, mu_row_sums=mu.sum(axis=1))


def _logits_from_preds(preds):
    # Log-probabilities serve as surrogate logits; valid up to the shift degeneracy.
    return np.log(np.maximum(_as_preds(preds), PROB_FLOOR))


def _temperature_nll(logits, labels):
    """``t -> nll(softmax(logits / t), labels)`` for t > 0, bit for bit, with
    everything that does not depend on ``t`` hoisted out of the returned objective.

    Rounded division by t > 0 is monotone, so max(z / t) == max(z) / t, and
    logits / t is finite iff max|logits| / t is. The work buffer is class-major,
    (k, n), so every step is a whole-array call over contiguous rows; each
    element sees the same operations as in the row-major original. ``labels``
    must already have passed ``_as_labels``.
    """
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    n, k = logits.shape
    abs_max = float(np.abs(logits).max())
    row_max = _class_reduce(np.maximum, logits)
    logits_t = np.ascontiguousarray(logits.T)
    true_flat = labels * n + np.arange(n)  # flat index of each sample's label in e
    e = np.empty((k, n))
    shift = np.empty(n)
    p_true = np.empty(n)

    def objective(t):
        if not math.isfinite(abs_max / t):
            raise ValueError("non-finite logits")
        np.divide(logits_t, t, out=e)
        np.divide(row_max, t, out=shift)
        np.subtract(e, shift, out=e)
        np.exp(e, out=e)
        # numpy sums 8 or more terms pairwise over row-major rows, so wide rows
        # are copied back to that layout first
        sums = _class_reduce(np.add, e.T if k < 8 else e.T.copy())
        np.divide(e.take(true_flat), sums, out=p_true)
        np.maximum(p_true, PROB_FLOOR, out=p_true)
        return float(-np.mean(np.log(p_true, out=p_true)))

    return objective


def fit_temperature(logits, labels, lo=0.05, hi=20.0):
    """Scalar temperature minimizing NLL of softmax(logits / T), by golden section.

    ``logits`` may be genuine logits or log-probabilities. The search stops once
    the bracket is narrower than 2**-26 (about sqrt(eps)) of its midpoint, and
    returns the midpoint. Near its minimum the NLL is quadratic in T, so over
    that width a float64 NLL moves by about one ulp and cannot place T more
    finely. The search also stops once the probes no longer lie strictly inside
    the bracket, which happens only at subnormal widths, where 2**-27 * (a + b)
    underflows. The rule is fixed, so the result is deterministic.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[0] == 0:
        raise ValueError("empty validation set")
    if logits.ndim != 2:
        raise ValueError("need an (n, k) logit array")
    labels = _as_labels(labels, *logits.shape)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError(f"temperature search needs finite 0 < lo < hi, got lo={lo}, hi={hi}")
    if np.all(logits == logits[:, :1]):
        raise ValueError("degenerate logits: all classes identical")
    objective = _temperature_nll(logits, labels)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0  # a float, so no probe is a numpy scalar
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a >= 2.0 ** -27 * (a + b) and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return float((a + b) / 2.0)


def temperature_scale(preds, temperature):
    """Re-normalize predictions at the given temperature: softmax(log(p) / T)."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    return softmax(_logits_from_preds(preds) / temperature)


def temp_adjusted_kl(snapshot_preds, final_preds, temperatures):
    """Mean KL(final at T_final, snapshot at T_snapshot) over aligned samples."""
    t_snap, t_final = temperatures
    return mean_kl(temperature_scale(final_preds, t_final),
                   temperature_scale(snapshot_preds, t_snap))


def mean_kl(p, q):
    """Mean KL(p, q) over aligned rows of two (n, k) prediction sets."""
    if p.shape != q.shape:
        raise ValueError("snapshot/final prediction sets are misaligned")
    return float(np.mean(kl_div(p, q)))

