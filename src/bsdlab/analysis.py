"""Calibration metrics, OOD/perturbation metrics, and the dark-knowledge decomposition.

All operations are pure over immutable prediction traces. Conditional means
and binned statistics use numpy's deterministic reductions so repeated calls
give identical bytes; the class-mean matrix is symmetrized as (M + M^T) / 2,
which is bitwise symmetric because float addition commutes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .numerics import PROB_FLOOR, kl_div, softmax

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
    "reconstruct_predictions",
    "fit_temperature",
    "temperature_scale",
    "temp_adjusted_kl",
    "mean_kl",
    "write_report_json",
    "write_mu_csv",
    "write_bins_csv",
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
    return p


def _bin_index(conf, bins):
    idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
    return np.maximum(idx, 0)


def accuracy(preds, labels):
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    return float(np.mean(preds.argmax(axis=1) == labels))


def ece(preds, labels, bins=DEFAULT_BINS):
    """Expected calibration error over equal-width max-probability bins."""
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    conf = preds.max(axis=1)
    correct = (preds.argmax(axis=1) == labels).astype(np.float64)
    idx = _bin_index(conf, bins)
    n = conf.shape[0]
    total = 0.0
    for b in range(bins):
        mask = idx == b
        nb = int(mask.sum())
        if nb == 0:
            continue
        total += (nb / n) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


def sce(preds, labels, bins=DEFAULT_BINS):
    """Static calibration error: classwise equal-width bins, count-weighted."""
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    n, k = preds.shape
    total = 0.0
    for j in range(k):
        pj = preds[:, j]
        hit = (labels == j).astype(np.float64)
        idx = _bin_index(pj, bins)
        for b in range(bins):
            mask = idx == b
            nb = int(mask.sum())
            if nb == 0:
                continue
            total += (nb / n) * abs(hit[mask].mean() - pj[mask].mean())
    return float(total / k)


def ace(preds, labels, bins=DEFAULT_BINS):
    """Adaptive calibration error: classwise equal-mass bins, bin-averaged."""
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    n, k = preds.shape
    total = 0.0
    used = 0
    for j in range(k):
        pj = preds[:, j]
        hit = (labels == j).astype(np.float64)
        order = np.argsort(pj, kind="stable")
        for chunk in np.array_split(order, bins):
            if chunk.size == 0:
                continue
            total += abs(hit[chunk].mean() - pj[chunk].mean())
            used += 1
    return float(total / used)


def nll(preds, labels, floor=PROB_FLOOR):
    """Mean negative log-likelihood of the true labels."""
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    p_true = preds[np.arange(preds.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(p_true, floor))))


def reliability_bins(preds, labels, bins=DEFAULT_BINS):
    """Per-bin (lo, hi, mean confidence, empirical accuracy, count)."""
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    conf = preds.max(axis=1)
    correct = (preds.argmax(axis=1) == labels).astype(np.float64)
    idx = _bin_index(conf, bins)
    rows = []
    for b in range(bins):
        mask = idx == b
        nb = int(mask.sum())
        rows.append({
            "bin_lo": b / bins,
            "bin_hi": (b + 1) / bins,
            "conf": float(conf[mask].mean()) if nb else 0.0,
            "acc": float(correct[mask].mean()) if nb else 0.0,
            "count": nb,
        })
    return rows


def calibration_report(preds, labels, bins=DEFAULT_BINS) -> CalibrationReport:
    rows = reliability_bins(preds, labels, bins)
    return CalibrationReport(
        accuracy=accuracy(preds, labels),
        ece=ece(preds, labels, bins),
        sce=sce(preds, labels, bins),
        ace=ace(preds, labels, bins),
        nll=nll(preds, labels),
        bins=bins,
        bin_lo=[r["bin_lo"] for r in rows],
        bin_hi=[r["bin_hi"] for r in rows],
        bin_conf=[r["conf"] for r in rows],
        bin_acc=[r["acc"] for r in rows],
        bin_count=[r["count"] for r in rows],
    )


def _midranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < sorted_vals.shape[0]:
        j = i
        while j + 1 < sorted_vals.shape[0] and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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
    """Fraction of adjacent frames whose argmax class changes, sample-averaged.

    ``sequences`` is one array-like of equal-length sequences: ``(n, frames)``
    class indices or ``(n, frames, k)`` probability rows; ragged input is not
    accepted. Every sequence needs at least two frames.
    """
    frames = np.asarray(sequences)
    if frames.shape[0] == 0:
        raise ValueError("no sequences given")
    if frames.ndim == 3:
        frames = frames.argmax(axis=2)
    if frames.ndim != 2:
        raise ValueError("expected (n, frames) class indices or (n, frames, k) probabilities")
    if frames.shape[1] < 2:
        raise ValueError("prediction sequence shorter than 2 frames")
    return float(np.mean(np.mean(frames[:, 1:] != frames[:, :-1], axis=1)))


def mu_matrix(preds, labels, k):
    """Symmetrized class-conditional mean matrix.

    Row i of the raw matrix is the mean prediction over samples labeled i;
    the result is (M + M^T) / 2. Missing classes are a hard error.
    """
    preds = _as_preds(preds)
    labels = np.asarray(labels)
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
    alongside delta; delta + delta_comp equals pred - mu exactly and
    ``reconstruct_predictions`` is bit-exact.
    """
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    mu = np.asarray(mu, dtype=np.float64)
    a, b = preds, -mu[labels]
    delta = a + b
    bb = delta - a
    comp = (a - (delta - bb)) + (b - bb)  # Knuth two-sum residual
    mags = np.abs(delta).sum(axis=1)
    k = mu.shape[0]
    class_means = np.array([
        mags[labels == j].mean() if np.any(labels == j) else 0.0 for j in range(k)
    ])
    return DarkKnowledge(mu=mu, delta=delta, delta_comp=comp, delta_l1=mags,
                         class_mean_delta_l1=class_means, mu_row_sums=mu.sum(axis=1))


def reconstruct_predictions(dk: DarkKnowledge, labels):
    """Exact inverse of the decomposition: mu[label] + delta, bit for bit.

    math.fsum rounds the exact three-term sum once; since the true sum is the
    original prediction (a representable double), the result is identical.
    """
    labels = np.asarray(labels)
    mu_rows = dk.mu[labels]
    n, k = dk.delta.shape
    out = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        for j in range(k):
            out[i, j] = math.fsum((mu_rows[i, j], dk.delta[i, j], dk.delta_comp[i, j]))
    return out


def _logits_from_preds(preds, floor=PROB_FLOOR):
    # Log-probabilities serve as surrogate logits; valid up to the shift degeneracy.
    return np.log(np.maximum(_as_preds(preds), floor))


def _temperature_nll(logits, labels):
    """``t -> nll(softmax(logits / t), labels)`` for t > 0, bit for bit, with
    everything that does not depend on ``t`` hoisted out of the returned objective.

    Rounded division by t > 0 is monotone, so max(z / t) == max(z) / t, and
    logits / t is finite iff max|logits| / t is.
    """
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    abs_max = float(np.abs(logits).max())
    row_max = logits.max(axis=-1)
    rows = np.arange(logits.shape[0])
    e = np.empty_like(logits)

    def objective(t):
        if not math.isfinite(abs_max / t):
            raise ValueError("non-finite logits")
        np.divide(logits, t, out=e)
        np.subtract(e, (row_max / t)[:, None], out=e)
        np.exp(e, out=e)
        p_true = e[rows, labels] / e.sum(axis=-1)
        return float(-np.mean(np.log(np.maximum(p_true, PROB_FLOOR))))

    return objective


def fit_temperature(logits, labels, lo=0.05, hi=20.0, iters=80):
    """Scalar temperature minimizing NLL of softmax(logits / T), by golden section.

    ``logits`` may be genuine logits or log-probabilities. The search domain
    and iteration count are fixed, so the result is deterministic.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        raise ValueError("empty validation set")
    if not lo > 0.0:
        raise ValueError("temperature search needs lo > 0")
    if np.all(logits == logits[:, :1]):
        raise ValueError("degenerate logits: all classes identical")
    objective = _temperature_nll(logits, labels)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return float((a + b) / 2.0)


def temperature_scale(preds, temperature, floor=PROB_FLOOR):
    """Re-normalize predictions at the given temperature: softmax(log(p) / T)."""
    return softmax(_logits_from_preds(preds, floor) / temperature)


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


def write_report_json(report: CalibrationReport, path):
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_mu_csv(mu, path):
    mu = np.asarray(mu)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"class_{j}" for j in range(mu.shape[1])])
        for row in mu:
            writer.writerow([repr(float(v)) for v in row])


def write_bins_csv(report: CalibrationReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "conf", "acc", "count"])
        for lo, hi, conf, acc, count in zip(report.bin_lo, report.bin_hi,
                                            report.bin_conf, report.bin_acc,
                                            report.bin_count):
            writer.writerow([repr(lo), repr(hi), repr(conf), repr(acc), count])
