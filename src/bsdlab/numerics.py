"""Dense float64 array math: simplex utilities, losses, and first-order optimizers.

Everything downstream builds on this module. Arrays are plain numpy float64;
"rows" means the last axis indexes classes, so every function accepts either a
single probability vector or a batch of them. All log computations clamp their
arguments at ``PROB_FLOOR`` so that exact zeros (one-hot targets, zero priors)
never produce infinities.

Class-axis sums and maxima go through ``_class_reduce``, which returns the
bytes of ``ufunc.reduce(x, axis=-1)``. For a 2-D float array with
2 <= k < 8 classes and at least ``CHAIN_MIN_ROWS`` rows it chains over the
class columns left to right (``add`` from +0.0, ``maximum`` from column 0),
one whole-column call per class instead of numpy's per-row reduction
overhead. That is the order numpy itself adds and compares fewer than 8
terms in; from 8 terms on it unrolls the sum pairwise, so wider rows, fewer
rows and other shapes make the one reduce call. One exception: under numpy's
AVX2 loops (a CPU without AVX-512), ``np.maximum.reduce`` at k = 5-7 may give
a row maximum of zero the opposite sign to the chain's. That cannot move a
softmax output, since exp(+0) = exp(-0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12
SIMPLEX_TOL = 1e-6  # how far a probability row's sum may drift from 1
CHAIN_MIN_ROWS = 64  # below this, one reduce call is cheaper than k column calls

__all__ = [
    "PROB_FLOOR",
    "SIMPLEX_TOL",
    "NonFinite",
    "on_simplex",
    "softmax",
    "entropy",
    "kl_div",
    "soft_cross_entropy",
    "one_hot",
    "OptimizerState",
    "optimizer_step",
]


def _class_reduce(ufunc, x, keepdims=False):
    """``ufunc.reduce(x, axis=-1, keepdims=keepdims)`` bit for bit, for ``np.add`` or
    ``np.maximum`` over a float array, except the sign of a zero row maximum under
    numpy's AVX2 loops; see the module docstring for when it chains."""
    if x.ndim != 2 or not 2 <= x.shape[1] < 8 or x.shape[0] < CHAIN_MIN_ROWS:
        return ufunc.reduce(x, axis=-1, keepdims=keepdims)
    # numpy adds onto the identity +0.0, which turns an all -0.0 row into +0.0
    out = x[:, 0] + 0.0 if ufunc is np.add else x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out[:, None] if keepdims else out


def _all_finite(x):
    """``np.isfinite(x).all()`` as one ufunc reduce, without the Python-level wrapper."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def on_simplex(p):
    """True when every entry of the float array ``p`` is finite and >= 0 and every row
    (last axis) sums to 1 within ``SIMPLEX_TOL``; an empty batch passes. The one rule
    for a probability row that bsdlab takes in, from a prediction or from a file."""
    with np.errstate(over="ignore"):  # a sum that overflows fails the check, it does not warn
        return bool((p >= 0.0).all()  # False on NaN, so no -inf reaches the sum
                    and (abs(_class_reduce(np.add, p) - 1.0) <= SIMPLEX_TOL).all())


def _as_labels(labels, n, k):
    """``labels`` as a 1-D int64 array of ``n`` values in [0, k), any length when ``n`` is
    None, or a ``ValueError``: the one rule for a label array that bsdlab takes in. A
    float or bool label would be cast silently, a negative one index from a row's end,
    and a length-1 array broadcast."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or n not in (None, labels.shape[0]):
        need = "a 1-D label array" if n is None else f"{n} labels in a 1-D array"
        raise ValueError(f"sample/label count mismatch: need {need}, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    return labels.astype(np.int64, copy=False)


class NonFinite(ValueError):
    """A value that must be finite is not; ``what`` names it, as in ``non-finite <what>``."""

    def __init__(self, what):
        super().__init__(f"non-finite {what}")
        self.what = what


def softmax(logits, out=None):
    """Map logits to the probability simplex along the last axis.

    Subtracts the row maximum before exponentiating, so adding a constant to
    all logits leaves the output unchanged (up to float64 rounding). A
    non-finite logit raises ``NonFinite("logits")``. The result goes into
    ``out`` (which may be ``logits`` itself) when given, and into a fresh
    array otherwise; the shift, ``exp`` and division run in place there.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not _all_finite(z):
        raise NonFinite("logits")
    e = np.subtract(z, _class_reduce(np.maximum, z, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= _class_reduce(np.add, e, keepdims=True)
    return e


def entropy(p):
    """Shannon entropy -sum p*ln(p) along the last axis, in nats."""
    p = np.asarray(p, dtype=np.float64)
    return -_class_reduce(np.add, p * np.log(np.maximum(p, PROB_FLOOR)))


def kl_div(p, q):
    """KL divergence sum p*ln(p/q) along the last axis, clamped at ``PROB_FLOOR``.

    Both arguments are expected to lie on the simplex; the floor only guards
    exact zeros, so ``kl_div(p, p)`` is 0 and the result is nonnegative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    logp = np.log(np.maximum(p, PROB_FLOOR))
    logq = np.log(np.maximum(q, PROB_FLOOR))
    return _class_reduce(np.add, p * (logp - logq))


def soft_cross_entropy(target, pred):
    """Cross-entropy -sum target*ln(pred) along the last axis.

    Identity: soft_cross_entropy(t, p) == kl_div(t, p) + entropy(t).
    """
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    return -_class_reduce(np.add, t * np.log(np.maximum(p, PROB_FLOOR)))


def one_hot(labels, k):
    """A 1-D integer label array (checked by ``_as_labels``) to one-hot float64 rows."""
    labels = _as_labels(labels, None, k)
    out = np.zeros(labels.shape + (k,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


@dataclass
class OptimizerState:
    """First-order optimizer state: SGD (with or without momentum) or Adam.

    ``cfg`` is the run's ``TrainConfig``, whose six fields ``optimizer``,
    ``momentum``, ``beta1``, ``beta2``, ``adam_eps`` and ``weight_decay`` a
    step reads, and the only constructor argument; the other fields are what a
    step changes. ``allocate`` is the one place the flat vectors are made: the
    moments ``moment_names`` lists (``m``/``v`` for Adam, ``buf`` for momentum)
    and the scratch pair. The first step calls it, or a ``.state`` load before
    that, so the state can be created before the parameter count is known.
    ``step`` drives Adam's bias correction. ``scratch`` is a pair of vectors
    for the step's intermediates; it is working memory, not state, so it is
    neither saved nor compared.
    """

    cfg: object
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    buf: np.ndarray | None = field(default=None, init=False)
    scratch: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def moment_names(self):
        """The moment vectors a step keeps under ``cfg``: ``m`` and ``v``, ``buf`` or none."""
        if self.cfg.optimizer == "adam":
            return ("m", "v")
        return ("buf",) if self.cfg.momentum != 0.0 else ()

    def allocate(self, like):
        """Zero each moment ``moment_names`` lists and make the scratch pair, all
        shaped like the flat vector ``like``."""
        for key in self.moment_names:
            setattr(self, key, np.zeros_like(like))
        self.scratch = (np.empty_like(like), np.empty_like(like))


def optimizer_step(params, grads, state, lr):
    """Apply one in-place, element-wise update to a flat parameter vector.

    ``params`` and ``grads`` are same-shape float64 vectors (``Model.flat``
    and its gradient); ``lr`` is this step's learning rate (the schedule's).
    The other hyperparameters come from ``state.cfg``: ``optimizer``,
    ``momentum``, ``beta1``, ``beta2``, ``adam_eps`` and ``weight_decay``.
    A non-finite gradient raises ``NonFinite("gradient")`` before anything changes;
    a shape mismatch raises a plain ``ValueError``.
    Identical inputs give bit-identical outputs.
    """
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: parameters {params.shape} vs gradients {grads.shape}")
    if not _all_finite(grads):
        raise NonFinite("gradient")
    cfg = state.cfg
    state.step += 1
    if state.scratch is None:
        state.allocate(params)
    # intermediates go to the scratch pair, each op in the order of the plain
    # expressions g = grads + wd * params, then params -= lr * g (sgd) or
    # params -= lr * m_hat / (sqrt(v_hat) + eps) (adam); float + and * commute
    s1, s2 = state.scratch
    g = grads
    if cfg.weight_decay != 0.0:
        g = np.multiply(cfg.weight_decay, params, s1)
        g += grads
    if cfg.optimizer == "sgd":
        if cfg.momentum != 0.0:
            state.buf *= cfg.momentum
            state.buf += g
            g = state.buf
        params -= np.multiply(lr, g, s2)
        return params, state
    m, v = state.m, state.v
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, g, s2)
    v *= cfg.beta2
    g2 = np.multiply(g, g, s2)
    g2 *= 1.0 - cfg.beta2
    v += g2
    delta = np.divide(m, 1.0 - cfg.beta1 ** state.step, s1)  # m_hat, then lr * m_hat
    delta *= lr
    denom = np.divide(v, 1.0 - cfg.beta2 ** state.step, s2)  # v_hat, then sqrt(v_hat) + eps
    np.sqrt(denom, denom)
    denom += cfg.adam_eps
    delta /= denom
    params -= delta
    return params, state
