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
rows and other shapes make the one reduce call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12
CHAIN_MIN_ROWS = 64  # below this, one reduce call is cheaper than k column calls

__all__ = [
    "PROB_FLOOR",
    "NonFinite",
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
    ``np.maximum`` over a float array; see the module docstring for when it chains."""
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


class NonFinite(ValueError):
    """A value that must be finite is not; ``what`` names it, as in ``non-finite <what>``."""

    def __init__(self, what):
        super().__init__(f"non-finite {what}")
        self.what = what


def softmax(logits):
    """Map logits to the probability simplex along the last axis.

    Subtracts the row maximum before exponentiating, so adding a constant to
    all logits leaves the output unchanged (up to float64 rounding). A
    non-finite logit raises ``NonFinite("logits")``.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not _all_finite(z):
        raise NonFinite("logits")
    shifted = z - _class_reduce(np.maximum, z, keepdims=True)
    e = np.exp(shifted)
    return e / _class_reduce(np.add, e, keepdims=True)


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
    """Integer labels to one-hot float64 rows."""
    labels = np.asarray(labels)
    out = np.zeros(labels.shape + (k,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


@dataclass
class OptimizerState:
    """First-order optimizer state: SGD (with or without momentum) or Adam.

    ``cfg`` is the run's ``TrainConfig``, whose six fields ``optimizer``,
    ``momentum``, ``beta1``, ``beta2``, ``adam_eps`` and ``weight_decay`` a
    step reads; the other fields are what a step changes. Flat moment vectors
    (``m``/``v`` for Adam, ``buf`` for momentum) are allocated on the first
    step, so the state can be created before the parameter count is known.
    ``step`` drives Adam's bias correction. ``scratch`` is a pair of vectors
    for the step's intermediates; it is working memory, not state, so it is
    neither saved nor compared.
    """

    cfg: object
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    buf: np.ndarray | None = None
    scratch: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def moment_names(self):
        """The moment vectors a step keeps under ``cfg``: ``m`` and ``v``, ``buf`` or none."""
        if self.cfg.optimizer == "adam":
            return ("m", "v")
        return ("buf",) if self.cfg.momentum != 0.0 else ()


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
        state.scratch = (np.empty_like(params), np.empty_like(params))
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
            if state.buf is None:
                state.buf = np.zeros_like(params)
            state.buf *= cfg.momentum
            state.buf += g
            g = state.buf
        params -= np.multiply(lr, g, s2)
        return params, state
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
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
