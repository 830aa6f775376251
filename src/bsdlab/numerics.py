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

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12
CHAIN_MIN_ROWS = 64  # below this, one reduce call is cheaper than k column calls

__all__ = [
    "PROB_FLOOR",
    "softmax",
    "entropy",
    "kl_div",
    "soft_cross_entropy",
    "one_hot",
    "OptimizerState",
    "sgd_state",
    "adam_state",
    "optimizer_step",
    "finite_diff_grad",
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


def softmax(logits):
    """Map logits to the probability simplex along the last axis.

    Subtracts the row maximum before exponentiating, so adding a constant to
    all logits leaves the output unchanged (up to float64 rounding).
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    shifted = z - _class_reduce(np.maximum, z, keepdims=True)
    e = np.exp(shifted)
    return e / _class_reduce(np.add, e, keepdims=True)


def entropy(p, floor=PROB_FLOOR):
    """Shannon entropy -sum p*ln(p) along the last axis, in nats."""
    p = np.asarray(p, dtype=np.float64)
    return -_class_reduce(np.add, p * np.log(np.maximum(p, floor)))


def kl_div(p, q, floor=PROB_FLOOR):
    """KL divergence sum p*ln(p/q) along the last axis, floor-clamped.

    Both arguments are expected to lie on the simplex; the floor only guards
    exact zeros, so ``kl_div(p, p)`` is 0 and the result is nonnegative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    logp = np.log(np.maximum(p, floor))
    logq = np.log(np.maximum(q, floor))
    return _class_reduce(np.add, p * (logp - logq))


def soft_cross_entropy(target, pred, floor=PROB_FLOOR):
    """Cross-entropy -sum target*ln(pred) along the last axis.

    Identity: soft_cross_entropy(t, p) == kl_div(t, p) + entropy(t).
    """
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    return -_class_reduce(np.add, t * np.log(np.maximum(p, floor)))


def one_hot(labels, k):
    """Integer labels to one-hot float64 rows."""
    labels = np.asarray(labels)
    out = np.zeros(labels.shape + (k,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


@dataclass
class OptimizerState:
    """First-order optimizer state: SGD with momentum or Adam.

    Flat moment vectors (``m``/``v`` for Adam, ``buf`` for momentum) are
    allocated on the first step, so the state can be created before the
    parameter count is known. ``step`` drives Adam's bias correction.
    """

    kind: str  # "sgd-momentum" | "adam"
    lr: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    buf: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sgd-momentum", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")


def sgd_state(lr, momentum=0.0, weight_decay=0.0):
    return OptimizerState(kind="sgd-momentum", lr=lr, momentum=momentum,
                          weight_decay=weight_decay)


def adam_state(lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    return OptimizerState(kind="adam", lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                          weight_decay=weight_decay)


def optimizer_step(params, grads, state, lr=None):
    """Apply one in-place, element-wise update to a flat parameter vector.

    ``params`` and ``grads`` are same-shape float64 vectors (``Model.flat``
    and its gradient). ``lr`` overrides the state's base learning rate for
    this step (schedules). A non-finite gradient raises ValueError before
    anything changes. Identical inputs give bit-identical outputs.
    """
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: parameters {params.shape} vs gradients {grads.shape}")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient")
    step_lr = state.lr if lr is None else lr
    state.step += 1
    g = grads
    if state.weight_decay != 0.0:
        g = g + state.weight_decay * params
    if state.kind == "sgd-momentum":
        if state.momentum != 0.0:
            if state.buf is None:
                state.buf = np.zeros_like(params)
            state.buf *= state.momentum
            state.buf += g
            g = state.buf
        params -= step_lr * g
        return params, state
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    m_hat = m / (1.0 - state.beta1 ** state.step)
    v_hat = v / (1.0 - state.beta2 ** state.step)
    params -= step_lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient estimate of a scalar function, per coordinate.

    Test oracle only; O(2n) evaluations of ``f``.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = f(x)
        flat[j] = orig - h
        fm = f(x)
        flat[j] = orig
        gflat[j] = (fp - fm) / (2.0 * h)
    return grad
