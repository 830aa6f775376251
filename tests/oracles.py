"""Reference implementations the tests check bsdlab against; training never calls them.

The evidence-store oracles restate the discounted update in closed or raw
form: ``conjugate_update_oracle`` is the concentration-space update
alpha' = gamma * alpha + pred that the (y, A) factorization must match,
``evidence_mass_closed_form`` and ``fixed_point`` give the mass after t
updates and its stationary value, and ``bsd_update`` runs the store's
update on a one-row store. ``finite_diff_grad`` checks hand-derived gradients, and
``reconstruct_predictions`` inverts ``analysis.delta_decomposition``.
"""

import math

import numpy as np

from bsdlab.analysis import DarkKnowledge
from bsdlab.numerics import _as_labels
from bsdlab.targets import EvidenceStore


def bsd_update(store: EvidenceStore, i, pred):
    """Discounted update of a one-row store (``i`` is 0); returns the new (y_i, mass)."""
    store.update(np.asarray([i]), np.asarray(pred, dtype=np.float64)[None, :])
    return store.y[i], store.mass


def conjugate_update_oracle(alpha, pred, gamma):
    """Raw concentration-space reference: alpha' = gamma * alpha + pred.

    Test oracle for the (y, A) factorization; not used by training. An
    all-zero ``alpha`` is permitted only for the improper-prior (te-style)
    path, where the first observation defines the state.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if np.any(alpha < 0.0):
        raise ValueError("concentration entries must be nonnegative")
    return gamma * alpha + pred


def evidence_mass_closed_form(A0, gamma, t):
    """Evidence mass after t updates: gamma^t * A0 + (1 - gamma^t) / (1 - gamma).

    At gamma = 1 the limit form A0 + t applies.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if gamma == 1.0:
        return A0 + float(t)
    gt = gamma ** t
    return gt * A0 + (1.0 - gt) / (1.0 - gamma)


def fixed_point(gamma):
    """Stationary evidence mass 1 / (1 - gamma); undefined at gamma = 1."""
    if not (0.0 <= gamma < 1.0):
        raise ValueError("fixed point requires gamma in [0, 1)")
    return 1.0 / (1.0 - gamma)


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


def reconstruct_predictions(dk: DarkKnowledge, labels):
    """Exact inverse of the decomposition: mu[label] + delta, bit for bit.

    math.fsum rounds the exact three-term sum once; since the true sum is the
    original prediction (a representable double), the result is identical.
    """
    labels = _as_labels(labels, dk.delta.shape[0], dk.mu.shape[0])
    mu_rows = dk.mu[labels]
    n, k = dk.delta.shape
    out = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        for j in range(k):
            out[i, j] = math.fsum((mu_rows[i, j], dk.delta[i, j], dk.delta_comp[i, j]))
    return out
