"""Bit-exact checks of rewritten paths against the implementations they replaced.

The reference functions below are verbatim copies of the replaced code
(renamed ``old_*``/``Old*``): im2col through a transposed
``sliding_window_view``, pooling through ``mean(axis=(2, 4))``, unpooling
through a double ``np.repeat``, per-sample crop/flip/erase loops, and the
strategy layer that kept a last-prediction buffer for ps-kd/dlb and a
zero-initialized accumulator for te beside the bsd evidence store. The
rewrites must give the same bytes, sign of zero included, and draw the same
numbers from the rng in the same order. The one exception is te, whose
improper-prior store computes the bias-corrected average in another order
and must agree to 1e-12.

The analysis pass is checked the same way: ``_class_reduce`` against
``ufunc.reduce`` itself, and every function routed through it, the
slice-binned calibration errors, the class-major temperature objective and
the vectorized midranks against copies of the versions they replaced.

The training loop is checked against a copy of the per-batch loop it
replaced: one store update, sample gather and target gather per mini-batch
on a store with one evidence mass per row (``OldEvidenceStore``),
the allocating optimizer step and the backward pass that also formed the
unused input gradient, run on the allocating forward (``old_alloc_forward``),
so no production pass stands in its own reference. Parameters, optimizer
moments, the evidence store and every epoch row must match bit for bit, and
the epoch-level store update must check each prediction row on its own,
exactly as the replaced check does on that row alone. The reference loop
still computes its loss in every step, with the strong-view term that adds
onto a passed-in loss (``old_alloc_contrastive_term``), so the epoch-level
``train_loss`` is checked against the per-step one bit for bit. Both reference
loops build a batch's views through a copy of the helper the epoch loop used to
call (``old_augmented_views``).

The training pass that writes into the model's kept buffers is checked
against verbatim copies of the allocating softmax, forward, backward,
strong-view term and epoch loop it replaced (``old_alloc_*``): three epochs
over both architectures, both activations, dropout on and off and bsd_plus
on and off, with two batch row counts and an evaluation between epochs.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from bsdlab import data, models, training
from bsdlab.analysis import (DarkKnowledge, _accuracy_and_bins, _as_preds, _bin_index,
                             _bin_slices, _midranks, _temperature_nll, ace, auroc,
                             delta_decomposition, reliability_bins, sce)
from bsdlab.data import augment_strong, augment_weak, make_blobs
from bsdlab.models import (CONV_CHANNELS, ModelSpec, _conv_backward, backward, forward,
                           init_model)
from bsdlab.numerics import (PROB_FLOOR, SIMPLEX_TOL, NonFinite, _all_finite, _class_reduce,
                             entropy, kl_div, on_simplex, one_hot, optimizer_step,
                             soft_cross_entropy, softmax)
from bsdlab.targets import (STRATEGY_MODES, EvidenceStore, StrategyConfig, TargetStrategy,
                            init_prior, sharpen)
from bsdlab.training import (_DROPOUT, _SHUFFLE, _STRONG_BASE, _WEAK, BsdPlusConfig, TrainConfig,
                             TrainingDiverged, _epoch_rng, _kl_logit_grad, contrastive_term,
                             evaluate, lr_at, make_optimizer, train_epoch)


def old_conv_forward(model, batch):
    """3x3 valid convolution via im2col, relu, 2x2 average pool, flatten."""
    h, w, ch = model.spec.grid_shape
    n = batch.shape[0]
    if batch.shape[1:] != (h, w, ch):
        raise ValueError(f"expected grid batch of shape (n, {h}, {w}, {ch}), got {batch.shape}")
    win = np.lib.stride_tricks.sliding_window_view(batch, (3, 3), axis=(1, 2))
    oh, ow = h - 2, w - 2
    # (n, oh, ow, ch, 3, 3) -> (n*oh*ow, 3*3*ch), window dims ordered (ky, kx, ch)
    patches = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * oh * ow, 9 * ch)
    z = patches @ model.params["conv_w"] + model.params["conv_b"]
    a = np.maximum(z, 0.0).reshape(n, oh, ow, CONV_CHANNELS)
    ph, pw = oh // 2, ow // 2
    pooled = a[:, : 2 * ph, : 2 * pw, :].reshape(n, ph, 2, pw, 2, CONV_CHANNELS).mean(axis=(2, 4))
    flat = pooled.reshape(n, ph * pw * CONV_CHANNELS)
    cache = {"patches": patches, "conv_z": z, "oh": oh, "ow": ow, "ph": ph, "pw": pw, "n": n}
    return flat, cache


def old_conv_backward(model, cache, dflat, grads):
    n, oh, ow = cache["n"], cache["oh"], cache["ow"]
    ph, pw = cache["ph"], cache["pw"]
    dpooled = dflat.reshape(n, ph, pw, CONV_CHANNELS)
    da = np.zeros((n, oh, ow, CONV_CHANNELS))
    # Each pooled cell spreads its gradient evenly over its 2x2 source block;
    # rows/cols truncated by the pool get zero gradient.
    spread = np.repeat(np.repeat(dpooled, 2, axis=1), 2, axis=2) / 4.0
    da[:, : 2 * ph, : 2 * pw, :] = spread
    dz = (da.reshape(n * oh * ow, CONV_CHANNELS)) * (cache["conv_z"] > 0.0)
    np.matmul(cache["patches"].T, dz, out=grads["conv_w"])
    dz.sum(axis=0, out=grads["conv_b"])


def old_crop_flip(batch, rng, pad=4):
    """Pad-and-crop plus horizontal flip, drawn per sample."""
    n, h, w, ch = batch.shape
    padded = np.pad(batch, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")
    out = np.empty_like(batch)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.uniform(size=n) < 0.5
    for i in range(n):
        oy, ox = offs[i]
        view = padded[i, oy:oy + h, ox:ox + w, :]
        out[i] = view[:, ::-1, :] if flips[i] else view
    return out


def old_erase(batch, rng, frac):
    """Zero out one random square patch per sample (side = frac * min(h, w))."""
    n, h, w, _ = batch.shape
    side = max(1, int(round(frac * min(h, w))))
    out = batch.copy()
    ys = rng.integers(0, h - side + 1, size=n)
    xs = rng.integers(0, w - side + 1, size=n)
    for i in range(n):
        out[i, ys[i]:ys[i] + side, xs[i]:xs[i] + side, :] = 0.0
    return out


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


GRIDS = [(6, 6), (7, 7), (7, 6), (6, 9), (12, 12)]


def conv_model(h, w, ch, seed=0):
    spec = ModelSpec(input_dim=h * w * ch, classes=3, hidden=(5,), architecture="tiny-conv",
                     grid_shape=(h, w, ch), seed=seed)
    return init_model(spec)


def grid_batch(rng, n, h, w, ch):
    """Grids with negative regions (relu zeros), exact zeros and negative zeros."""
    batch = rng.normal(0.0, 1.0, size=(n, h, w, ch))
    batch[:, : h // 2] -= 2.0
    batch[:, :, 0] = 0.0
    batch[:, :, 1] = -0.0
    return batch


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("ch", [1, 3])
@pytest.mark.parametrize("n", [1, 64])
def test_conv_forward_backward_match_reference(h, w, ch, n, monkeypatch):
    # buffers from np.empty start as NaN, so a cell the fast path forgets to
    # write (such as a row the pool truncates) shows up in the gradients
    real_empty = np.empty

    def nan_empty(shape, dtype=float, **kw):
        out = real_empty(shape, dtype, **kw)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    rng = np.random.default_rng([h, w, ch, n])
    model = conv_model(h, w, ch, seed=n)
    batch = grid_batch(rng, n, h, w, ch)
    flat, cache = models._conv_forward(model, batch)
    ref_flat, ref_cache = old_conv_forward(model, batch)
    assert_bit_equal(flat, ref_flat)
    assert_bit_equal(cache["patches"], ref_cache["patches"])
    assert_bit_equal(cache["relu_open"], ref_cache["conv_z"] > 0.0)

    dflat = rng.normal(0.0, 1e-3, size=flat.shape)
    dflat[:, ::3] = 0.0
    dflat[:, 1::3] *= -0.0
    grads = model.views(np.empty_like(model.flat))
    ref_grads = model.views(np.empty_like(model.flat))
    models._conv_backward(model, cache, dflat, grads)
    old_conv_backward(model, ref_cache, dflat, ref_grads)
    for name in ("conv_w", "conv_b"):
        assert_bit_equal(grads[name], ref_grads[name])


@pytest.mark.parametrize("rows", [1, 2, 9, 100, 1600, 6400, 8197])
def test_einsum_column_sum_adds_rows_in_order(rows):
    # the conv bias gradient relies on einsum("ij->j") adding rows one by one,
    # starting from 0.0, exactly like sum(axis=0); a pairwise or blocked sum
    # would keep the 1.0s that sequential addition rounds away against 1e16
    x = np.ones((rows, CONV_CHANNELS))
    x[0], x[-1] = 1e16, -1e16
    x[:, 1] = -0.0
    rng = np.random.default_rng(rows)
    x[:, 2] = rng.normal(0.0, 1.0, rows) * 10.0 ** rng.integers(-12, 16, rows)
    assert_bit_equal(np.einsum("ij->j", x), x.sum(axis=0))
    seq = np.zeros(CONV_CHANNELS)
    for row in x:
        seq = seq + row
    assert_bit_equal(x.sum(axis=0), seq)


def test_relu_mask_gradient_matches_float_mask(monkeypatch):
    spec = ModelSpec(input_dim=4, classes=3, hidden=(6, 5), dropout=0.3)
    model = init_model(spec)
    rng = np.random.default_rng(5)
    batch = rng.normal(0.0, 2.0, size=(9, 4))
    probs, cache = forward(model, batch, np.random.default_rng(6))
    dlogits = (probs - rng.dirichlet(np.ones(3), size=9)) / 27.0
    got = backward(model, cache, dlogits)

    def float_mask(name, a, out=None):
        if name == "relu":
            return (a > 0.0).astype(np.float64)
        return 1.0 - a * a

    monkeypatch.setattr(models, "_activate_grad", float_mask)
    want = backward(model, cache, dlogits)
    for name in got:
        assert_bit_equal(got[name], want[name])


class ScriptedRng:
    """Returns fixed draws, and records which draws were asked for."""

    def __init__(self, integers, uniforms):
        self.integers_q, self.uniforms_q, self.calls = list(integers), list(uniforms), []

    def integers(self, lo, hi, size):
        self.calls.append(("integers", lo, hi, size))
        out = np.asarray(self.integers_q.pop(0), dtype=np.int64)
        assert out.shape == np.empty(size).shape and out.min() >= lo and out.max() < hi
        return out

    def uniform(self, size):
        self.calls.append(("uniform", size))
        return np.asarray(self.uniforms_q.pop(0), dtype=np.float64)


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("ch", [1, 3])
@pytest.mark.parametrize("n", [1, 64])
def test_crop_flip_matches_reference(h, w, ch, n):
    batch = grid_batch(np.random.default_rng([h, w, ch]), n, h, w, ch)
    new_rng, old_rng = np.random.default_rng(n), np.random.default_rng(n)
    assert_bit_equal(data._crop_flip(batch, new_rng), old_crop_flip(batch, old_rng))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("offset", [0, 8])
@pytest.mark.parametrize("flip", [0.0, 0.99])
def test_crop_flip_extreme_draws_match_reference(offset, flip):
    n, h, w, ch = 5, 7, 6, 3
    batch = grid_batch(np.random.default_rng(3), n, h, w, ch)
    draws = ([np.full((n, 2), offset)], [np.full(n, flip)])
    new_rng, old_rng = ScriptedRng(*draws), ScriptedRng(*draws)
    got = data._crop_flip(batch, new_rng)
    assert_bit_equal(got, old_crop_flip(batch, old_rng))
    assert new_rng.calls == old_rng.calls


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("ch", [1, 3])
@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("frac", [0.3, 1.0])
def test_erase_matches_reference(h, w, ch, n, frac):
    batch = grid_batch(np.random.default_rng([h, w, ch]), n, h, w, ch)
    before = batch.copy()
    new_rng, old_rng = np.random.default_rng(n), np.random.default_rng(n)
    assert_bit_equal(data._erase(batch, new_rng, frac), old_erase(batch, old_rng, frac))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert_bit_equal(batch, before)


@pytest.mark.parametrize("h,w", GRIDS)
@pytest.mark.parametrize("n", [1, 64])
def test_augment_strong_matches_reference_composition(h, w, n):
    batch = grid_batch(np.random.default_rng([h, w]), n, h, w, 2)
    rng = np.random.default_rng(11)
    want = old_erase(old_crop_flip(batch, rng), rng, 0.2)
    want = want + rng.normal(0.0, 0.1, size=want.shape)
    assert_bit_equal(augment_strong(batch, np.random.default_rng(11), jitter_sigma=0.1,
                                    erase_frac=0.2), want)


class OldTargetStrategy:
    """Stateful target provider for one training run.

    Owns whatever per-sample state the mode needs (an EvidenceStore for bsd,
    a last-prediction buffer for ps-kd/dlb, a zero-initialized accumulator
    for te) and hides it behind two calls used by the training loop:
    ``targets(indices, epoch)`` for the rows consumed by the loss, and
    ``update(indices, preds)`` applied after the optimizer step. Targets read
    before the update are the stored values at that moment, matching the
    in-place ordering of the training recursion.
    """

    def __init__(self, cfg: StrategyConfig, labels, k, total_epochs):
        self.cfg = cfg
        self.labels = np.asarray(labels)
        self.k = k
        self.total_epochs = total_epochs
        self.onehot = one_hot(self.labels, k)
        n = self.labels.shape[0]
        self.store = None
        self.last_pred = None
        self.te_accum = None
        self.te_count = None
        if cfg.mode == "bsd":
            self.store = OldEvidenceStore.of(init_prior(self.labels, k, cfg.c, cfg.epsilon,
                                                        cfg.gamma))
        elif cfg.mode in ("ps-kd", "dlb"):
            self.last_pred = self.onehot.copy()
        elif cfg.mode == "te":
            self.te_accum = np.zeros((n, k), dtype=np.float64)
            self.te_count = np.zeros(n, dtype=np.int64)

    def _pskd_mix(self, epoch):
        if self.total_epochs <= 0:
            return 0.0
        return self.cfg.pskd_alpha * min(epoch, self.total_epochs) / self.total_epochs

    def targets(self, indices, epoch):
        """Target rows for the given sample indices at the given 1-based epoch."""
        mode = self.cfg.mode
        if mode == "baseline":
            return self.onehot[indices].copy()
        if mode == "label-smoothing":
            a = self.cfg.ls_alpha
            return (1.0 - a) * self.onehot[indices] + a / self.k
        if mode == "ps-kd":
            a_t = self._pskd_mix(epoch)
            return (1.0 - a_t) * self.onehot[indices] + a_t * self.last_pred[indices]
        if mode == "dlb":
            return self.last_pred[indices].copy()
        if mode == "te":
            out = self.onehot[indices].copy()
            seen = self.te_count[indices] > 0
            if np.any(seen):
                idx = np.asarray(indices)[seen]
                corr = 1.0 - self.cfg.te_momentum ** self.te_count[idx]
                out[seen] = self.te_accum[idx] / corr[:, None]
            return out
        return self.store.y[indices].copy()

    def target(self, i, epoch):
        return self.targets(np.asarray([i]), epoch)[0]

    def update(self, indices, preds):
        """Fold the batch predictions into the per-sample state (post-step)."""
        mode = self.cfg.mode
        if mode in ("baseline", "label-smoothing"):
            return
        preds = np.asarray(preds, dtype=np.float64)
        if mode in ("ps-kd", "dlb"):
            self.last_pred[indices] = preds
        elif mode == "te":
            m = self.cfg.te_momentum
            self.te_accum[indices] = m * self.te_accum[indices] + (1.0 - m) * preds
            self.te_count[indices] += 1
        else:
            self.store.update_rows(indices, preds)

    def mean_evidence(self):
        if self.store is None:
            return None
        return float(self.store.A.mean())

    def current_targets(self, epoch):
        """Snapshot of every sample's target row as it would be served at ``epoch``."""
        return self.targets(np.arange(self.labels.shape[0]), epoch)


STRATEGY_CASES = [("baseline", {}), ("label-smoothing", {"ls_alpha": 0.2}), ("bsd", {}),
                  ("dlb", {}), ("ps-kd", {"pskd_alpha": 0.8}), ("ps-kd", {"pskd_alpha": 1.0}),
                  ("te", {"te_momentum": 0.6})]
STRATEGY_IDS = ["baseline", "label-smoothing", "bsd", "dlb", "ps-kd-0.8", "ps-kd-1.0", "te"]


def assert_same_targets(mode, got, want):
    if mode == "te":
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    else:
        assert_bit_equal(got, want)


@pytest.mark.parametrize("mode, kw", STRATEGY_CASES, ids=STRATEGY_IDS)
def test_target_strategy_matches_reference(mode, kw):
    rng = np.random.default_rng(41)
    n, k, epochs, batch = 23, 4, 5, 6
    labels = rng.integers(0, k, size=n)
    cfg = StrategyConfig(mode=mode, gamma=0.7, c=5.0, epsilon=0.2, **kw)
    new = TargetStrategy(cfg, labels, k, epochs)
    old = OldTargetStrategy(cfg, labels, k, epochs)
    for epoch in range(1, epochs + 2):  # one epoch past the ramp's end
        perm = rng.permutation(n)
        preds = rng.dirichlet(np.full(k, 0.5), size=n)
        for start in range(0, n, batch):  # the reference is updated batch by batch
            idx = perm[start:start + batch]
            assert_same_targets(mode, new.targets(idx, epoch), old.targets(idx, epoch))
            old.update(idx, preds[start:start + batch])
        new.update(perm, preds)  # the store takes the whole epoch at once
        assert_same_targets(mode, new.current_targets(epoch), old.current_targets(epoch))


@pytest.mark.parametrize("mode, kw", STRATEGY_CASES, ids=STRATEGY_IDS)
def test_training_with_store_strategy_matches_reference(mode, kw):
    train = make_blobs(3, 10, spacing=2.0, cov_scale=0.8, seed=[5, 0])
    test = make_blobs(3, 10, spacing=2.0, cov_scale=0.8, seed=[5, 1])
    cfg = TrainConfig(epochs=4, batch_size=7, lr=0.05,
                      strategy=StrategyConfig(mode=mode, gamma=0.8, c=20.0, **kw))
    spec = ModelSpec(input_dim=2, classes=3, hidden=(6,), dropout=0.1, seed=3)
    runs = []
    for cls in (TargetStrategy, OldTargetStrategy):
        model, opt = init_model(spec), make_optimizer(cfg)
        strategy = cls(cfg.strategy, train.labels, train.k, cfg.epochs)
        losses = [train_epoch(model, train, strategy, opt, cfg, e, seed=9)["train_loss"]
                  for e in range(1, cfg.epochs + 1)]
        runs.append((losses, evaluate(model, test)["preds"]))
    (new_losses, new_preds), (old_losses, old_preds) = runs
    assert_same_targets(mode, new_preds, old_preds)
    np.testing.assert_allclose(new_losses, old_losses, rtol=0.0 if mode != "te" else 1e-12)


# ---------------------------------------------------------------------------
# Class-axis reductions and the analysis pass

CHAIN_SHAPES_N = [1, 63, 64, 65, 10000]


def wide_range_rows(rng, n, k):
    """Mixed-sign values from 1e-300 to 1e300, with all -0.0 rows, mixed +-0.0
    rows, and NaN / +inf / -inf entries sprinkled in."""
    x = rng.choice([-1.0, 1.0], size=(n, k)) * 10.0 ** rng.uniform(-300, 300, size=(n, k))
    x[rng.random((n, k)) < 0.3] *= 1e-300 * rng.random()
    x[::7] = -0.0
    x[3::11] = rng.choice([0.0, -0.0], size=x[3::11].shape)
    for value, rate in ((np.nan, 0.01), (np.inf, 0.01), (-np.inf, 0.01)):
        x[rng.random((n, k)) < rate] = value
    return x


def layouts(x):
    """The same values C-ordered, F-ordered and as a strided view."""
    big = np.full((x.shape[0], 2 * x.shape[1]), 7.0)
    big[:, ::2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": big[:, ::2]}


@pytest.mark.parametrize("n", CHAIN_SHAPES_N)
@pytest.mark.parametrize("k", range(2, 11))
def test_class_reduce_matches_ufunc_reduce(k, n):
    rng = np.random.default_rng(1000 * k + n)
    x = wide_range_rows(rng, n, k)
    with np.errstate(invalid="ignore", over="ignore"):
        for name, view in layouts(x).items():
            for ufunc in (np.add, np.maximum):
                for keepdims in (False, True):
                    got = _class_reduce(ufunc, view, keepdims=keepdims)
                    want = ufunc.reduce(view, axis=-1, keepdims=keepdims)
                    assert_bit_equal(got, want)


# Verbatim copies of the functions the class-axis reducer, the contiguous bin
# slices, the class-major temperature objective and the vectorized midranks
# replaced.

def old_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def old_entropy(p, floor=PROB_FLOOR):
    p = np.asarray(p, dtype=np.float64)
    return -(p * np.log(np.maximum(p, floor))).sum(axis=-1)


def old_kl_div(p, q, floor=PROB_FLOOR):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    logp = np.log(np.maximum(p, floor))
    logq = np.log(np.maximum(q, floor))
    return (p * (logp - logq)).sum(axis=-1)


def old_soft_cross_entropy(target, pred, floor=PROB_FLOOR):
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    return -(t * np.log(np.maximum(p, floor))).sum(axis=-1)


def old_check_pred(pred):
    pred = np.asarray(pred, dtype=np.float64)
    if pred.size and np.fmin.reduce(pred, axis=None) < 0.0:
        raise ValueError("prediction has negative entries")
    s = pred.sum(axis=-1, keepdims=True)
    err = np.abs(s - 1.0)
    if np.max(err, initial=0.0) <= 1e-12:  # NaN-propagating, so False for a NaN row
        return pred
    if np.any(err > SIMPLEX_TOL):
        raise ValueError(
            f"prediction off the simplex by {err.max():.3e} (> {SIMPLEX_TOL})"
        )
    return pred / s


def old_check_rows(pred):
    """``old_check_pred`` applied to each row on its own."""
    return np.concatenate([old_check_pred(pred[i:i + 1]) for i in range(pred.shape[0])])


def old_sharpen(target, tau):
    if tau <= 0.0:
        raise ValueError("sharpening tau must be > 0")
    t = np.asarray(target, dtype=np.float64)
    if tau == 1.0:
        return t.copy()
    powered = t ** (1.0 / tau)
    return powered / powered.sum(axis=-1, keepdims=True)


def old_kl_logit_grad(strong_probs, anchor_probs, floor=PROB_FLOOR):
    lp = np.log(np.maximum(strong_probs, floor))
    lq = np.log(np.maximum(anchor_probs, floor))
    diff = lp - lq
    row_kl = (strong_probs * diff).sum(axis=1, keepdims=True)
    return strong_probs * (diff - row_kl)


def old_sce(preds, labels, bins=15):
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


def old_ace(preds, labels, bins=15):
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


def old_reliability_bins(preds, labels, bins=15):
    preds = _as_preds(preds)
    labels = np.asarray(labels)
    if bins < 1:
        raise ValueError("bins must be >= 1")
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


def old_midranks(values):
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


def old_auroc(id_scores, ood_scores):
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("both score sets must be nonempty")
    pooled = np.concatenate([id_scores, ood_scores])
    ranks = old_midranks(pooled)
    n_id, n_ood = id_scores.size, ood_scores.size
    rank_sum = ranks[:n_id].sum()
    return float((rank_sum - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))


def old_delta_decomposition(preds, labels, mu):
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


def old_temperature_nll(logits, labels):
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


ANALYSIS_SHAPES = [(1, 2), (7, 3), (63, 4), (64, 4), (65, 7), (1000, 4), (1000, 8), (300, 10),
                   (10000, 4)]


def trace_preds(rng, n, k):
    """Trace-like predictions: peaked and flat rows, exact zeros and one-hots, ties
    (rows repeated and entries rounded onto bin edges), and F-ordered storage."""
    p = rng.dirichlet(np.full(k, 0.3), size=n)
    p[::5] = np.round(p[::5] * 15.0) / 15.0
    p[1::9] = np.eye(k)[rng.integers(0, k, size=p[1::9].shape[0])]
    p[2::13] = p[0]
    return p


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
def test_numerics_reductions_match_reference(n, k):
    rng = np.random.default_rng(n * 31 + k)
    logits = rng.normal(0.0, 30.0, size=(n, k))
    p, q = trace_preds(rng, n, k), trace_preds(rng, n, k)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        z, a, b = layout(logits), layout(p), layout(q)
        assert_bit_equal(softmax(z), old_softmax(z))
        assert_bit_equal(entropy(a), old_entropy(a))
        assert_bit_equal(kl_div(a, b), old_kl_div(a, b))
        assert_bit_equal(soft_cross_entropy(a, b), old_soft_cross_entropy(a, b))
        assert_bit_equal(_kl_logit_grad(a, b), old_kl_logit_grad(a, b))
        for tau in (0.5, 1.0, 2.0):
            assert_bit_equal(sharpen(a, tau), old_sharpen(a, tau))
    stack = np.stack([p, q])  # (2, n, k): not a 2-D batch, so one reduce call
    assert_bit_equal(entropy(stack), old_entropy(stack))
    assert_bit_equal(softmax(logits[0]), old_softmax(logits[0]))


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
def test_check_pred_matches_reference(n, k):
    """``on_simplex`` takes the batches the per-row reference check took, in either
    layout, and refuses those it refused; a NaN row, which the reference passed
    through, it refuses."""
    rng = np.random.default_rng(n * 37 + k)
    p = trace_preds(rng, n, k)
    p /= p.sum(axis=1, keepdims=True)  # the rows rounded onto bin edges are off the simplex
    drifted = p * (1.0 + 1e-9 * rng.standard_normal((n, 1)))
    for case in (p, drifted, np.asfortranarray(drifted)):
        old_check_rows(case)
        assert on_simplex(case)
    off = p.copy()
    off[-1] *= 1.1
    for bad in (off, -p):
        with pytest.raises(ValueError):
            old_check_rows(bad)
        assert not on_simplex(bad)
    with_nan = p.copy()
    with_nan[n // 2, 0] = np.nan
    assert np.isnan(old_check_rows(with_nan)[n // 2]).all()
    assert not on_simplex(with_nan)


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
@pytest.mark.parametrize("bins", [1, 10, 15, 40, 300])
def test_binned_calibration_matches_reference(n, k, bins):
    rng = np.random.default_rng(n * 41 + k + bins)
    p = trace_preds(rng, n, k)
    labels = rng.integers(0, k, size=n)
    assert repr(reliability_bins(p, labels, bins)) == repr(old_reliability_bins(p, labels, bins))
    acc, rows = _accuracy_and_bins(p, labels, bins)  # one argmax for both
    assert repr((acc, rows)) == repr((float(np.mean(p.argmax(axis=1) == labels)),
                                      old_reliability_bins(p, labels, bins)))
    assert repr(sce(p, labels, bins)) == repr(old_sce(p, labels, bins))
    assert repr(ace(p, labels, bins)) == repr(old_ace(p, labels, bins))


@pytest.mark.parametrize("n", [1, 17, 10_000])
@pytest.mark.parametrize("bins", [1, 2, 15, 256, 257, 300])
def test_bin_sort_in_small_ints_matches_int64_sort(n, bins):
    # the bin index sorted as uint8/uint16 gives the stable int64 permutation
    conf = np.random.default_rng([n, bins]).uniform(size=n)
    conf[::3] = np.round(conf[::3] * bins) / bins  # values on bin edges
    idx = _bin_index(conf, bins)
    order, bounds = _bin_slices(idx, bins)
    assert_bit_equal(order, np.argsort(idx, kind="stable"))
    assert bounds == [0] + np.cumsum(np.bincount(idx, minlength=bins)).tolist()


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
def test_delta_decomposition_matches_reference(n, k):
    rng = np.random.default_rng(n * 43 + k)
    p = trace_preds(rng, n, k)
    labels = rng.integers(0, k, size=n)
    mu = trace_preds(rng, k, k)
    got, want = delta_decomposition(p, labels, mu), old_delta_decomposition(p, labels, mu)
    for name in ("mu", "delta", "delta_comp", "delta_l1", "class_mean_delta_l1", "mu_row_sums"):
        assert_bit_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
def test_temperature_objective_matches_reference(n, k):
    rng = np.random.default_rng(n * 47 + k)
    labels = rng.integers(0, k, size=n)
    for logits in (rng.normal(0.0, 3.0, size=(n, k)),
                   np.log(np.maximum(trace_preds(rng, n, k), 1e-12)),
                   np.asfortranarray(rng.normal(0.0, 50.0, size=(n, k)))):
        got, want = _temperature_nll(logits, labels), old_temperature_nll(logits, labels)
        for t in (0.05, 0.0731, 0.5, 1.0, 1.7, 3.3, 7.25, 20.0):
            assert repr(got(t)) == repr(want(t))


def tied_scores(rng, n):
    """Scores on a coarse grid (long tie runs), exact zeros of both signs."""
    s = rng.integers(0, 6, size=n) / 5.0
    s[::17] = -0.0
    return s


@pytest.mark.parametrize("n_id, n_ood", [(1, 1), (3, 4), (50, 7), (10000, 10000)])
def test_midranks_and_auroc_match_reference(n_id, n_ood):
    rng = np.random.default_rng(n_id + n_ood)
    a, b = tied_scores(rng, n_id), tied_scores(rng, n_ood)
    pooled = np.concatenate([a, b])
    assert_bit_equal(_midranks(pooled), old_midranks(pooled))
    with_nan = pooled.copy()
    with_nan[::3] = np.nan
    assert_bit_equal(_midranks(with_nan), old_midranks(with_nan))
    distinct = rng.permutation(pooled.size).astype(np.float64)
    assert_bit_equal(_midranks(distinct), old_midranks(distinct))
    assert repr(auroc(a, b)) == repr(old_auroc(a, b))
    c = rng.random(n_ood)
    assert repr(auroc(a, c)) == repr(old_auroc(a, c))


# ---------------------------------------------------------------------------
# The epoch-level training loop and the call-trimmed step

@dataclass
class OldEvidenceStore:
    """The store with one evidence mass per row, gathered and scattered batch by batch."""

    y: np.ndarray
    A: np.ndarray
    gamma: float

    @classmethod
    def of(cls, store: EvidenceStore):
        """A per-row store with ``store``'s rows (shared, not copied) and its mass on each."""
        return cls(store.y, np.full(len(store.y), store.mass), store.gamma)

    def update_rows(self, indices, preds):
        """Discounted Bayesian update of the selected rows from their predictions."""
        preds = old_check_pred(preds)
        gA = self.gamma * self.A[indices]
        w = gA / (gA + 1.0)  # update_weight, from the same gathered masses
        self.y[indices] = w[:, None] * self.y[indices] + (1.0 - w)[:, None] * preds
        self.A[indices] = gA + 1.0


class OldUpdateTargetStrategy(TargetStrategy):
    def update(self, indices, preds):
        """Fold the batch predictions into the store (post-step); frozen stores ignore them."""
        if not self.frozen:
            self.store.update_rows(indices, preds)

    def mean_evidence(self):
        return None if self.frozen else float(self.store.A.mean())


def old_optimizer_step(params, grads, state, lr):
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: parameters {params.shape} vs gradients {grads.shape}")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient")
    cfg = state.cfg
    state.step += 1
    g = grads
    if cfg.weight_decay != 0.0:
        g = g + cfg.weight_decay * params
    if cfg.optimizer == "sgd":
        if cfg.momentum != 0.0:
            if state.buf is None:
                state.buf = np.zeros_like(params)
            state.buf *= cfg.momentum
            state.buf += g
            g = state.buf
        params -= lr * g
        return params, state
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1 ** state.step)
    v_hat = v / (1.0 - cfg.beta2 ** state.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return params, state


def old_backward(model, cache, dlogits, out=None):
    if "logits_input" not in cache:
        raise ValueError("stale or incomplete forward cache")
    spec = model.spec
    n_hidden = len(spec.hidden)
    grads = model.views(np.empty_like(model.flat)) if out is None else out
    a = cache["logits_input"]
    np.matmul(a.T, dlogits, out=grads[f"w{n_hidden}"])
    dlogits.sum(axis=0, out=grads[f"b{n_hidden}"])
    da = dlogits @ model.params[f"w{n_hidden}"].T
    for i in range(n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        if layer["mask"] is not None:
            da = da * layer["mask"]
        dz = da * old_alloc_activate_grad(spec.activation, layer["z"], layer["act"])
        np.matmul(layer["input"].T, dz, out=grads[f"w{i}"])
        dz.sum(axis=0, out=grads[f"b{i}"])
        da = dz @ model.params[f"w{i}"].T
    if spec.architecture == "tiny-conv":
        _conv_backward(model, cache["conv"], da, grads)
    return grads


def old_augmented_views(samples, plus: BsdPlusConfig, weak_rng, strong_rngs):
    """Weak view plus one strong view per rng in ``strong_rngs``; identity when bsd_plus is off."""
    if not plus.enabled:
        return samples, []
    weak = augment_weak(samples, weak_rng, jitter_sigma=plus.weak_jitter)
    strong = [augment_strong(samples, rng, jitter_sigma=plus.strong_jitter,
                             erase_frac=plus.erase_frac)
              for rng in strong_rngs]
    return weak, strong


def old_train_epoch(model, dataset, strategy, opt_state, cfg, epoch, seed):
    """Run one epoch (1-based ``epoch``); returns epoch metrics."""
    if strategy.labels.shape[0] != dataset.n:
        raise ValueError("target state and dataset sizes are misaligned")
    n, k = dataset.n, dataset.k
    lr = lr_at(cfg.schedule, cfg.lr, epoch - 1, cfg.epochs)
    perm = _epoch_rng(seed, epoch, _SHUFFLE).permutation(n)
    dropout_rng = _epoch_rng(seed, epoch, _DROPOUT)
    weak_rng = _epoch_rng(seed, epoch, _WEAK)
    strong_rngs = [_epoch_rng(seed, epoch, _STRONG_BASE + j) for j in range(cfg.bsd_plus.views)]
    # gradient buffer laid out like model.flat; strong views add theirs in
    grad_flat = np.empty_like(model.flat)
    grads = model.views(grad_flat)
    loss_sum = 0.0
    for start in range(0, n, cfg.batch_size):
        idx = perm[start:start + cfg.batch_size]
        bsz = idx.shape[0]
        raw = dataset.samples[idx]
        weak, strong_views = old_augmented_views(raw, cfg.bsd_plus, weak_rng, strong_rngs)

        try:
            probs, cache = old_alloc_forward(model, weak, dropout_rng)
        except ValueError as exc:
            if "non-finite" in str(exc):
                raise TrainingDiverged(
                    f"non-finite activations at epoch {epoch}, batch starting {start} "
                    f"(seed {seed}): {exc}") from exc
            raise
        targets = strategy.targets(idx, epoch)
        sharp = sharpen(targets, cfg.tau)
        batch_loss = float(soft_cross_entropy(sharp, probs).sum() / (bsz * k))
        dlogits = (probs - sharp) / (bsz * k)
        old_backward(model, cache, dlogits, out=grads)

        if strong_views:
            batch_loss = old_alloc_contrastive_term(model, strong_views, probs,
                                                    cfg.bsd_plus.lam, dropout_rng, grad_flat,
                                                    batch_loss)

        if not np.isfinite(batch_loss):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}, batch starting {start} (seed {seed})")
        try:
            old_optimizer_step(model.flat, grad_flat, opt_state, lr=lr)
        except ValueError as exc:  # grad_flat matches model.flat, so only a non-finite entry
            bad = next(name for name, g in grads.items() if not np.isfinite(g).all())
            raise TrainingDiverged(
                f"non-finite gradient in block {bad!r} at epoch {epoch}, batch starting "
                f"{start} (seed {seed})") from exc
        strategy.update(idx, probs)
        loss_sum += batch_loss * bsz

    target_entropy = float(np.mean(entropy(strategy.current_targets(epoch))))
    return {
        "epoch": epoch,
        "lr": float(lr),
        "train_loss": loss_sum / n,
        "mean_target_entropy": target_entropy,
        "mean_evidence": strategy.mean_evidence(),
    }


def row_masses(store):
    """A store's mass per row: the per-row reference's own, or the one mass on every row."""
    return store.A if isinstance(store, OldEvidenceStore) else np.full(len(store.y), store.mass)


def assert_same_run(new, old):
    """Same epoch rows (repr of every float), parameters, moments and store bytes."""
    new_model, new_opt, new_strategy, new_rows = new
    old_model, old_opt, old_strategy, old_rows = old
    assert repr(new_rows) == repr(old_rows)
    assert_bit_equal(new_model.flat, old_model.flat)
    assert new_opt.step == old_opt.step
    for key in ("m", "v", "buf"):
        got, want = getattr(new_opt, key), getattr(old_opt, key)
        assert (got is None) == (want is None)
        if got is not None:
            assert_bit_equal(got, want)
    assert_bit_equal(new_strategy.store.y, old_strategy.store.y)
    assert_bit_equal(row_masses(new_strategy.store), row_masses(old_strategy.store))


def run_both(dataset, spec, cfg, monkeypatch, seed=5):
    """Train ``cfg.epochs`` epochs with the new loop, then with the old one."""
    def run(epoch_fn, strategy):
        model, opt = init_model(spec), make_optimizer(cfg)
        rows = [epoch_fn(model, dataset, strategy, opt, cfg, e, seed)
                for e in range(1, cfg.epochs + 1)]
        return model, opt, strategy, rows

    new = run(train_epoch, TargetStrategy(cfg.strategy, dataset.labels, dataset.k, cfg.epochs))
    old_strategy = OldUpdateTargetStrategy(cfg.strategy, dataset.labels, dataset.k, cfg.epochs)
    store = old_strategy.store
    old_strategy.store = OldEvidenceStore.of(store)
    # the strong views' pass too
    monkeypatch.setattr(training, "forward", old_alloc_forward)
    monkeypatch.setattr(training, "backward", old_backward)
    return new, run(old_train_epoch, old_strategy)


@pytest.mark.parametrize("mode", STRATEGY_MODES)
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_train_epoch_matches_reference_every_mode(mode, tau, monkeypatch):
    # 23 samples in batches of 6: the last batch is short
    train = make_blobs(3, 8, spacing=1.5, cov_scale=0.8, seed=[7, 0])
    train = data.Dataset(samples=train.samples[:23], clean_labels=train.clean_labels[:23],
                         labels=train.labels[:23], k=3)
    cfg = TrainConfig(epochs=4, batch_size=6, lr=0.05, tau=tau,
                      strategy=StrategyConfig(mode=mode, gamma=0.8, c=20.0, epsilon=0.1))
    spec = ModelSpec(input_dim=2, classes=3, hidden=(6, 5), dropout=0.2, seed=3)
    assert_same_run(*run_both(train, spec, cfg, monkeypatch))


@pytest.mark.parametrize("optimizer, momentum, weight_decay",
                         [("sgd", 0.0, 0.0), ("sgd", 0.0, 1e-3), ("sgd", 0.9, 0.0),
                          ("sgd", 0.9, 1e-3), ("adam", 0.0, 1e-3)])
@pytest.mark.parametrize("hidden", [(), (7,)])
def test_train_epoch_matches_reference_optimizers(optimizer, momentum, weight_decay, hidden,
                                                  monkeypatch):
    train = make_blobs(4, 9, spacing=2.0, cov_scale=0.8, seed=[8, 0])
    cfg = TrainConfig(epochs=3, batch_size=5, optimizer=optimizer, lr=0.1, momentum=momentum,
                      weight_decay=weight_decay, schedule="cosine",
                      strategy=StrategyConfig(mode="bsd", gamma=0.9, c=10.0))
    spec = ModelSpec(input_dim=2, classes=4, hidden=hidden, activation="tanh", seed=4)
    assert_same_run(*run_both(train, spec, cfg, monkeypatch))


@pytest.mark.parametrize("mode", ["bsd", "te"])
def test_train_epoch_matches_reference_bsd_plus(mode, monkeypatch):
    rng = np.random.default_rng(12)
    h, w, ch, n = 7, 6, 2, 13
    train = data.Dataset(samples=rng.uniform(0.0, 1.0, size=(n, h, w, ch)),
                         clean_labels=rng.integers(0, 3, size=n),
                         labels=rng.integers(0, 3, size=n), k=3)
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.02, tau=0.5,
                      strategy=StrategyConfig(mode=mode, gamma=0.8, c=20.0),
                      bsd_plus=BsdPlusConfig(enabled=True, lam=0.7, views=2,
                                             strong_jitter=0.1, erase_frac=0.3))
    spec = ModelSpec(input_dim=h * w * ch, classes=3, hidden=(5,), architecture="tiny-conv",
                     grid_shape=(h, w, ch), dropout=0.2, seed=6)
    assert_same_run(*run_both(train, spec, cfg, monkeypatch))


@pytest.mark.parametrize("n", [300, 1001])
@pytest.mark.parametrize("bs", [1, 7, 16, 64, 127, 128, 129, 256, None, 5000])
def test_batch_losses_match_per_slice_sums(n, bs):
    # None is one batch of all n rows; 5000 > n leaves only the partial batch
    bs = bs or n
    k = 3
    row_loss = soft_cross_entropy(np.random.default_rng([n, bs]).dirichlet(np.ones(k), size=n),
                                  np.random.default_rng([bs, n]).dirichlet(np.ones(k), size=n))
    want = [float(row_loss[start:start + bs].sum() / (row_loss[start:start + bs].size * k))
            for start in range(0, n, bs)]
    got = training._batch_losses(row_loss, bs, k)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("views", [1, 2])
@pytest.mark.parametrize("optimizer, momentum", [("sgd", 0.9), ("adam", 0.0)])
def test_epoch_loss_matches_per_step_loss(views, optimizer, momentum, monkeypatch):
    # 23 samples in batches of 6 (the last is short), tau != 1, strong views on an MLP
    train = make_blobs(3, 8, spacing=1.5, cov_scale=0.8, seed=[9, 0])
    train = data.Dataset(samples=train.samples[:23], clean_labels=train.clean_labels[:23],
                         labels=train.labels[:23], k=3)
    cfg = TrainConfig(epochs=3, batch_size=6, optimizer=optimizer, lr=0.05, momentum=momentum,
                      tau=0.6, strategy=StrategyConfig(mode="bsd", gamma=0.8, c=20.0),
                      bsd_plus=BsdPlusConfig(enabled=True, lam=1.3, views=views,
                                             strong_jitter=0.2))
    spec = ModelSpec(input_dim=2, classes=3, hidden=(6,), dropout=0.2, seed=8)
    new, old = run_both(train, spec, cfg, monkeypatch)
    assert [r["train_loss"].hex() for r in new[3]] == [r["train_loss"].hex() for r in old[3]]
    assert_same_run(new, old)


@pytest.mark.parametrize("first, second", [("off", "negative"), ("negative", "off"),
                                           ("off", "off")])
def test_epoch_update_raises_first_offending_batch_message(first, second):
    rng = np.random.default_rng(3)
    n, k = 40, 4
    perm = rng.permutation(n)
    preds = rng.dirichlet(np.full(k, 0.7), size=n)
    preds /= preds.sum(axis=1, keepdims=True)
    for rows, kind, scale in ((slice(9, 10), first, 1.1), (slice(24, 26), second, 1.3)):
        if kind == "off":
            preds[rows] *= scale
        else:
            preds[rows, 0] = -1e-3
    store = init_prior(rng.integers(0, k, size=n), k, c=30.0, epsilon=0.1, gamma=0.9)
    store.mass += 2.5
    y0, A0 = store.y.copy(), store.mass
    # one message for the whole epoch, whichever batch and kind of row is at fault
    with pytest.raises(ValueError, match="^prediction off the simplex: a negative or "
                                         "non-finite entry, or a row sum off 1 by more "
                                         r"than 1e-06$"):
        store.update(perm, preds)
    with pytest.raises(ValueError):
        old_check_pred(preds)
    # nothing is written when any row is rejected
    assert_bit_equal(store.y, y0)
    assert store.mass == A0


# ---------------------------------------------------------------------------
# The training pass in kept buffers: verbatim copies of the allocating
# softmax, forward, backward, strong-view term and epoch loop it replaced

def old_alloc_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    if not _all_finite(z):
        raise NonFinite("logits")
    shifted = z - _class_reduce(np.maximum, z, keepdims=True)
    e = np.exp(shifted)
    return e / _class_reduce(np.add, e, keepdims=True)


def old_alloc_activate_grad(name, z, a):
    if name == "relu":
        return z > 0.0  # a bool mask multiplies exactly like its 0.0/1.0 cast
    return 1.0 - a * a


def old_alloc_forward(model, batch, rng=None):
    batch = np.asarray(batch, dtype=np.float64)
    spec = model.spec
    use_dropout = spec.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("forward with dropout requires an rng stream")

    a, conv_cache = models._head_input(model, batch)
    cache = {"layers": [], "conv": conv_cache}
    n_hidden = len(spec.hidden)
    for i in range(n_hidden):
        z = a @ model.params[f"w{i}"] + model.params[f"b{i}"]
        act = models._activate(spec.activation, z)
        mask = None
        if use_dropout:
            mask = (rng.uniform(size=act.shape) >= spec.dropout) / (1.0 - spec.dropout)
        cache["layers"].append({"input": a, "z": z, "act": act, "mask": mask})
        a = act if mask is None else act * mask
    logits = a @ model.params[f"w{n_hidden}"] + model.params[f"b{n_hidden}"]
    cache["logits_input"] = a
    return old_alloc_softmax(logits), cache


def old_alloc_backward(model, cache, dlogits, out=None):
    if "logits_input" not in cache:
        raise ValueError("stale or incomplete forward cache")
    spec = model.spec
    n_hidden = len(spec.hidden)
    grads = model.views(np.empty_like(model.flat)) if out is None else out
    conv = spec.architecture == "tiny-conv"
    a = cache["logits_input"]
    np.matmul(a.T, dlogits, out=grads[f"w{n_hidden}"])
    np.add.reduce(dlogits, axis=0, out=grads[f"b{n_hidden}"])
    if n_hidden or conv:  # an MLP's input gradient is never used
        da = dlogits @ model.params[f"w{n_hidden}"].T
    for i in range(n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        if layer["mask"] is not None:
            da = da * layer["mask"]
        dz = da * old_alloc_activate_grad(spec.activation, layer["z"], layer["act"])
        np.matmul(layer["input"].T, dz, out=grads[f"w{i}"])
        np.add.reduce(dz, axis=0, out=grads[f"b{i}"])
        if i or conv:
            da = dz @ model.params[f"w{i}"].T
    if conv:
        _conv_backward(model, cache["conv"], da, grads)
    return grads


def old_alloc_contrastive_term(model, strong_views, anchor_probs, lam, rng, grad_flat,
                               loss=0.0):
    m = len(strong_views)
    if m == 0:
        raise ValueError("need at least one strong view")
    scale = lam / (m * anchor_probs.shape[0])
    view_flat = np.empty_like(model.flat)
    view_grads = model.views(view_flat)
    for view in strong_views:
        probs, cache = old_alloc_forward(model, view, rng)
        loss += float(scale * kl_div(probs, anchor_probs).sum())
        old_alloc_backward(model, cache, scale * _kl_logit_grad(probs, anchor_probs),
                           out=view_grads)
        grad_flat += view_flat
    return loss


def old_alloc_train_epoch(model, dataset, strategy, opt_state, cfg, epoch, seed):
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
        weak, strong_views = old_augmented_views(samples[start:stop], plus, weak_rng,
                                                 strong_rngs)
        sharp = served[start:stop]
        try:
            probs, cache = old_alloc_forward(model, weak, dropout_rng)
            batch_loss = float(soft_cross_entropy(sharp, probs).sum() / (bsz * k))
            dlogits = (probs - sharp) / (bsz * k)
            old_alloc_backward(model, cache, dlogits, out=grads)
            if strong_views:
                batch_loss = old_alloc_contrastive_term(model, strong_views, probs, plus.lam,
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


@pytest.mark.parametrize("n, k", [(1, 2), (16, 4), (63, 3), (64, 4), (300, 7), (50, 9)])
def test_softmax_out_matches_reference(n, k):
    # ties (all -0.0 rows) and rows whose other entries underflow after the shift
    logits = np.random.default_rng([n, k]).normal(0.0, 30.0, size=(n, k))
    logits[::5] = -0.0
    logits[1::7, 0] = 745.0
    want = old_alloc_softmax(logits)
    assert_bit_equal(softmax(logits), want)
    out = np.full((n, k), np.nan)
    assert softmax(logits, out=out) is out
    assert_bit_equal(out, want)
    in_place = logits.copy()
    assert_bit_equal(softmax(in_place, out=in_place), want)


@pytest.mark.parametrize("arch", ["mlp", "tiny-conv"])
@pytest.mark.parametrize("hidden", [(), (6, 5)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("plus", [False, True])
def test_train_epoch_in_kept_buffers_matches_allocating_pass(arch, hidden, activation,
                                                            dropout, plus):
    # 23 samples in batches of 6, so row counts 6 and 5 alternate, with an
    # evaluate (predict's own buffers) between epochs
    rng = np.random.default_rng(21)
    h, w, ch, n, k = 6, 7, 2, 23, 3
    shape = (h, w, ch) if arch == "tiny-conv" else (h * w * ch,)
    train, test = (data.Dataset(samples=rng.normal(0.0, 1.0, size=(m, *shape)),
                                clean_labels=rng.integers(0, k, size=m),
                                labels=rng.integers(0, k, size=m), k=k) for m in (n, 11))
    cfg = TrainConfig(epochs=3, batch_size=6, lr=0.05, tau=0.5,
                      strategy=StrategyConfig(mode="bsd", gamma=0.8, c=20.0),
                      bsd_plus=BsdPlusConfig(enabled=plus, lam=0.7, views=2,
                                             strong_jitter=0.1, erase_frac=0.3))
    spec = ModelSpec(input_dim=h * w * ch, classes=k, hidden=hidden, activation=activation,
                     architecture=arch, grid_shape=shape if arch == "tiny-conv" else None,
                     dropout=dropout, seed=6)

    def run(epoch_fn):
        model, opt = init_model(spec), make_optimizer(cfg)
        strategy = TargetStrategy(cfg.strategy, train.labels, k, cfg.epochs)
        rows, evals = [], []
        for epoch in range(1, cfg.epochs + 1):
            rows.append(epoch_fn(model, train, strategy, opt, cfg, epoch, 9))
            evals.append(evaluate(model, test)["preds"])
        return (model, opt, strategy, rows), evals

    new, new_evals = run(train_epoch)
    old, old_evals = run(old_alloc_train_epoch)
    assert_same_run(new, old)
    for got, want in zip(new_evals, old_evals):
        assert_bit_equal(got, want)
    # two training sets (6 and 5 rows) beside the eval set (11 rows); none per step
    scratch = new[0].scratch
    assert sorted(map(str, scratch)) == ["('forward', 5)", "('forward', 6)", "predict",
                                         *(["view_grad"] if plus else [])]
    assert scratch["predict"]["logits"].shape == (11, k)
