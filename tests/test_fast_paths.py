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
"""

import math

import numpy as np
import pytest

from bsdlab import data, models
from bsdlab.analysis import (DarkKnowledge, _as_preds, _bin_index, _midranks,
                             _temperature_nll, ace, auroc, delta_decomposition,
                             reliability_bins, sce)
from bsdlab.data import augment_strong, make_blobs
from bsdlab.models import CONV_CHANNELS, ModelSpec, backward, forward, init_model
from bsdlab.numerics import (PROB_FLOOR, _class_reduce, entropy, kl_div, one_hot,
                             soft_cross_entropy, softmax)
from bsdlab.targets import (SIMPLEX_RENORM_TOL, StrategyConfig, TargetStrategy, _check_pred,
                            init_prior, sharpen)
from bsdlab.training import (TrainConfig, _kl_logit_grad, evaluate, make_optimizer,
                             train_epoch)


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

    def float_mask(name, z, a):
        if name == "relu":
            return (z > 0.0).astype(np.float64)
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
            self.store = init_prior(self.labels, k, cfg.c, cfg.epsilon, cfg.gamma)
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
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            assert_same_targets(mode, new.targets(idx, epoch), old.targets(idx, epoch))
            preds = rng.dirichlet(np.full(k, 0.5), size=idx.shape[0])
            new.update(idx, preds)
            old.update(idx, preds)
        assert_same_targets(mode, new.current_targets(epoch), old.current_targets(epoch))


@pytest.mark.parametrize("mode, kw", STRATEGY_CASES, ids=STRATEGY_IDS)
def test_training_with_store_strategy_matches_reference(mode, kw):
    train = make_blobs(3, 10, spacing=2.0, cov_scale=0.8, seed=[5, 0])
    test = make_blobs(3, 10, spacing=2.0, cov_scale=0.8, seed=[5, 1], split="test")
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
    if np.any(err > SIMPLEX_RENORM_TOL):
        raise ValueError(
            f"prediction off the simplex by {err.max():.3e} (> {SIMPLEX_RENORM_TOL})"
        )
    return pred / s


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
    rng = np.random.default_rng(n * 37 + k)
    p = trace_preds(rng, n, k)
    p /= p.sum(axis=1, keepdims=True)  # the rows rounded onto bin edges are off the simplex
    drifted = p * (1.0 + 1e-9 * rng.standard_normal((n, 1)))
    with_nan = p.copy()
    with_nan[n // 2, 0] = np.nan
    for case in (p, drifted, with_nan, np.asfortranarray(drifted)):
        assert_bit_equal(_check_pred(case), old_check_pred(case))
    off = p.copy()
    off[-1] *= 1.1
    for bad in (off, -p):
        with pytest.raises(ValueError) as got:
            _check_pred(bad)
        with pytest.raises(ValueError) as want:
            old_check_pred(bad)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n, k", ANALYSIS_SHAPES)
@pytest.mark.parametrize("bins", [1, 10, 15, 40])
def test_binned_calibration_matches_reference(n, k, bins):
    rng = np.random.default_rng(n * 41 + k + bins)
    p = trace_preds(rng, n, k)
    labels = rng.integers(0, k, size=n)
    assert repr(reliability_bins(p, labels, bins)) == repr(old_reliability_bins(p, labels, bins))
    assert repr(sce(p, labels, bins)) == repr(old_sce(p, labels, bins))
    assert repr(ace(p, labels, bins)) == repr(old_ace(p, labels, bins))


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
