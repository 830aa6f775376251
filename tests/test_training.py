import builtins
import copy
import ctypes
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from bsdlab import analysis, training
from bsdlab.data import Dataset, augment_strong, augment_weak, make_blobs
from bsdlab.fileio import HEADER_MAX_BYTES, ROWS_PER_WRITE, read_blocks, write_blocks
from bsdlab.models import Model, ModelSpec, forward, init_model
from bsdlab.numerics import kl_div, optimizer_step, soft_cross_entropy
from bsdlab.targets import EvidenceStore, StrategyConfig, TargetStrategy, update_weight
from bsdlab.training import (BsdPlusConfig, SeedRun, TrainConfig, TrainingDiverged,
                             contrastive_term, evaluate, lr_at, make_optimizer,
                             read_records, run_experiment, run_layout, run_single_seed,
                             train_epoch)

from oracles import finite_diff_grad


def tiny_dataset(n_per=10, k=2, seed=0, spacing=4.0):
    return make_blobs(k, n_per, spacing=spacing, cov_scale=0.5, seed=seed)


def small_config(mode="baseline", **kw):
    strategy_kw = kw.pop("strategy_kw", {})
    return TrainConfig(epochs=kw.pop("epochs", 3), batch_size=kw.pop("batch_size", 8),
                       optimizer=kw.pop("optimizer", "sgd"), lr=kw.pop("lr", 0.5),
                       momentum=kw.pop("momentum", 0.0), eval_every=kw.pop("eval_every", 1),
                       strategy=StrategyConfig(mode=mode, **strategy_kw), **kw)


def fresh_run(mode="baseline", dataset=None, seed=1, **kw):
    dataset = dataset or tiny_dataset()
    cfg = small_config(mode, **kw)
    spec = ModelSpec(input_dim=dataset.d, classes=dataset.k, hidden=(8,),
                     dropout=0.0, seed=seed)
    model = init_model(spec)
    strategy = TargetStrategy(cfg.strategy, dataset.labels, dataset.k, cfg.epochs)
    return model, dataset, strategy, make_optimizer(cfg), cfg


class TestLrSchedule:
    def test_cosine_start_at_base(self):
        assert lr_at("cosine", 0.1, 0, 100) == 0.1

    def test_cosine_midpoint_half(self):
        np.testing.assert_allclose(lr_at("cosine", 0.1, 50, 100), 0.05, rtol=1e-12)

    def test_constant(self):
        for epoch in (0, 7, 99):
            assert lr_at("constant", 0.3, epoch, 100) == 0.3


class TestTrainEpoch:
    def test_convex_loss_decreases(self):
        samples = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 1])
        ds = Dataset(samples=samples, clean_labels=labels, labels=labels.copy(), k=2)
        cfg = small_config("baseline", epochs=2, batch_size=2, lr=0.5)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(), dropout=0.0, seed=3)
        model = init_model(spec)
        strategy = TargetStrategy(cfg.strategy, ds.labels, 2, cfg.epochs)
        opt = make_optimizer(cfg)
        losses = [train_epoch(model, ds, strategy, opt, cfg, e, seed=0)["train_loss"]
                  for e in (1, 2)]
        assert losses[1] < losses[0]

    def test_evidence_mass_after_first_epoch(self):
        model, ds, strategy, opt, cfg = fresh_run(
            "bsd", strategy_kw={"gamma": 0.95, "c": 1000.0})
        train_epoch(model, ds, strategy, opt, cfg, 1, seed=0)
        np.testing.assert_allclose(strategy.store.mass, 0.95 * 1000.0 + 1.0, rtol=1e-15)

    def test_frozen_model_targets_converge_geometrically(self):
        ds = tiny_dataset()
        cfg = small_config("bsd", lr=0.0, batch_size=ds.n,
                           strategy_kw={"gamma": 0.5, "c": 4.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0, seed=5)
        model = init_model(spec)
        pred = evaluate(model, ds)["preds"]
        strategy = TargetStrategy(cfg.strategy, ds.labels, 2, cfg.epochs)
        opt = make_optimizer(cfg)
        gaps = [np.abs(strategy.store.y - pred).max()]
        for epoch in range(1, 6):
            w = update_weight(cfg.strategy.gamma, strategy.store.mass)
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
            gaps.append(np.abs(strategy.store.y - pred).max())
            np.testing.assert_allclose(gaps[-1], w * gaps[-2], rtol=1e-9)

    def test_loss_uses_pre_update_targets(self):
        ds = tiny_dataset(n_per=4)
        cfg = small_config("bsd", batch_size=ds.n, lr=0.0,
                           strategy_kw={"gamma": 0.0, "c": 10.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(), dropout=0.0, seed=6)
        model = init_model(spec)
        strategy = TargetStrategy(cfg.strategy, ds.labels, 2, cfg.epochs)
        opt = make_optimizer(cfg)
        pre_targets = strategy.store.y.copy()
        preds = evaluate(model, ds)["preds"]
        row = train_epoch(model, ds, strategy, opt, cfg, 1, seed=0)
        perm = np.random.default_rng([0, 1, 0]).permutation(ds.n)
        expected = float(soft_cross_entropy(pre_targets[perm], preds[perm]).sum()
                         / (ds.n * 2))
        np.testing.assert_allclose(row["train_loss"], expected, rtol=1e-12)
        # gamma = 0: the store now holds the epoch's predictions, not the prior
        np.testing.assert_allclose(strategy.store.y, preds, rtol=1e-12)

    def test_store_update_cannot_affect_the_step_it_follows(self):
        ds = tiny_dataset(n_per=4)
        runs = []
        for mutate in (False, True):
            model, _, strategy, opt, cfg = fresh_run("bsd", dataset=ds, seed=7,
                                                     batch_size=ds.n)
            if mutate:
                strategy.update = lambda indices, preds: None  # drop the write-back
            train_epoch(model, ds, strategy, opt, cfg, 1, seed=0)
            runs.append(model)
        for name in runs[0].params:
            np.testing.assert_array_equal(runs[0].params[name], runs[1].params[name])

    def test_baseline_never_modifies_targets(self):
        model, ds, strategy, opt, cfg = fresh_run("baseline")
        before = strategy.current_targets(1).copy()
        for epoch in (1, 2, 3):
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
        np.testing.assert_array_equal(strategy.current_targets(3), before)
        assert strategy.frozen

    def test_pure_conjugate_accumulation_at_gamma_one(self):
        # gamma = 1, tau = 1: after T epochs the stored target equals
        # (alpha0 + sum of per-epoch predictions) / (A0 + T), accumulated
        # independently in raw concentration space
        ds = tiny_dataset(n_per=5)
        T = 4
        cfg = small_config("bsd", epochs=T, batch_size=ds.n, lr=0.3,
                           strategy_kw={"gamma": 1.0, "c": 10.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0, seed=8)
        model = init_model(spec)
        strategy = TargetStrategy(cfg.strategy, ds.labels, 2, cfg.epochs)
        opt = make_optimizer(cfg)
        alpha = strategy.store.y * strategy.store.mass
        for epoch in range(1, T + 1):
            alpha += evaluate(model, ds)["preds"]  # params at epoch start
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
        np.testing.assert_allclose(strategy.store.y,
                                   alpha / alpha.sum(axis=1, keepdims=True),
                                   atol=1e-12)
        np.testing.assert_allclose(strategy.store.mass, 10.0 + T, rtol=1e-15)

    def test_simplex_conservation_each_epoch(self):
        model, ds, strategy, opt, cfg = fresh_run(
            "bsd", strategy_kw={"gamma": 0.9, "c": 100.0})
        for epoch in (1, 2, 3):
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
            np.testing.assert_allclose(strategy.store.y.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(strategy.store.y >= 0.0)

    def test_deterministic_repeat(self):
        results = []
        for _ in range(2):
            model, ds, strategy, opt, cfg = fresh_run(
                "bsd", seed=9, strategy_kw={"gamma": 0.95, "c": 100.0})
            rows = [train_epoch(model, ds, strategy, opt, cfg, e, seed=2)
                    for e in (1, 2)]
            results.append((rows, model))
        assert results[0][0] == results[1][0]
        for name in results[0][1].params:
            np.testing.assert_array_equal(results[0][1].params[name],
                                          results[1][1].params[name])

    def test_misaligned_store_rejected(self):
        model, ds, strategy, opt, cfg = fresh_run("bsd")
        short = TargetStrategy(cfg.strategy, ds.labels[:-1], ds.k, cfg.epochs)
        with pytest.raises(ValueError, match="misaligned"):
            train_epoch(model, ds, short, opt, cfg, 1, seed=0)

    def test_non_finite_gradient_raises_diverged_naming_block(self, monkeypatch):
        model, ds, strategy, opt, cfg = fresh_run("bsd", optimizer="adam", lr=0.05)
        train_epoch(model, ds, strategy, opt, cfg, 1, seed=4)
        original = training.backward

        def poisoned(model, cache, dlogits, out=None):
            grads = original(model, cache, dlogits, out=out)
            grads["w1"][0, 0] = np.nan  # the loss itself stays finite
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        before, step = model.flat.copy(), opt.step
        with pytest.raises(TrainingDiverged, match=r"non-finite gradient in block 'w1' "
                           r"at epoch 2, batch starting 0 \(seed 4\)"):
            train_epoch(model, ds, strategy, opt, cfg, 2, seed=4)
        np.testing.assert_array_equal(model.flat, before)
        assert opt.step == step

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_context(self):
        model, ds, strategy, opt, cfg = fresh_run("baseline", lr=1e18, epochs=9)
        with pytest.raises(TrainingDiverged, match="epoch"):
            for epoch in range(1, 10):
                train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_strong_view_raises_diverged_with_context(self):
        plus = BsdPlusConfig(enabled=True, views=2, strong_jitter=1e308)
        model, ds, strategy, opt, cfg = fresh_run("bsd", bsd_plus=plus)
        before = model.flat.copy()
        with pytest.raises(TrainingDiverged, match=r"^non-finite logits at epoch 1, "
                           r"batch starting 0 \(seed 3\)$"):
            train_epoch(model, ds, strategy, opt, cfg, 1, seed=3)
        np.testing.assert_array_equal(model.flat, before)
        assert opt.step == 0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_evaluation_raises_diverged_with_context(self):
        model, ds, strategy, opt, cfg = fresh_run("baseline", lr=1e200, epochs=1,
                                                  batch_size=20)
        run = SeedRun(3, model, opt, strategy)
        with pytest.raises(TrainingDiverged, match=r"^non-finite logits on the test set "
                           r"at epoch 1 \(seed 3\)$"):
            run.step(ds, ds, cfg)
        assert opt.step == 1

    def test_value_error_not_about_finiteness_propagates(self):
        model, ds, strategy, opt, cfg = fresh_run("baseline")
        wide = Dataset(samples=np.zeros((ds.n, 3)), clean_labels=ds.labels,
                       labels=ds.labels.copy(), k=ds.k)
        with pytest.raises(ValueError, match=r"^expected batch of shape \(n, 2\), got") as info:
            train_epoch(model, wide, strategy, opt, cfg, 1, seed=3)
        assert type(info.value) is ValueError

    def test_label_smoothing_trains_at_a_tau_whose_powers_underflow(self):
        # 0.025 ** 1e4 and 0.925 ** 1e4 are both 0, so sharpen must not divide by 0
        ds = make_blobs(4, 20, seed=1)
        cfg = TrainConfig(epochs=2, batch_size=16, tau=1e-4,
                          strategy=StrategyConfig(mode="label-smoothing"))
        spec = ModelSpec(input_dim=ds.d, classes=ds.k, hidden=(8,))
        model = init_model(spec)
        strategy = TargetStrategy(cfg.strategy, ds.labels, ds.k, cfg.epochs)
        opt = make_optimizer(cfg)
        rows = [train_epoch(model, ds, strategy, opt, cfg, e, seed=0) for e in (1, 2)]
        assert all(math.isfinite(row["train_loss"]) for row in rows)


class TestEpochUpdate:
    """The store is updated once per epoch, after the epoch's last step."""

    def test_mid_epoch_divergence_leaves_store_at_epoch_start(self, monkeypatch):
        model, ds, strategy, opt, cfg = fresh_run("bsd", optimizer="adam", lr=0.05,
                                                  batch_size=4)
        train_epoch(model, ds, strategy, opt, cfg, 1, seed=4)
        y0, A0, step = strategy.store.y.tobytes(), strategy.store.mass, opt.step
        original = training.backward
        calls = []

        def poisoned_third_batch(model, cache, dlogits, out=None):
            grads = original(model, cache, dlogits, out=out)
            calls.append(None)
            if len(calls) == 3:
                grads["w1"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(training, "backward", poisoned_third_batch)
        with pytest.raises(TrainingDiverged, match="at epoch 2, batch starting 8 "):
            train_epoch(model, ds, strategy, opt, cfg, 2, seed=4)
        assert opt.step == step + 2  # two batches stepped before the third diverged
        assert strategy.store.y.tobytes() == y0
        assert strategy.store.mass == A0

    def test_non_finite_loss_names_first_batch_and_leaves_store(self, monkeypatch):
        # probabilities and targets are checked finite, so only a patched loss gets here
        model, ds, strategy, opt, cfg = fresh_run("bsd", batch_size=4)  # 20 = 5 batches
        y0, A0 = strategy.store.y.tobytes(), strategy.store.mass
        original = training.soft_cross_entropy

        def poisoned(target, pred):
            rows = original(target, pred)
            rows[[5, 13]] = np.nan  # batches 2 and 4
            return rows

        monkeypatch.setattr(training, "soft_cross_entropy", poisoned)
        with pytest.raises(TrainingDiverged, match=r"^non-finite loss at epoch 1, batch "
                           r"starting 4 \(seed 6\)$"):
            train_epoch(model, ds, strategy, opt, cfg, 1, seed=6)
        assert opt.step == 5  # the loss is checked after the epoch's last step
        assert strategy.store.y.tobytes() == y0
        assert strategy.store.mass == A0

    def test_loss_is_one_pass_per_epoch(self, monkeypatch):
        calls = []
        original = training.soft_cross_entropy

        def counted(target, pred):
            calls.append(pred.shape)
            return original(target, pred)

        monkeypatch.setattr(training, "soft_cross_entropy", counted)
        model, ds, strategy, opt, cfg = fresh_run("bsd", batch_size=6)  # 20 = 3 * 6 + 2
        for epoch in (1, 2):
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
        assert calls == [(ds.n, ds.k)] * 2

    def test_store_updated_once_per_epoch_with_batch_blocks(self, monkeypatch):
        calls = []
        original = EvidenceStore.update

        def counted(self, indices, preds):
            calls.append((indices.shape[0], preds.shape))
            return original(self, indices, preds)

        monkeypatch.setattr(EvidenceStore, "update", counted)
        model, ds, strategy, opt, cfg = fresh_run("bsd", batch_size=6)  # 20 = 3 * 6 + 2
        for epoch in (1, 2, 3):
            train_epoch(model, ds, strategy, opt, cfg, epoch, seed=0)
        assert calls == [(ds.n, (ds.n, ds.k))] * 3

    @pytest.mark.parametrize("shape", [(10, 3), (10, 6, 7, 2)])
    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_augmentations_never_write_into_their_input(self, shape, jitter):
        # a batch is a slice of the epoch's sample gather, so a write into it
        # would reach the strong views built from the same rows
        gathered = np.random.default_rng(0).normal(size=shape)
        before = gathered.tobytes()
        gathered.flags.writeable = False
        batch = gathered[2:7]
        plus = BsdPlusConfig(enabled=True, views=3, weak_jitter=jitter, strong_jitter=jitter)
        rngs = [np.random.default_rng(j) for j in range(1 + plus.views)]
        weak = augment_weak(batch, rngs[0], jitter_sigma=plus.weak_jitter)
        strong = [augment_strong(batch, rng, jitter_sigma=plus.strong_jitter,
                                 erase_frac=plus.erase_frac) for rng in rngs[1:]]
        for view in [weak, *strong]:
            assert view.shape == batch.shape
            assert not np.shares_memory(view, gathered)
        assert gathered.tobytes() == before

    @pytest.mark.parametrize("shape", [(3,), (6, 7, 2)])
    def test_batches_of_one_epoch_get_different_views(self, shape, monkeypatch):
        # every sample is the same, so two batches can differ only by their
        # draws: each batch must take fresh numbers from the epoch's streams
        n, k = 8, 2
        sample = np.random.default_rng(0).uniform(size=shape)
        labels = np.tile([0, 1], n // 2)
        ds = Dataset(samples=np.stack([sample] * n), clean_labels=labels, labels=labels, k=k)
        views = {"augment_weak": [], "augment_strong": []}
        for name, seen in views.items():
            def recorded(batch, rng, augment=getattr(training, name), seen=seen, **kw):
                out = augment(batch, rng, **kw)
                seen.append(out.tobytes())
                return out
            monkeypatch.setattr(training, name, recorded)
        grid = {"architecture": "tiny-conv", "grid_shape": shape} if len(shape) == 3 else {}
        spec = ModelSpec(input_dim=sample.size, classes=k, hidden=(4,), seed=2, **grid)
        cfg = TrainConfig(epochs=1, batch_size=n // 2, strategy=StrategyConfig(mode="bsd"),
                          bsd_plus=BsdPlusConfig(enabled=True, views=2))
        strategy = TargetStrategy(cfg.strategy, labels, k, cfg.epochs)
        train_epoch(init_model(spec), ds, strategy, make_optimizer(cfg), cfg, 1, seed=3)
        weak, strong = views["augment_weak"], views["augment_strong"]
        # one weak view per batch, then two strong views per batch, in order
        assert len(weak) == 2 and len(set(weak)) == 2
        assert len(strong) == 4 and len(set(strong)) == 4


class TestEvaluate:
    def test_metrics_equal_the_analysis_functions(self):
        ds = tiny_dataset(n_per=40, k=3, spacing=1.0)
        model = init_model(ModelSpec(input_dim=2, classes=3, hidden=(4,), seed=9))
        ev = evaluate(model, ds)
        assert (ev["acc"], ev["ece"], ev["nll"]) == (
            analysis.accuracy(ev["preds"], ds.labels), analysis.ece(ev["preds"], ds.labels),
            analysis.nll(ev["preds"], ds.labels))

    def test_equals_dropout_free_forward(self):
        ds = tiny_dataset()
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.5)
        model = init_model(spec)
        preds = evaluate(model, ds)["preds"]
        expected, _ = forward(Model(dc_replace(spec, dropout=0.0), model.flat), ds.samples)
        assert preds.tobytes() == expected.tobytes()


def view_loss(terms, loss=0.0):
    """``loss`` plus ``contrastive_term``'s per-view terms, added in view order as
    ``train_epoch`` adds them."""
    for term in terms:
        loss += term
    return loss


class TestContrastive:
    def test_identical_views_zero_loss(self):
        spec = ModelSpec(input_dim=3, classes=2, hidden=(4,), dropout=0.0, seed=10)
        model = init_model(spec)
        x = np.array([[0.2, -0.4, 1.0], [1.5, 0.3, -0.7]])
        pred, _ = forward(model, x)
        grad_flat = np.zeros_like(model.flat)
        terms = contrastive_term(model, [x, x], pred, 3.0, None, grad_flat)
        assert len(terms) == 2 and all(type(t) is float for t in terms)
        np.testing.assert_allclose(view_loss(terms), 0.0, atol=1e-12)
        np.testing.assert_allclose(grad_flat, 0.0, atol=1e-12)

    def test_lambda_scaling(self):
        spec = ModelSpec(input_dim=3, classes=2, hidden=(4,), dropout=0.0, seed=11)
        model = init_model(spec)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 3))
        views = [rng.normal(size=(1, 3))]
        anchor, _ = forward(model, x)
        l1 = view_loss(contrastive_term(model, views, anchor, 1.0, None,
                                        np.zeros_like(model.flat)))
        l2 = view_loss(contrastive_term(model, views, anchor, 2.0, None,
                                        np.zeros_like(model.flat)))
        np.testing.assert_allclose(l2, 2.0 * l1, rtol=1e-12)

    def test_batch_is_mean_of_single_samples(self):
        spec = ModelSpec(input_dim=3, classes=3, hidden=(5,), dropout=0.0, seed=17)
        model = init_model(spec)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3))
        views = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
        anchor, _ = forward(model, x)
        grad_flat = np.zeros_like(model.flat)
        loss = view_loss(contrastive_term(model, views, anchor, 1.3, None, grad_flat))
        singles = [np.zeros_like(model.flat) for _ in range(4)]
        single_losses = [view_loss(contrastive_term(model, [v[i:i + 1] for v in views],
                                                    anchor[i:i + 1], 1.3, None, singles[i]))
                         for i in range(4)]
        np.testing.assert_allclose(loss, np.mean(single_losses), rtol=1e-12)
        np.testing.assert_allclose(grad_flat, np.mean(singles, axis=0), rtol=1e-10, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        spec = ModelSpec(input_dim=3, classes=3, hidden=(5,), dropout=0.0, seed=13)
        model = init_model(spec)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 3))
        views = [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))]
        anchor, _ = forward(model, x)
        # the gradient is added to what the buffer already holds
        grad_flat = np.ones_like(model.flat)
        loss = view_loss(contrastive_term(model, views, anchor, 1.7, None, grad_flat), 5.0)
        analytic = grad_flat - 1.0
        x0 = model.flat.copy()

        def f(flat):
            model.flat[...] = flat
            return view_loss(contrastive_term(model, views, anchor, 1.7, None,
                                              np.zeros_like(flat)))

        np.testing.assert_allclose(loss - 5.0, f(x0), rtol=1e-12)
        numeric = finite_diff_grad(f, x0.copy(), h=1e-5)
        model.flat[...] = x0
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        assert rel < 1e-4

    def test_no_views_rejected(self):
        spec = ModelSpec(input_dim=2, classes=2, seed=15)
        model = init_model(spec)
        with pytest.raises(ValueError, match="view"):
            contrastive_term(model, [], np.array([[0.5, 0.5]]), 1.0, None,
                             np.zeros_like(model.flat))


class TestBsdPlusEpoch:
    def test_runs_and_updates_store_from_weak_view_only(self):
        ds = tiny_dataset(n_per=6)
        cfg = TrainConfig(epochs=2, batch_size=4, optimizer="sgd", lr=0.1,
                          momentum=0.0, eval_every=1,
                          strategy=StrategyConfig(mode="bsd", gamma=0.9, c=50.0),
                          tau=0.8,
                          bsd_plus=BsdPlusConfig(enabled=True, lam=2.0, views=2,
                                                 weak_jitter=0.05, strong_jitter=0.3))
        spec = ModelSpec(input_dim=2, classes=2, hidden=(6,), dropout=0.0, seed=16)
        model = init_model(spec)
        strategy = TargetStrategy(cfg.strategy, ds.labels, 2, cfg.epochs)
        opt = make_optimizer(cfg)
        rows = [train_epoch(model, ds, strategy, opt, cfg, e, seed=3) for e in (1, 2)]
        assert all(np.isfinite(r["train_loss"]) for r in rows)
        np.testing.assert_allclose(strategy.store.y.sum(axis=1), 1.0, atol=1e-9)


def new_seed_run(spec, dataset, cfg, seed):
    """A ``SeedRun`` as ``run_single_seed`` starts one, before any epoch."""
    return SeedRun(seed, init_model(dc_replace(spec, seed=seed)), make_optimizer(cfg),
                   TargetStrategy(cfg.strategy, dataset.labels, dataset.k, cfg.epochs))


class TestSeedRun:
    SPEC = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.2)

    def test_step_opens_no_file(self, tmp_path, monkeypatch):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=3, eval_every=2, strategy_kw={"gamma": 0.8, "c": 20.0})
        run = new_seed_run(self.SPEC, ds, cfg, 5)
        monkeypatch.chdir(tmp_path)

        def no_open(*args, **kwargs):
            raise AssertionError(f"SeedRun.step opened {args[0]!r}")

        monkeypatch.setattr(builtins, "open", no_open)
        evs = [run.step(ds, test, cfg)[1] for _ in range(cfg.epochs)]
        monkeypatch.undo()
        assert [ev is not None for ev in evs] == [False, True, True]
        assert run.epoch == 3 and len(run.rows) == 3
        assert list(tmp_path.iterdir()) == []

    def test_epochs_reuse_the_pass_and_eval_buffers(self):
        # 16 samples in batches of 6: row counts 6 and 4, plus the eval set's
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=5, seed=2)
        cfg = small_config("bsd", epochs=3, batch_size=6, strategy_kw={"gamma": 0.8, "c": 20.0})
        run = new_seed_run(self.SPEC, ds, cfg, 5)

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, (list, tuple)):
                return []
            return [a for v in value for a in arrays_in(v)]

        def held():
            return {key: [id(a) for a in arrays_in(value)]
                    for key, value in run.model.scratch.items()}

        run.step(ds, test, cfg)
        first = held()
        run.step(ds, test, cfg)
        run.step(ds, test, cfg)
        assert held() == first
        assert sorted(map(str, first)) == ["('forward', 4)", "('forward', 6)", "predict"]
        assert run.model.scratch["predict"]["logits"].shape[0] == 10

    def test_stepped_rows_are_the_records(self, tmp_path):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, eval_every=3, optimizer="adam", lr=0.05,
                           strategy_kw={"gamma": 0.8, "c": 20.0})
        layout = run_layout(tmp_path / "run")
        written = run_single_seed(self.SPEC, ds, test, cfg, 5, layout)
        run = new_seed_run(self.SPEC, ds, cfg, 5)
        rows = [run.step(ds, test, cfg)[0] for _ in range(cfg.epochs)]
        lines = (layout["records"] / "seed_5.jsonl").read_text().splitlines()
        assert [json.dumps(row, sort_keys=True) for row in rows] == lines
        assert rows == run.rows == written.rows
        assert [row["test_acc"] is not None for row in rows] == [False, False, True, True]

    def test_resumed_rows_are_the_records(self, tmp_path):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, eval_every=3, strategy_kw={"gamma": 0.8, "c": 20.0})
        layout = run_layout(tmp_path / "run")
        run_single_seed(self.SPEC, ds, test, cfg, 5, layout, stop_after=2)
        run = run_single_seed(self.SPEC, ds, test, cfg, 5, layout, resume=True)
        lines = (layout["records"] / "seed_5.jsonl").read_text().splitlines()
        assert [json.dumps(row, sort_keys=True) for row in run.rows] == lines
        assert [row["epoch"] for row in run.rows] == [1, 2, 3, 4]

    def test_seeds_stepped_in_lockstep_write_the_run_experiment_bytes(self, tmp_path):
        # two seeds alternate epoch by epoch, each through its own writer
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, eval_every=3, optimizer="adam", lr=0.05,
                           strategy_kw={"gamma": 0.8, "c": 20.0})
        run_experiment(self.SPEC, ds, test, cfg, seeds=[5, 6], run_dir=tmp_path / "serial")
        layout = run_layout(tmp_path / "lockstep")
        runs = [new_seed_run(self.SPEC, ds, cfg, seed) for seed in (5, 6)]
        writers = [training._SeedWriter(layout, run, test.labels, cfg.epochs, False)
                   for run in runs]
        for _ in range(cfg.epochs):
            for run, writer in zip(runs, writers):
                writer.epoch(run, *run.step(ds, test, cfg))
        for run, writer in zip(runs, writers):
            writer.finish(run)

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                    if p.is_file() and p.name != "timing.txt"}

        serial, lockstep = tree(tmp_path / "serial"), tree(layout["root"])
        assert "traces/seed_6/epoch_4.csv" in lockstep and "records/store_seed_5.csv" in lockstep
        assert sorted(serial) == sorted(lockstep)
        for rel in serial:
            assert serial[rel] == lockstep[rel], rel


class TestRunFiles:
    """A run writes exactly the files that ``run_layout``, ``seed_files`` and ``trace_file``
    name: each eval epoch's ``.trace``, the final trace's CSV once training reaches the last
    epoch, and ``timing.txt`` and the resolved config for a whole run."""
    SPEC = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)

    @staticmethod
    def seed_named(layout, seed, eval_epochs, finished):
        files = training.seed_files(layout, seed)
        named = {files["records"], files["state"], files["traces"]}
        named |= {training.trace_file(files["traces"], e) for e in eval_epochs}
        if finished:
            named |= {files["ckpt"], files["store"],
                      training.trace_file(files["traces"], max(eval_epochs)).with_suffix(".csv")}
        return named

    def test_finished_run(self, tmp_path):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, eval_every=3, strategy_kw={"gamma": 0.8, "c": 20.0})
        layout = run_layout(tmp_path / "run")
        run_experiment(self.SPEC, ds, test, cfg, seeds=[5, 6], run_dir=layout["root"],
                       config_snapshot={"name": "run"})
        named = {layout[key] for key in ("config", "records", "checkpoints", "traces", "timing")}
        for seed in (5, 6):
            named |= self.seed_named(layout, seed, (3, 4), finished=True)
        assert set(layout["root"].rglob("*")) == named

    def test_stopped_seed(self, tmp_path):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, strategy_kw={"gamma": 0.8, "c": 20.0})
        layout = run_layout(tmp_path / "run")
        run_single_seed(self.SPEC, ds, test, cfg, 5, layout, stop_after=2)
        named = {layout["records"], layout["checkpoints"], layout["traces"]}
        named |= self.seed_named(layout, 5, (1, 2), finished=False)
        assert set(layout["root"].rglob("*")) == named


class TestRunExperiment:
    def test_three_seeds_three_records(self, tmp_path):
        ds = tiny_dataset(n_per=6)
        test = tiny_dataset(n_per=4, seed=1)
        cfg = small_config("bsd", epochs=2, strategy_kw={"gamma": 0.9, "c": 10.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.1)
        records = run_experiment(spec, ds, test, cfg, seeds=[1, 2, 3],
                                 run_dir=tmp_path / "run")
        assert len(records) == 3
        layout = run_layout(tmp_path / "run")
        assert sorted(p.name for p in layout["records"].glob("seed_*.jsonl")) == [
            "seed_1.jsonl", "seed_2.jsonl", "seed_3.jsonl"]
        assert (layout["checkpoints"] / "seed_2_final.ckpt").exists()
        assert (layout["traces"] / "seed_1" / "epoch_2.csv").exists()
        assert (layout["records"] / "store_seed_1.csv").exists()

    def test_timing_file_has_one_line_per_seed(self, tmp_path):
        ds, test = tiny_dataset(n_per=6), tiny_dataset(n_per=4, seed=1)
        cfg = small_config("bsd", epochs=3, eval_every=2, strategy_kw={"gamma": 0.9, "c": 10.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.1)
        runs = run_experiment(spec, ds, test, cfg, seeds=[2, 10], run_dir=tmp_path / "run")
        for run in runs:
            assert min(run.phase_s.values()) >= 0.0
            assert sum(run.phase_s.values()) <= run.wall_clock_s
        secs = r"(\d+\.\d{3}) s"
        line_re = re.compile(rf"seed (\d+): {secs} \(train_epoch {secs}, evaluate {secs}, "
                             rf"trace_write {secs}, state_write {secs}\)")
        lines = run_layout(tmp_path / "run")["timing"].read_text().splitlines()
        matches = [line_re.fullmatch(line) for line in lines]
        assert all(matches), lines
        assert [m[1] for m in matches] == ["2", "10"]
        for m in matches:
            total, *phases = (float(v) for v in m.groups()[1:])
            assert min(phases) >= 0.0
            # each printed value is rounded to the millisecond
            assert sum(phases) <= total + 5 * 0.0005, m[0]

    def test_finished_seeds_hold_no_eval_buffers(self, tmp_path):
        ds, test = tiny_dataset(n_per=6), tiny_dataset(n_per=4, seed=1)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.1)
        runs = run_experiment(spec, ds, test, small_config("bsd", epochs=2), seeds=[1, 2],
                              run_dir=tmp_path / "run")
        assert [run.model.scratch for run in runs] == [{}, {}]

    @pytest.mark.parametrize("seeds", [[], [3, 3], [-1]], ids=["empty", "twice", "negative"])
    def test_bad_seed_list_refused_before_anything_changes(self, tmp_path, seeds):
        ds, test = tiny_dataset(n_per=6), tiny_dataset(n_per=4, seed=1)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
        cfg = small_config("bsd", epochs=2)
        run_experiment(spec, ds, test, cfg, seeds=[3], run_dir=tmp_path / "run")

        def tree(root):
            return {str(p.relative_to(root)): p.is_file() and p.read_bytes()
                    for p in root.rglob("*")}

        before = tree(tmp_path)
        message = re.escape(f"seeds must be {training.SEEDS_RULE[1]}, got {seeds}")
        for run_dir in ("run", "fresh"):
            with pytest.raises(ValueError, match=message):
                run_experiment(spec, ds, test, cfg, seeds=seeds, run_dir=tmp_path / run_dir)
        assert tree(tmp_path) == before

    def test_seeds_differ(self, tmp_path):
        ds = tiny_dataset(n_per=6)
        test = tiny_dataset(n_per=4, seed=1)
        cfg = small_config("baseline", epochs=2)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.1)
        run_experiment(spec, ds, test, cfg, seeds=[1, 2], run_dir=tmp_path / "r")
        layout = run_layout(tmp_path / "r")
        a = (layout["records"] / "seed_1.jsonl").read_text()
        b = (layout["records"] / "seed_2.jsonl").read_text()
        assert a != b

    @pytest.mark.parametrize("opt_kw, moments", [
        ({"optimizer": "adam", "lr": 0.05}, ("m", "v")),
        ({"optimizer": "sgd", "momentum": 0.9}, ("buf",)),
        ({"optimizer": "sgd", "momentum": 0.0}, ()),
    ], ids=["adam", "sgd-momentum", "sgd-plain"])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, opt_kw, moments):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, strategy_kw={"gamma": 0.8, "c": 20.0}, **opt_kw)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.2)

        full_layout = run_layout(tmp_path / "full")
        run_experiment(spec, ds, test, cfg, seeds=[5], run_dir=tmp_path / "full")

        part_layout = run_layout(tmp_path / "part")
        part_layout["root"].mkdir(parents=True)
        run_single_seed(spec, ds, test, cfg, 5, part_layout, stop_after=2)
        _, saved = read_blocks(part_layout["checkpoints"] / "seed_5.state",
                               training.STATE_MAGIC)
        assert {b.split("/")[1] for b in saved if b.startswith("opt/")} == set(moments)
        assert sorted(p.name for p in (part_layout["traces"] / "seed_5").iterdir()) == [
            "epoch_1.trace", "epoch_2.trace"]
        run_single_seed(spec, ds, test, cfg, 5, part_layout, resume=True)

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                    if p.is_file() and p.name != "timing.txt"}

        full, part = tree(full_layout["root"]), tree(part_layout["root"])
        assert "traces/seed_5/epoch_4.csv" in part and "records/store_seed_5.csv" in part
        assert sorted(full) == sorted(part)
        for rel in full:
            assert full[rel] == part[rel], rel

    def test_crash_between_record_and_state_resumes_to_same_bytes(self, tmp_path,
                                                                   monkeypatch):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, optimizer="adam", lr=0.05,
                           strategy_kw={"gamma": 0.8, "c": 20.0})
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.2)
        run_experiment(spec, ds, test, cfg, seeds=[5], run_dir=tmp_path / "full")

        layout = run_layout(tmp_path / "part")
        save_state = training._save_train_state

        def crash_at_epoch_3(path, model, opt_state, strategy, epoch):
            if epoch == 3:
                raise KeyboardInterrupt("crash after the epoch-3 record row")
            save_state(path, model, opt_state, strategy, epoch)

        monkeypatch.setattr(training, "_save_train_state", crash_at_epoch_3)
        with pytest.raises(KeyboardInterrupt):
            run_single_seed(spec, ds, test, cfg, 5, layout)
        records = layout["records"] / "seed_5.jsonl"
        assert len(records.read_text().splitlines()) == 3  # one row past the state
        monkeypatch.setattr(training, "_save_train_state", save_state)
        run_single_seed(spec, ds, test, cfg, 5, layout, resume=True)

        full = run_layout(tmp_path / "full")
        for rel in ("records/seed_5.jsonl", "records/store_seed_5.csv",
                    "checkpoints/seed_5.state", "checkpoints/seed_5_final.ckpt"):
            assert (layout["root"] / rel).read_bytes() == (full["root"] / rel).read_bytes(), rel

    def test_runs_one_blas_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
        if not libs:
            pytest.skip("numpy without its bundled OpenBLAS")
        blas = ctypes.CDLL(str(libs[0]))
        get_threads, set_threads = (blas.scipy_openblas_get_num_threads64_,
                                    blas.scipy_openblas_set_num_threads64_)
        ds, test = tiny_dataset(n_per=6), tiny_dataset(n_per=4, seed=1)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
        seen = []
        before = get_threads()
        set_threads(2)
        try:
            run_experiment(spec, ds, test, small_config("bsd", epochs=2), seeds=[1],
                           run_dir=tmp_path / "run", progress=lambda *_: seen.append(get_threads()))
            assert seen == [1, 1] and get_threads() == 2
            # a BLAS without the symbols is left as it is
            monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
            seen.clear()
            run_experiment(spec, ds, test, small_config("bsd", epochs=2), seeds=[1],
                           run_dir=tmp_path / "run", progress=lambda *_: seen.append(get_threads()))
            assert seen == [2, 2]
        finally:
            set_threads(before)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS reads its kernel and thread count once, when it loads, so each run is
        # a child process. Two threads cut a 13 000-row conv product into parts that
        # are no multiple of the Nehalem kernel's 4-row block, which sums such a
        # part's last rows in another order; run_experiment runs one thread.
        child = textwrap.dedent("""
            import sys
            import numpy as np
            from bsdlab.data import Dataset
            from bsdlab.models import ModelSpec
            from bsdlab.targets import StrategyConfig
            from bsdlab.training import BsdPlusConfig, TrainConfig, run_experiment

            rng = np.random.default_rng(4)
            labels = np.tile(np.arange(3), 464)[:1391]
            grids = rng.normal(0.0, 0.3, size=(1391, 12, 12, 1))
            for c in range(3):
                grids[labels == c, 4 * c:4 * c + 4, :, 0] += 1.0
            train, test = (Dataset(samples=grids[rows], clean_labels=labels[rows],
                                   labels=labels[rows].copy(), k=3)
                           for rows in (slice(0, 390), slice(390, None)))
            cfg = TrainConfig(epochs=3, batch_size=130, optimizer="adam", lr=0.01,
                              eval_every=1, strategy=StrategyConfig(mode="bsd"),
                              bsd_plus=BsdPlusConfig(enabled=True, views=2))
            spec = ModelSpec(input_dim=144, classes=3, hidden=(32,), architecture="tiny-conv",
                             grid_shape=(12, 12, 1), dropout=0.1)
            run_experiment(spec, train, test, cfg, seeds=[1], run_dir=sys.argv[1])
        """)
        src = str(Path(training.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", child, str(tmp_path / threads)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*")
                       if p.is_file() and p.name != "timing.txt")
        assert files
        for rel in files:
            assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel

    def test_killed_process_keeps_every_saved_epoch_row(self, tmp_path):
        # the child process dies right after the epoch-2 state save, without
        # closing or flushing anything, so only flushed record rows survive
        child = textwrap.dedent("""
            import os, sys
            from bsdlab import analysis, training
            from bsdlab.data import make_blobs
            from bsdlab.models import ModelSpec
            from bsdlab.targets import StrategyConfig
            save_state = training._save_train_state

            def die_after_epoch_2(path, model, opt_state, strategy, epoch):
                save_state(path, model, opt_state, strategy, epoch)
                if epoch == 2:
                    os._exit(3)

            training._save_train_state = die_after_epoch_2
            ds = make_blobs(2, 8, spacing=4.0, cov_scale=0.5, seed=0)
            test = make_blobs(2, 4, spacing=4.0, cov_scale=0.5, seed=2)
            cfg = training.TrainConfig(epochs=4, batch_size=8, eval_every=1,
                                       strategy=StrategyConfig(mode="bsd"))
            spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
            training.run_single_seed(spec, ds, test, cfg, 5,
                                     training.run_layout(sys.argv[1]))
        """)
        src = str(Path(training.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path / "part")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr

        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = TrainConfig(epochs=4, batch_size=8, eval_every=1,
                          strategy=StrategyConfig(mode="bsd"))
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
        run_single_seed(spec, ds, test, cfg, 5, run_layout(tmp_path / "part"), resume=True)
        run_single_seed(spec, ds, test, cfg, 5, run_layout(tmp_path / "full"))
        rel = Path("records") / "seed_5.jsonl"
        assert (tmp_path / "part" / rel).read_bytes() == (tmp_path / "full" / rel).read_bytes()

    def test_resume_rejects_records_short_of_the_state(self, tmp_path):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
        layout = run_layout(tmp_path / "run")
        run_single_seed(spec, ds, test, cfg, 5, layout, stop_after=2)
        records = layout["records"] / "seed_5.jsonl"
        first_row = records.read_text().splitlines(keepends=True)[0]
        records.write_text(first_row)
        with pytest.raises(ValueError, match="epochs 1..2"):
            run_single_seed(spec, ds, test, cfg, 5, layout, resume=True)
        assert records.read_text() == first_row

    @pytest.mark.parametrize("bad_row, message", [
        (b'{"epoch": 1,\n', "line 1 is not JSON: "),
        (b"[1]\n", "line 1 is not a JSON object"),
        (b'{"epoch": 2}\n', "line 1 is not a complete row for epoch 1"),
    ], ids=["not-json", "not-an-object", "wrong-epoch"])
    def test_resume_names_a_bad_records_row(self, tmp_path, bad_row, message):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,))
        layout = run_layout(tmp_path / "run")
        run_single_seed(spec, ds, test, cfg, 5, layout, stop_after=2)
        records = layout["records"] / "seed_5.jsonl"
        rows = records.read_bytes().splitlines(keepends=True)
        records.write_bytes(bad_row + b"".join(rows[1:]))
        with pytest.raises(ValueError, match=re.escape(f"{records}: {message}")):
            run_single_seed(spec, ds, test, cfg, 5, layout, resume=True)

    def test_interrupted_state_write_keeps_previous_state(self, tmp_path):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, optimizer="adam", lr=0.05)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)
        layout = run_layout(tmp_path / "run")
        run_single_seed(spec, ds, test, cfg, 5, layout, stop_after=2)
        state_path = layout["checkpoints"] / "seed_5.state"
        before = state_path.read_bytes()

        # the second block cannot be converted, so the writer raises after
        # the header and the first block are already written
        with pytest.raises(TypeError):
            write_blocks(state_path, training.STATE_MAGIC, {"epoch": 3, "opt_step": 0},
                         {"param/w0": np.zeros(3), "param/b0": object()})
        assert state_path.read_bytes() == before
        assert [p.name for p in state_path.parent.iterdir()] == ["seed_5.state"]
        model = init_model(dc_replace(spec, seed=5))
        strategy = TargetStrategy(cfg.strategy, ds.labels, ds.k, cfg.epochs)
        assert training._load_train_state(state_path, model, make_optimizer(cfg), strategy) == 2

    @pytest.mark.parametrize("opt_kw", [{"optimizer": "adam", "lr": 0.05},
                                        {"optimizer": "sgd", "momentum": 0.9}],
                             ids=["adam", "sgd-momentum"])
    def test_step_after_a_state_load_updates_the_loaded_moments(self, tmp_path, opt_kw):
        ds, test = tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2)
        cfg = small_config("bsd", epochs=4, **opt_kw)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)
        layout = run_layout(tmp_path / "run")
        run_single_seed(spec, ds, test, cfg, 5, layout, stop_after=2)
        state_path = layout["checkpoints"] / "seed_5.state"
        model, opt = init_model(dc_replace(spec, seed=5)), make_optimizer(cfg)
        strategy = TargetStrategy(cfg.strategy, ds.labels, ds.k, cfg.epochs)
        training._load_train_state(state_path, model, opt, strategy)
        _, saved = read_blocks(state_path, training.STATE_MAGIC)
        loaded, scratch = {key: getattr(opt, key) for key in opt.moment_names}, opt.scratch
        for key, moment in loaded.items():
            for name, view in model.views(moment).items():
                np.testing.assert_array_equal(view, saved[f"opt/{key}/{name}"])
        before = {key: moment.copy() for key, moment in loaded.items()}
        optimizer_step(model.flat, np.ones_like(model.flat), opt, 0.01)
        assert opt.scratch is scratch
        for key, moment in loaded.items():
            assert getattr(opt, key) is moment and not np.array_equal(moment, before[key])

    def test_bsd_entropy_positive_baseline_zero(self, tmp_path):
        ds = tiny_dataset(n_per=10)
        test = tiny_dataset(n_per=5, seed=3)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)
        ent = {}
        for mode in ("baseline", "bsd"):
            cfg = small_config(mode, epochs=3,
                               strategy_kw={"gamma": 0.9, "c": 100.0} if mode == "bsd" else {})
            records = run_experiment(spec, ds, test, cfg, seeds=[1],
                                     run_dir=tmp_path / mode)
            ent[mode] = [row["mean_target_entropy"] for row in records[0].rows]
        assert ent["baseline"][-1] == 0.0
        assert ent["bsd"][2] > 0.0


@pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "past-cap"])
def test_records_line_capped(tmp_path, over):
    # a row padded so its line, newline included, is HEADER_MAX_BYTES + over long,
    # then 4 MiB with no newline: neither line past the cap is read whole
    row = {"epoch": 1, "test_acc": None, "test_ece": None, "test_nll": None, "pad": ""}
    row["pad"] = "x" * (HEADER_MAX_BYTES - len(json.dumps(row)) - 1 + over)
    line = json.dumps(row).encode() + b"\n"
    assert len(line) == HEADER_MAX_BYTES + over
    path = tmp_path / "seed_1.jsonl"
    path.write_bytes(line + b"x" * (4 << 20))
    with open(path, "rb") as fh:
        if not over:
            assert read_records(fh, 1) == [row]
            fh.seek(0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_records(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert str(info.value) == f"{path}: line {2 - over} is longer than {HEADER_MAX_BYTES} bytes"
    assert peak < 1 << 20


class TestUnusableState:
    """A ``.state`` that does not fit the run is rejected with its path and block."""

    def stopped_run(self, tmp_path, mode, optimizer="adam", momentum=0.0):
        ds = tiny_dataset(n_per=8)
        test = tiny_dataset(n_per=4, seed=2)
        cfg = small_config(mode, epochs=4, optimizer=optimizer, momentum=momentum, lr=0.05)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)
        layout = run_layout(tmp_path / "run")
        run_single_seed(spec, ds, test, cfg, 5, layout, stop_after=2)
        return spec, test, cfg, layout, layout["checkpoints"] / "seed_5.state"

    def test_missing_state(self, tmp_path):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        records = layout["records"] / "seed_5.jsonl"
        before = records.read_bytes()
        path.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(
                f"no training state to resume at {path}")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)
        assert records.read_bytes() == before

    def test_refused_resume_on_an_empty_run_leaves_no_directory(self, tmp_path):
        layout = run_layout(tmp_path / "run")
        layout["root"].mkdir()
        path = layout["checkpoints"] / "seed_5.state"
        with pytest.raises(FileNotFoundError, match=re.escape(
                f"no training state to resume at {path}")):
            run_single_seed(ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0),
                            tiny_dataset(n_per=8), tiny_dataset(n_per=4, seed=2),
                            small_config("bsd", epochs=4), 5, layout, resume=True)
        assert list(layout["root"].iterdir()) == []

    @pytest.mark.parametrize("mode, old_blocks", [
        ("dlb", ("strategy/last_pred",)),
        ("te", ("strategy/te_accum", "strategy/te_count")),
    ])
    def test_former_strategy_blocks_name_the_missing_block(self, tmp_path, mode, old_blocks):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, mode)
        header, blocks = read_blocks(path, training.STATE_MAGIC)
        # the layout these modes had before they became evidence stores
        y, A = blocks.pop("strategy/y"), blocks.pop("strategy/A")
        for name in old_blocks:
            blocks[name] = A if name.endswith("count") else y
        del header["blocks"]
        write_blocks(path, training.STATE_MAGIC, header, blocks)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing block 'strategy/y'")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)

    def test_block_of_wrong_shape(self, tmp_path):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: block 'strategy/y' has shape (16, 2), not (18, 2)")):
            run_single_seed(spec, tiny_dataset(n_per=9), test, cfg, 5, layout, resume=True)

    def test_state_past_the_last_epoch(self, tmp_path):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        records = layout["records"] / "seed_5.jsonl"
        before = records.read_bytes()
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: saved at epoch 2, past this run's last epoch 1")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, dc_replace(cfg, epochs=1), 5,
                            layout, resume=True)
        assert records.read_bytes() == before
        assert not (layout["checkpoints"] / "seed_5_final.ckpt").exists()

    def test_opt_step_the_epoch_does_not_fix(self, tmp_path):
        """Adam at ``opt_step`` 0 would restart its bias correction and train on to other
        bytes; a resume refuses any count but the epoch times the batches per epoch, before
        it trains or cuts the records."""
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        records = layout["records"] / "seed_5.jsonl"
        before = records.read_bytes()
        header, blocks = read_blocks(path, training.STATE_MAGIC)
        del header["blocks"]
        assert header == {"epoch": 2, "opt_step": 4}  # 16 samples in batches of 8
        write_blocks(path, training.STATE_MAGIC, dict(header, opt_step=0), blocks)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header 'opt_step' is 0, not epoch 2 times 2 batches")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)
        assert records.read_bytes() == before

    def test_blocks_the_run_does_not_use(self, tmp_path):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        baseline = dc_replace(cfg, strategy=dc_replace(cfg.strategy, mode="baseline"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: extra block 'strategy/y'")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, baseline, 5, layout, resume=True)

    @pytest.mark.parametrize("saved, resumed, stored, kept", [
        (("adam", 0.0), ("sgd", 0.9), ["m", "v"], ["buf"]),
        (("sgd", 0.9), ("adam", 0.0), ["buf"], ["m", "v"]),
        (("sgd", 0.9), ("sgd", 0.0), ["buf"], []),
    ], ids=["adam-to-sgd-momentum", "sgd-momentum-to-adam", "sgd-momentum-to-sgd-plain"])
    def test_moments_of_another_optimizer(self, tmp_path, saved, resumed, stored, kept):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd", *saved)
        cfg = dc_replace(cfg, optimizer=resumed[0], momentum=resumed[1])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: holds optimizer moments {stored}, this run's optimizer keeps {kept}")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)

    @pytest.mark.parametrize("header_line", [b'{"blocks": [{"name": "param/w0", ', b"not json\n"],
                             ids=["truncated", "non-json"])
    def test_bad_header_line(self, tmp_path, header_line):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        path.write_bytes(training.STATE_MAGIC.encode() + b"\n" + header_line)
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated or non-JSON header")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)

    @pytest.mark.parametrize("key, value", [
        ("epoch", None), ("epoch", "2"), ("epoch", 2.0), ("epoch", -1),
        ("opt_step", None), ("opt_step", 1.5), ("opt_step", True),
    ])
    def test_header_without_integer_counter(self, tmp_path, key, value):
        spec, test, cfg, layout, path = self.stopped_run(tmp_path, "bsd")
        header, blocks = read_blocks(path, training.STATE_MAGIC)
        del header["blocks"]
        if value is None:
            del header[key]
        else:
            header[key] = value
        write_blocks(path, training.STATE_MAGIC, header, blocks)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header has no non-negative integer {key!r}")):
            run_single_seed(spec, tiny_dataset(n_per=8), test, cfg, 5, layout, resume=True)


def reference_trace_bytes(preds, labels):
    """The trace format written one value at a time, as a byte-level reference."""
    k = preds.shape[1]
    lines = ["sample_id,label," + ",".join(f"p_{j}" for j in range(k)) + "\n"]
    for i in range(preds.shape[0]):
        lines.append(f"{i},{int(labels[i])}," + ",".join(repr(float(v)) for v in preds[i]) + "\n")
    return "".join(lines).encode()


class TestTraceCsv:
    CHUNK = ROWS_PER_WRITE

    @pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_bytes_match_per_value_writer(self, n, tmp_path):
        rng = np.random.default_rng(n)
        preds = rng.dirichlet(np.ones(3), size=n)
        labels = rng.integers(0, 3, size=n)
        path = tmp_path / "trace.csv"
        training.write_trace_csv(path, preds, labels)
        assert path.read_bytes() == reference_trace_bytes(preds, labels)

    @staticmethod
    def written(path, preds, labels):
        """Write a trace as a run does: its ``.trace`` file, and nothing at ``path``."""
        labels = np.asarray(labels)
        write_blocks(path.with_suffix(".trace"), training.TRACE_MAGIC, {},
                     {"labels": labels, "probs": preds})
        return path

    # the reader gets a .trace path, or the CSV name that analyses and
    # acceptance criteria pass for an epoch with no CSV export
    @pytest.mark.parametrize("suffix", [".trace", ".csv"], ids=["sidecar", "csv-name"])
    def test_read_returns_written_bits(self, tmp_path, suffix):
        rng = np.random.default_rng(4)
        preds = rng.dirichlet(np.ones(4), size=2 * self.CHUNK + 3)
        # edge values (subnormals, exact zeros) in rows that sum to 1
        preds[:5] = [[5e-324, 1e-310, 0.0, 1.0], [1e-05, 0.0, 0.99999, 5e-324],
                     [1.0, 0.0, 0.0, 0.0], [1e-310, 1e-05, 0.29999, 0.7],
                     [0.25, 0.25, 0.25, 0.25]]
        labels = rng.integers(0, 4, size=preds.shape[0])
        path = self.written(tmp_path / f"epoch_1{suffix}", preds, labels)
        got, got_labels, k = training.read_trace_csv(path)
        assert k == 4
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.int64), preds.view(np.int64))
        assert got_labels.dtype == np.int64
        np.testing.assert_array_equal(got_labels, labels)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_1.trace"]

    @pytest.mark.parametrize("suffix", [".trace", ".csv"], ids=["sidecar", "csv-name"])
    def test_header_only_file_reads_empty(self, tmp_path, suffix):
        path = self.written(tmp_path / f"epoch_1{suffix}", np.empty((0, 5)), np.empty(0))
        preds, labels, k = training.read_trace_csv(path)
        assert preds.shape == (0, 5) and labels.shape == (0,) and k == 5
        assert preds.dtype == np.float64 and labels.dtype == np.int64

    def test_sidecar_holds_labels_and_probs(self, tmp_path):
        test = tiny_dataset(n_per=3, seed=1)
        spec = ModelSpec(input_dim=2, classes=2, hidden=(4,), dropout=0.0)
        run_experiment(spec, tiny_dataset(n_per=6), test, small_config(epochs=1), seeds=[1],
                       run_dir=tmp_path / "run")
        trace = run_layout(tmp_path / "run")["traces"] / "seed_1" / "epoch_1.trace"
        header, blocks = read_blocks(trace, training.TRACE_MAGIC)
        assert [b["name"] for b in header["blocks"]] == ["labels", "probs"]
        np.testing.assert_array_equal(blocks["labels"], test.labels)
        assert blocks["probs"].shape == (6, 2)
        np.testing.assert_allclose(blocks["probs"].sum(axis=1), 1.0)

    @pytest.mark.parametrize("blocks, match", [
        ({"probs": np.full((3, 2), 0.5)}, "missing block 'labels'"),
        ({"labels": np.zeros(3)}, "missing block 'probs'"),
        ({"labels": np.zeros(2), "probs": np.full((3, 2), 0.5)},
         "block 'labels' has shape (2,), not (3,)"),
        ({"labels": np.zeros(3), "probs": np.full(3, 0.5)},
         "block 'probs' has shape (3,), not (n, k)"),
        ({"labels": np.array([0.0, 1.5, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        ({"labels": np.array([0.0, np.nan, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        ({"labels": np.array([0.0, np.inf, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        ({"labels": np.array([0.0, 2.0, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        ({"labels": np.array([0.0, -1.0, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        # finite, but too large for int64: a cast would wrap it with a RuntimeWarning
        ({"labels": np.array([0.0, 1e19, 0.0]), "probs": np.full((3, 2), 0.5)},
         "block 'labels' does not hold integers in [0, 2)"),
        # each probs row must hold finite entries >= 0 that sum to 1 within 1e-6
        ({"labels": np.zeros(3), "probs": np.array([[0.5, 0.5], [np.nan, 1.0], [1.0, 0.0]])},
         "block 'probs' does not hold rows of finite entries >= 0 summing to 1 within 1e-06"),
        ({"labels": np.zeros(3), "probs": np.array([[0.5, 0.5], [2.0, -1.0], [1.0, 0.0]])},
         "block 'probs' does not hold rows"),
        ({"labels": np.zeros(3), "probs": np.array([[0.5, 0.5], [0.5, 0.5 + 2e-6], [1.0, 0]])},
         "block 'probs' does not hold rows"),
        ({"labels": np.zeros(3), "probs": np.array([[0.5, 0.5], [np.inf, 0.0], [1.0, 0.0]])},
         "block 'probs' does not hold rows"),
        # a sum that overflows fails the check without a RuntimeWarning
        ({"labels": np.zeros(3), "probs": np.array([[0.5, 0.5], [1e308, 1e308], [1.0, 0.0]])},
         "block 'probs' does not hold rows"),
        ({"labels": np.zeros(2), "probs": np.full((2, 2), 0.5), "junk": np.array([np.nan])},
         "extra block 'junk'"),
    ], ids=["no-labels", "no-probs", "row-counts", "flat-probs", "fractional-label",
            "nan-label", "inf-label", "label-k", "negative-label", "huge-label", "nan-probs",
            "negative-probs", "probs-sum-off", "inf-probs", "huge-probs", "extra-block"])
    def test_sidecar_without_trace_blocks_rejected(self, tmp_path, blocks, match):
        sidecar = tmp_path / "epoch_1.trace"
        write_blocks(sidecar, training.TRACE_MAGIC, {}, blocks)
        with pytest.raises(ValueError, match=re.escape(f"{sidecar}: ") + ".*" + re.escape(match)):
            training.read_trace_csv(tmp_path / "epoch_1.csv")

    @pytest.mark.parametrize("damage", ["magic", "truncated"])
    def test_damaged_sidecar_rejected(self, tmp_path, damage):
        sidecar = self.written(tmp_path / "epoch_1.trace", np.full((3, 2), 0.5), [0, 1, 0])
        raw = sidecar.read_bytes()
        if damage == "magic":
            sidecar.write_bytes(raw.replace(training.TRACE_MAGIC.encode(), training.STATE_MAGIC.encode()))
        else:
            sidecar.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match=re.escape(str(sidecar))):
            training.read_trace_csv(sidecar)

    def test_label_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="labels"):
            training.write_trace_csv(tmp_path / "trace.csv", np.full((3, 2), 0.5),
                                     np.array([0, 1]))


@pytest.mark.parametrize("row, taken", [
    ([0.2, 0.3, 0.5], True),
    ([0.2, 0.3, 0.5 + 1e-9], True),
    ([0.2, 0.3, 0.5 + 1e-5], False),
    ([np.nan, 0.5, 0.5], False),
    ([np.inf, 0.0, 0.0], False),
    ([1.5, -0.5, 0.0], False),
    (None, True),
], ids=["exact", "drift-1e-9", "drift-1e-5", "nan", "inf", "negative", "empty-batch"])
def test_store_update_and_trace_reader_share_one_simplex_rule(tmp_path, row, taken):
    """A batch whose second row is ``row`` (no rows for None) is taken by both
    ``TargetStrategy.update`` and ``read_trace_csv`` or refused by both, and a refused
    update leaves the store's bytes as they were."""
    probs = np.empty((0, 3)) if row is None else np.array([[0.25, 0.25, 0.5], row])
    strategy = TargetStrategy(StrategyConfig(), np.array([0, 1])[:len(probs)], 3, total_epochs=1)
    before = strategy.store.y.tobytes(), strategy.store.mass
    trace = tmp_path / "epoch_1.trace"
    write_blocks(trace, training.TRACE_MAGIC, {}, {"labels": np.zeros(len(probs)), "probs": probs})
    outcomes = []
    for take in (lambda: strategy.update(np.arange(len(probs)), probs),
                 lambda: training.read_trace_csv(trace)):
        try:
            take()
            outcomes.append(True)
        except ValueError:
            outcomes.append(False)
    assert outcomes == [taken, taken]
    if not taken:
        assert (strategy.store.y.tobytes(), strategy.store.mass) == before
