"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 8-11 share the session-scoped benchmark
fixture from conftest (twenty 100-epoch runs), so the first of them to run
pays the training cost. Those tests carry the ``slow`` marker:
``pytest -m "not slow"`` runs everything else in a few seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from bsdlab.analysis import (ace, auroc, delta_decomposition, ece,
                             fit_temperature, mean_flip_probability, mu_matrix,
                             nll, reconstruct_predictions, sce,
                             temp_adjusted_kl)
from bsdlab.data import make_blobs
from bsdlab.models import ModelSpec, backward, forward, init_model
from bsdlab.numerics import finite_diff_grad, kl_div, soft_cross_entropy, softmax
from bsdlab.targets import (EvidenceStore, StrategyConfig, TargetStrategy,
                            bsd_update, evidence_mass_closed_form, fixed_point,
                            init_prior, sharpen, update_weight)
from bsdlab.training import (TrainConfig, _kl_logit_grad, make_optimizer,
                             read_trace_csv, run_experiment, run_layout,
                             train_epoch)

from conftest import (BENCH_SEEDS, benchmark_datasets, benchmark_model_spec,
                      benchmark_train_config)

GAMMAS = (0.0, 0.5, 0.9, 0.95, 0.99)


def report(num, description, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def random_simplex(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


def test_c1_conjugacy_oracle_equivalence():
    # 10^5 random (alpha, pred, gamma) triples: factorized update equals
    # normalize(gamma*alpha + pred) within 1e-12, in under 5 seconds
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for block in range(10):
        k = 2 + block
        n = 10_000
        alpha = rng.uniform(0.0, 1000.0, size=(n, k))
        alpha[:, 0] += 1e-3
        pred = random_simplex(rng, n, k)
        gamma = rng.uniform(0.0, 1.0, size=n)

        ap = gamma[:, None] * alpha + pred
        oracle = ap / ap.sum(axis=1, keepdims=True)

        A = alpha.sum(axis=1)
        y = alpha / A[:, None]
        w = update_weight(gamma, A)
        factorized = w[:, None] * y + (1.0 - w)[:, None] * pred
        worst = max(worst, float(np.abs(factorized - oracle).max()))
    elapsed = time.perf_counter() - t0
    report(1, f"conjugacy equivalence over 1e5 triples (worst {worst:.2e}, {elapsed:.2f}s)",
           worst < 1e-12 and elapsed < 5.0)


def test_c2_ema_fixed_point():
    # at A0 = 1/(1-gamma) the update weight is exactly gamma and A never moves
    ok = True
    for gamma in GAMMAS:
        A = fixed_point(gamma)
        for _ in range(10_000):
            if float(update_weight(gamma, A)) != gamma:
                ok = False
                break
            A_next = gamma * A + 1.0
            if A_next != A:
                ok = False
                break
            A = A_next
        if not ok:
            break
    report(2, "EMA fixed point: weight == gamma and A constant over 1e4 steps (exact)", ok)


def test_c3_pskd_reduction():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 9))
        store = init_prior(rng.integers(0, k, size=1), k=k, c=float(rng.uniform(1, 2000)),
                           epsilon=float(rng.uniform(0, 1)), gamma=0.0)
        pred = random_simplex(rng, 1, k)[0]
        y, _ = bsd_update(store, 0, pred)
        ok &= np.array_equal(y, pred)
    report(3, "gamma=0 reduction: updated target equals the prediction bit-exactly", ok)


def test_c4_closed_form_evidence_mass():
    ok = True
    worst_cf = 0.0
    for gamma in GAMMAS:
        for A0 in (1.0, 20.0, 1000.0):
            A = A0
            for t in range(1, 10_001):
                A = gamma * A + 1.0
                cf = evidence_mass_closed_form(A0, gamma, t)
                worst_cf = max(worst_cf, abs(A - cf))
            ok &= worst_cf < 1e-10
    # geometric decay of the distance to the stationary point
    worst_decay = 0.0
    for gamma in (0.5, 0.9, 0.95, 0.99):
        fp = fixed_point(gamma)
        A = 1.0
        prev_gap = abs(A - fp)
        for _ in range(2_000):
            A = gamma * A + 1.0
            gap = abs(A - fp)
            worst_decay = max(worst_decay, abs(gap - gamma * prev_gap))
            prev_gap = gap
    ok &= worst_decay < 1e-12
    report(4, f"closed-form mass matches recurrence (worst {worst_cf:.2e}) "
              f"and decays by gamma per step (worst {worst_decay:.2e})", ok)


def test_c5_simplex_conservation_during_training():
    train, _test = benchmark_datasets(noisy=True)
    cfg = benchmark_train_config("bsd")
    cfg = TrainConfig(**{**cfg.__dict__, "epochs": 30})
    model = init_model(ModelSpec(input_dim=2, classes=4, hidden=(32, 32),
                                 dropout=0.0, seed=1))
    strategy = TargetStrategy(cfg.strategy, train.labels, train.k, cfg.epochs)
    opt = make_optimizer(cfg)
    ok = True
    for epoch in range(1, cfg.epochs + 1):
        train_epoch(model, train, strategy, opt, cfg, epoch, seed=1)
        sums = strategy.store.y.sum(axis=1)
        ok &= bool(np.all(np.abs(sums - 1.0) <= 1e-9) and np.all(strategy.store.y >= 0.0))
    report(5, "every stored target row stays on the simplex (checked every epoch)", ok)


def test_c6_gradient_fidelity_full_loss():
    # full loss: tau-sharpened soft targets + the consistency term over two
    # strong views, MLP [4->8->3], batch of 5, anchor frozen per the
    # no-gradient-through-anchor contract
    rng = np.random.default_rng(1006)
    model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8,),
                                 dropout=0.0, seed=77)).eval()
    batch = rng.normal(size=(5, 4))
    views = [batch + rng.normal(0, 0.3, size=batch.shape) for _ in range(2)]
    targets = sharpen(random_simplex(rng, 5, 3), 0.8)
    lam, m, bsz, k = 1.5, 2, 5, 3
    anchor, _ = forward(model, batch)
    anchor = anchor.copy()

    probs, cache = forward(model, batch)
    grads = backward(model, cache, (probs - targets) / (bsz * k))
    scale = lam / (m * bsz)
    for view in views:
        p_s, cache_s = forward(model, view)
        g = backward(model, cache_s, scale * _kl_logit_grad(p_s, anchor))
        for name in g:
            grads[name] += g[name]
    names = model.block_names()
    analytic = np.concatenate([grads[n].ravel() for n in names])

    x0 = np.concatenate([model.params[n].ravel() for n in names])

    def full_loss(flat):
        pos = 0
        for n in names:
            blk = model.params[n]
            blk[...] = flat[pos:pos + blk.size].reshape(blk.shape)
            pos += blk.size
        p, _ = forward(model, batch)
        loss = float(soft_cross_entropy(targets, p).sum() / (bsz * k))
        for view in views:
            pv, _ = forward(model, view)
            loss += float(scale * kl_div(pv, anchor).sum())
        return loss

    numeric = finite_diff_grad(full_loss, x0.copy(), h=1e-5)
    full_loss(x0)
    rel = float(np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12))
    report(6, f"full-loss analytic gradient vs central differences (rel err {rel:.2e})",
           rel < 1e-4)


def test_c7_metric_hand_cases():
    checks = []
    # ECE
    checks.append(abs(ece(np.array([[0.9, 0.1], [0.9, 0.1]]), np.array([0, 1])) - 0.4) < 1e-12)
    checks.append(ece(np.full((4, 4), 0.25), np.array([0, 1, 2, 3])) < 1e-12)
    # SCE / ACE on the mirrored 4-sample fixture
    preds4 = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
    labels4 = np.array([0, 0, 1, 0])
    checks.append(abs(sce(preds4, labels4) - 0.25) < 1e-12)
    checks.append(abs(ace(preds4, labels4) - 0.3) < 1e-12)
    collapse = 0.5 * (abs(np.mean(labels4 == 0) - preds4[:, 0].mean())
                      + abs(np.mean(labels4 == 1) - preds4[:, 1].mean()))
    checks.append(abs(sce(preds4, labels4, bins=1) - collapse) < 1e-12)
    # NLL
    checks.append(abs(nll(np.full((3, 2), 0.5), np.array([0, 1, 0])) - math.log(2)) < 1e-12)
    checks.append(abs(nll(np.full((5, 10), 0.1), np.arange(5)) - math.log(10)) < 1e-12)
    # AUROC
    checks.append(auroc(np.array([0.9, 0.7]), np.array([0.8])) == 0.5)
    checks.append(auroc(np.full(3, 0.9), np.full(4, 0.1)) == 1.0)
    checks.append(auroc(np.full(5, 0.5), np.full(5, 0.5)) == 0.5)
    # mFP
    checks.append(mean_flip_probability([np.array([0, 0, 1, 1, 1])]) == 0.25)
    # mu symmetrization
    mu = mu_matrix(np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([0, 1]), 2)
    checks.append(np.allclose(mu, [[0.9, 0.2], [0.2, 0.7]], atol=1e-12))
    # delta hand case
    dk = delta_decomposition(np.array([[0.8, 0.2]]), np.array([0]),
                             np.array([[0.9, 0.1], [0.4, 0.6]]))
    checks.append(np.allclose(dk.delta, [[-0.1, 0.1]], atol=1e-12)
                  and abs(dk.delta_l1[0] - 0.2) < 1e-12)
    # temperature fitting (search tolerance, not closed form)
    logits = np.tile(np.log(np.array([[0.8, 0.2]])), (10, 1))
    labels10 = np.array([0] * 8 + [1] * 2)
    checks.append(abs(fit_temperature(logits, labels10) - 1.0) < 1e-3)
    checks.append(abs(fit_temperature(2.0 * logits, labels10) - 2.0) < 2e-3)
    report(7, f"metric hand cases ({sum(checks)}/{len(checks)} exact)", all(checks))


@pytest.mark.slow
def test_c8_decomposition_identity(benchmark_runs):
    # real trained predictions from the benchmark, every seed
    layout = run_layout(benchmark_runs["bsd_noisy"]["dir"])
    ok = True
    for seed in BENCH_SEEDS:
        preds, labels, k = read_trace_csv(layout["traces"] / f"seed_{seed}" / "epoch_100.csv")
        mu = mu_matrix(preds, labels, k)
        ok &= bool(np.array_equal(mu, mu.T))
        dk = delta_decomposition(preds, labels, mu)
        recon = reconstruct_predictions(dk, labels)
        ok &= bool(np.array_equal(recon, preds))
    report(8, "mu symmetric bit-exactly and mu + delta reconstructs predictions "
              "bit-exactly on trained traces", ok)


def _final_rows(records):
    return [[r for r in rec.rows if r["test_acc"] is not None][-1] for rec in records]


@pytest.mark.slow
def test_c9_noise_robustness(benchmark_runs):
    base = _final_rows(benchmark_runs["baseline_noisy"]["records"])
    bsd = _final_rows(benchmark_runs["bsd_noisy"]["records"])
    gap = float(np.median([r["test_acc"] for r in bsd])
                - np.median([r["test_acc"] for r in base]))
    seconds = benchmark_runs["baseline_noisy"]["seconds"] + benchmark_runs["bsd_noisy"]["seconds"]
    report(9, f"40% symmetric noise: median accuracy gap {gap:+.4f} "
              f"(need >= +0.02), {seconds:.0f}s", gap >= 0.02 and seconds < 120.0)


@pytest.mark.slow
def test_c10_calibration(benchmark_runs):
    base = _final_rows(benchmark_runs["baseline_clean"]["records"])
    bsd = _final_rows(benchmark_runs["bsd_clean"]["records"])
    ece_b = float(np.median([r["test_ece"] for r in base]))
    ece_s = float(np.median([r["test_ece"] for r in bsd]))
    nll_b = float(np.median([r["test_nll"] for r in base]))
    nll_s = float(np.median([r["test_nll"] for r in bsd]))
    seconds = benchmark_runs["baseline_clean"]["seconds"] + benchmark_runs["bsd_clean"]["seconds"]
    report(10, f"clean benchmark: ECE {ece_b:.4f}->{ece_s:.4f}, NLL {nll_b:.4f}->{nll_s:.4f}, "
               f"{seconds:.0f}s", ece_s <= ece_b and nll_s <= nll_b and seconds < 120.0)


@pytest.mark.slow
def test_c11_dark_knowledge_emergence(benchmark_runs):
    layout = run_layout(benchmark_runs["bsd_noisy"]["dir"])
    ok = True
    detail = []
    for seed in BENCH_SEEDS:
        trace_dir = layout["traces"] / f"seed_{seed}"
        final_preds, labels, _ = read_trace_csv(trace_dir / "epoch_100.csv")
        t_final = fit_temperature(np.log(np.maximum(final_preds, 1e-12)), labels)
        kl = {}
        for epoch in (5, 75):
            snap, _, _ = read_trace_csv(trace_dir / f"epoch_{epoch}.csv")
            t_snap = fit_temperature(np.log(np.maximum(snap, 1e-12)), labels)
            kl[epoch] = temp_adjusted_kl(snap, final_preds, (t_snap, t_final))
        ok &= kl[75] < kl[5]
        detail.append(f"s{seed}:{kl[5]:.3f}->{kl[75]:.3f}")
    report(11, "temp-adjusted KL to final lower at epoch 75 than epoch 5 for every seed "
               f"({', '.join(detail)})", ok)


def test_c12_determinism(tmp_path):
    train = make_blobs(3, 40, 2, 2.5, 1.0, seed=[5, 0], split="train")
    test = make_blobs(3, 20, 2, 2.5, 1.0, seed=[5, 1], split="test")
    cfg = TrainConfig(epochs=6, batch_size=16, optimizer="adam", lr=0.02,
                      eval_every=2,
                      strategy=StrategyConfig(mode="bsd", gamma=0.9, c=100.0))
    spec = ModelSpec(input_dim=2, classes=3, hidden=(8,), dropout=0.2)
    digests = []
    for invocation in ("a", "b"):
        run_dir = tmp_path / invocation
        run_experiment(spec, train, test, cfg, seeds=[3, 4], run_dir=run_dir)
        layout = run_layout(run_dir)
        blob = {}
        for sub in ("records", "checkpoints", "traces"):
            for path in sorted(layout[sub].rglob("*")):
                if path.is_file():
                    blob[str(path.relative_to(run_dir))] = path.read_bytes()
        digests.append(blob)
    ok = digests[0].keys() == digests[1].keys() and all(
        digests[0][k] == digests[1][k] for k in digests[0])
    report(12, f"two invocations byte-identical across {len(digests[0])} artifacts", ok)
