import math

import numpy as np
import pytest

from bsdlab.analysis import nll
from bsdlab.data import Dataset, inject_asymmetric, inject_symmetric
from bsdlab.numerics import (PROB_FLOOR, _class_reduce, entropy, kl_div, one_hot,
                             optimizer_step, softmax, soft_cross_entropy)
from bsdlab.targets import STRATEGY_MODES, StrategyConfig, TargetStrategy, init_prior
from bsdlab.training import TrainConfig, make_optimizer

from oracles import finite_diff_grad


def random_simplex(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_direct_evaluation(self):
        # e^{ln 2} / (e^{ln 2} + 1) = 2/3
        np.testing.assert_allclose(softmax([math.log(2.0), 0.0]),
                                   [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_shift_invariance_large_logits(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0, 999.0]),
                                   softmax([1.0, 1.0, 0.0]), atol=1e-12)

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 50, size=(200, 7))
        p = softmax(z)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite logits"):
            softmax([np.inf, 0.0])
        with pytest.raises(ValueError, match="non-finite logits"):
            softmax([np.nan, 0.0])


class TestKlDiv:
    def test_identity_is_zero(self):
        assert kl_div([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_onehot_vs_uniform(self):
        np.testing.assert_allclose(kl_div([1.0, 0.0], [0.5, 0.5]),
                                   math.log(2.0), rtol=1e-12)

    def test_hand_evaluation(self):
        expected = 0.25 * math.log(1.0 / 3.0) + 0.75 * math.log(3.0)
        np.testing.assert_allclose(kl_div([0.25, 0.75], [0.75, 0.25]), expected, rtol=1e-12)

    def test_nonnegative_property(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 10):
            p = random_simplex(rng, 500, k)
            q = random_simplex(rng, 500, k)
            assert np.all(kl_div(p, q) >= 0.0)
            np.testing.assert_allclose(kl_div(p, p), 0.0, atol=1e-12)


class TestSoftCrossEntropy:
    def test_perfect_onehot(self):
        # the floor only touches the zero-target term, which contributes 0
        assert soft_cross_entropy([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_onehot_half(self):
        np.testing.assert_allclose(soft_cross_entropy([1.0, 0.0], [0.5, 0.5]),
                                   math.log(2.0), rtol=1e-12)

    def test_uniform_entropy(self):
        np.testing.assert_allclose(soft_cross_entropy([0.5, 0.5], [0.5, 0.5]),
                                   math.log(2.0), rtol=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for k in (2, 5):
            t = random_simplex(rng, 300, k)
            p = random_simplex(rng, 300, k)
            lhs = soft_cross_entropy(t, p) - kl_div(t, p)
            np.testing.assert_allclose(lhs, entropy(t), atol=1e-9)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_entropy_keeps_its_bits(self, k):
        rng = np.random.default_rng(k)
        for n in (5, 100):  # one reduce call, and from 64 rows the column chain at k < 8
            p = random_simplex(rng, n, k)
            p[::3] = np.eye(k)[rng.integers(0, k, size=len(p[::3]))]  # exact zeros
            # entropy's own formula before it became soft_cross_entropy(p, p)
            own = -_class_reduce(np.add, p * np.log(np.maximum(p, PROB_FLOOR)))
            assert entropy(p).tobytes() == own.tobytes()


def plain_sgd():
    return make_optimizer(TrainConfig(optimizer="sgd", momentum=0.0))


def reference_steps(cfg, params, grads_seq, lr):
    """The update rules as plain expressions, reading every hyperparameter from ``cfg``."""
    m = v = buf = np.zeros_like(params)
    for t, grads in enumerate(grads_seq, start=1):
        g = grads + cfg.weight_decay * params
        if cfg.optimizer == "sgd":
            buf = cfg.momentum * buf + g
            params = params - lr * buf
        else:
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            m_hat, v_hat = m / (1.0 - cfg.beta1 ** t), v / (1.0 - cfg.beta2 ** t)
            params = params - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return params


class TestOptimizerStep:
    def test_plain_sgd_step(self):
        params = np.array([1.0])
        optimizer_step(params, np.array([2.0]), plain_sgd(), 0.1)
        np.testing.assert_allclose(params, [0.8], rtol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves by lr / (1 + eps) for unit gradient
        params = np.array([0.5])
        optimizer_step(params, np.array([1.0]), make_optimizer(TrainConfig()), 0.001)
        np.testing.assert_allclose(params, [0.5 - 0.001], atol=1e-9)

    def test_zero_gradient_no_move(self):
        params = np.array([1.0, -2.0])
        optimizer_step(params, np.zeros(2), plain_sgd(), 0.5)
        np.testing.assert_array_equal(params, [1.0, -2.0])

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(3)
        p0 = rng.normal(size=15)
        g = rng.normal(size=15)
        runs = []
        for _ in range(2):
            params = p0.copy()
            state = make_optimizer(TrainConfig())
            for _ in range(5):
                optimizer_step(params, g.copy(), state, 0.01)
            runs.append(params)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer_step(np.zeros(2), np.zeros(3), plain_sgd(), 0.1)

    def test_non_finite_gradient_rejected_before_any_change(self):
        params = np.zeros(2)
        state = make_optimizer(TrainConfig())
        with pytest.raises(ValueError, match="non-finite gradient"):
            optimizer_step(params, np.array([np.nan, 1.0]), state, 0.1)
        np.testing.assert_array_equal(params, [0.0, 0.0])
        assert state.step == 0 and state.m is None

    @pytest.mark.parametrize("cfg, lr", [
        (TrainConfig(optimizer="adam", weight_decay=0.1), 0.01),
        (TrainConfig(optimizer="sgd", momentum=0.9, weight_decay=0.1), 0.1),
        (TrainConfig(optimizer="sgd", momentum=0.0), 0.1),
    ], ids=["adam", "sgd-momentum", "sgd-plain"])
    def test_flat_step_equals_per_block_steps(self, cfg, lr):
        # every operation is element-wise, so one step over the whole vector
        # is bit-identical to separate steps over each block's slice
        rng = np.random.default_rng(4)
        p0, grads = rng.normal(size=10), rng.normal(size=(3, 10))
        whole, per_block = p0.copy(), p0.copy()
        whole_state, block_states = make_optimizer(cfg), [make_optimizer(cfg) for _ in range(2)]
        for g in grads:
            optimizer_step(whole, g, whole_state, lr)
            for sl, state in zip((slice(0, 4), slice(4, 10)), block_states):
                optimizer_step(per_block[sl], g[sl], state, lr)
        np.testing.assert_array_equal(whole, per_block)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("name, value", [
        ("beta1", 0.5), ("beta2", 0.75), ("adam_eps", 0.25), ("weight_decay", 0.125),
        ("momentum", 0.375),
    ])
    def test_every_hyperparameter_comes_from_cfg(self, optimizer, name, value):
        # a constant written into the step in place of a cfg field breaks bit equality
        cfg = TrainConfig(optimizer=optimizer, **{name: value})
        rng = np.random.default_rng(5)
        p0, grads = rng.normal(size=6), rng.normal(size=(2, 6))
        params, state = p0.copy(), make_optimizer(cfg)
        for g in grads:
            optimizer_step(params, g, state, 0.05)
        want = reference_steps(cfg, p0, grads, 0.05)
        np.testing.assert_array_equal(params, want)
        uses = {"adam": ("beta1", "beta2", "adam_eps", "weight_decay"),
                "sgd": ("momentum", "weight_decay")}[optimizer]
        default = reference_steps(TrainConfig(optimizer=optimizer), p0, grads, 0.05)
        assert np.array_equal(want, default) == (name not in uses)

    def test_scratch_is_working_memory_not_state(self):
        params, grads = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        cfg = TrainConfig(optimizer="sgd", momentum=0.0, weight_decay=0.1)
        stepped, fresh = make_optimizer(cfg), make_optimizer(cfg)
        optimizer_step(params, grads, stepped, 0.1)
        fresh.step = 1
        assert stepped.scratch is not None and fresh.scratch is None
        assert stepped == fresh
        assert "scratch" not in repr(stepped)
        # the scratch pair never aliases the caller's arrays
        assert not any(np.shares_memory(buf, arr) for buf in stepped.scratch
                       for arr in (params, grads))
        np.testing.assert_array_equal(grads, [0.5, 0.25])

    def test_momentum_accumulates(self):
        params = np.array([0.0])
        state = make_optimizer(TrainConfig(optimizer="sgd", momentum=0.5))
        optimizer_step(params, np.array([1.0]), state, 1.0)  # buf=1, w=-1
        optimizer_step(params, np.array([1.0]), state, 1.0)  # buf=1.5, w=-2.5
        np.testing.assert_allclose(params, [-2.5], rtol=1e-15)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_linear_sum(self):
        x = np.array([0.3, -1.2, 4.0])
        grad = finite_diff_grad(lambda v: float(v.sum()), x, h=1e-5)
        np.testing.assert_allclose(grad, np.ones(3), atol=1e-9)

    def test_ce_through_softmax_matches_analytic(self):
        target = np.array([0.2, 0.5, 0.3])
        x = np.array([0.2, -0.1, 0.4])

        def f(v):
            return float(soft_cross_entropy(target, softmax(v)))

        analytic = softmax(x) - target
        np.testing.assert_allclose(finite_diff_grad(f, x, h=1e-5), analytic, atol=1e-6)


def test_one_hot_rows():
    out = one_hot(np.array([2, 0]), 4)
    np.testing.assert_array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])


# the label rule, numerics._as_labels, over k = 3 classes and n = 4 samples
VALID_LABELS = np.array([0, 1, 2, 0])
BAD_LABELS = {
    "negative": ([0, 1, -1, 0], r"label out of range \[0, 3\)"),
    "equal to k": ([0, 1, 3, 0], r"label out of range \[0, 3\)"),
    "float": ([0.0, 1.0, 2.0, 0.0], "labels must be integers, got dtype float64"),
    "bool": ([True, False, True, False], "labels must be integers, got dtype bool"),
    "2-D": ([[0, 1, 2, 0]], r"sample/label count mismatch: .* got shape \(1, 4\)"),
    "wrong length": ([0, 1, 2], r"sample/label count mismatch: need 4 labels"),
}


def label_dataset(clean, active):
    return Dataset(samples=np.zeros((4, 2)), clean_labels=clean, labels=active, k=3)


# name: (call on a label array, whether the call fixes the label count)
LABEL_ENTRY_POINTS = {
    "Dataset.clean_labels": (lambda y: label_dataset(y, VALID_LABELS), True),
    "Dataset.labels": (lambda y: label_dataset(VALID_LABELS, y), True),
    "Dataset.with_labels": (lambda y: label_dataset(VALID_LABELS, VALID_LABELS).with_labels(y),
                            True),
    "one_hot": (lambda y: one_hot(y, 3), False),
    **{f"TargetStrategy-{mode}": (
        lambda y, mode=mode: TargetStrategy(StrategyConfig(mode=mode), y, 3, 5), False)
       for mode in STRATEGY_MODES},
    "init_prior": (lambda y: init_prior(y, 3, 10.0, 0.0, 0.9), False),
    "inject_symmetric": (lambda y: inject_symmetric(y, 0.5, 3, 0), False),
    "inject_asymmetric": (lambda y: inject_asymmetric(y, 0.5, 3, 0), False),
    "analysis.nll": (lambda y: nll(np.full((4, 3), 1.0 / 3.0), y), True),
}


class TestLabelRule:
    """Every entry point that takes a label array refuses the same bad arrays alike."""

    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_valid_labels_accepted(self, entry):
        LABEL_ENTRY_POINTS[entry][0](VALID_LABELS)

    @pytest.mark.parametrize("entry,case", [
        (entry, case) for entry, (_, fixed_n) in LABEL_ENTRY_POINTS.items()
        for case in BAD_LABELS if fixed_n or case != "wrong length"])
    def test_bad_labels_refused(self, entry, case):
        labels, message = BAD_LABELS[case]
        with pytest.raises(ValueError, match=message):
            LABEL_ENTRY_POINTS[entry][0](np.array(labels))
