import math
import re

import numpy as np
import pytest

from bsdlab.analysis import (_temperature_nll, accuracy, ace, auroc, calibration_report,
                             delta_decomposition, ece, fit_temperature,
                             mean_flip_probability, mu_matrix, nll, reliability_bins,
                             sce, temp_adjusted_kl, temperature_scale)
from bsdlab.numerics import one_hot, softmax

from oracles import reconstruct_predictions


def perfect_preds(labels, k):
    return one_hot(np.asarray(labels), k)


class TestLabels:
    """Every entry point that takes labels rejects ones that would index wrongly."""

    preds = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
    mu = np.full((3, 3), 1.0 / 3.0)
    BAD = {
        "negative": np.array([0, 1, -1]),
        "too large": np.array([0, 1, 3]),
        "length 1": np.array([1]),
        "too long": np.array([0, 1, 2, 0]),
        "2-D": np.array([[0, 1, 2]]),
        "float": np.array([0.0, 1.0, 2.0]),
    }

    def entry_points(self):
        p, mu = self.preds, self.mu
        logits = np.log(p)
        dk = delta_decomposition(p, np.array([0, 1, 2]), mu)
        return {
            "accuracy": lambda y: accuracy(p, y),
            "ece": lambda y: ece(p, y),
            "sce": lambda y: sce(p, y),
            "ace": lambda y: ace(p, y),
            "nll": lambda y: nll(p, y),
            "reliability_bins": lambda y: reliability_bins(p, y),
            "calibration_report": lambda y: calibration_report(p, y),
            "mu_matrix": lambda y: mu_matrix(p, y, 3),
            "delta_decomposition": lambda y: delta_decomposition(p, y, mu),
            "reconstruct_predictions": lambda y: reconstruct_predictions(dk, y),
            "fit_temperature": lambda y: fit_temperature(logits, y),
        }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_labels_rejected(self, case):
        for name, call in self.entry_points().items():
            with pytest.raises(ValueError, match="label"):
                call(self.BAD[case])

    def test_negative_label_no_longer_wraps(self):
        # -1 used to index the last class, so this equalled nll(p, [0, 1, 2])
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
            nll(self.preds, [0, 1, -1])

    def test_valid_labels_of_any_integer_dtype(self):
        preds = np.tile(self.preds, (100, 1))  # 300 rows: label * n overflows uint8
        labels = np.tile([0, 1, 2], 100)
        for dtype in (np.int32, np.uint8):
            assert nll(preds, labels.astype(dtype)) == nll(preds, labels)
            assert fit_temperature(np.log(preds), labels.astype(dtype)) == \
                fit_temperature(np.log(preds), labels)


class TestEce:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1])
        assert ece(perfect_preds(labels, 3), labels) == 0.0

    def test_single_bin_hand_case(self):
        preds = np.array([[0.9, 0.1], [0.9, 0.1]])
        labels = np.array([0, 1])  # one right, one wrong at confidence 0.9
        np.testing.assert_allclose(ece(preds, labels), 0.4, rtol=1e-12)

    def test_uniform_matching_accuracy(self):
        preds = np.full((4, 4), 0.25)
        labels = np.array([0, 1, 2, 3])  # argmax ties resolve to class 0: acc = 1/4
        np.testing.assert_allclose(ece(preds, labels), 0.0, atol=1e-12)

    def test_one_bin_equals_global_gap(self):
        rng = np.random.default_rng(0)
        preds = softmax(rng.normal(0, 2, size=(200, 5)))
        labels = rng.integers(0, 5, size=200)
        conf_gap = abs(np.mean(preds.argmax(1) == labels) - preds.max(1).mean())
        np.testing.assert_allclose(ece(preds, labels, bins=1), conf_gap, rtol=1e-12)

    def test_bounds_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds = softmax(rng.normal(0, 3, size=(50, 4)))
            labels = rng.integers(0, 4, size=50)
            for metric in (ece, sce, ace):
                value = metric(preds, labels)
                assert 0.0 <= value <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestSceAce:
    # shared 4-sample binary fixture with mirrored predictions
    preds = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 0])

    def test_perfect_zero(self):
        labels = np.array([0, 1, 2])
        assert sce(perfect_preds(labels, 3), labels) == 0.0
        assert ace(perfect_preds(labels, 3), labels) == 0.0

    def test_single_bin_collapse(self):
        # one bin: mean over classes of |class frequency - mean class prob|
        expected = 0.0
        for j in range(2):
            expected += abs(np.mean(self.labels == j) - self.preds[:, j].mean())
        np.testing.assert_allclose(sce(self.preds, self.labels, bins=1),
                                   expected / 2, rtol=1e-12)

    def test_sce_hand_case(self):
        # class 0 bins: {p=0.9: acc 1.0} and {p=0.1: acc 0.5}; class 1 mirrored
        np.testing.assert_allclose(sce(self.preds, self.labels), 0.25, rtol=1e-12)

    def test_ace_hand_case(self):
        # equal-mass chunks degenerate to one sample each: mean |hit - p| = 0.3
        np.testing.assert_allclose(ace(self.preds, self.labels), 0.3, rtol=1e-12)


class TestNll:
    def test_perfect(self):
        labels = np.array([1, 0])
        assert nll(perfect_preds(labels, 2), labels) == 0.0

    def test_half_everywhere(self):
        preds = np.full((3, 2), 0.5)
        np.testing.assert_allclose(nll(preds, np.array([0, 1, 0])),
                                   math.log(2.0), rtol=1e-12)

    def test_uniform_ten_classes(self):
        preds = np.full((5, 10), 0.1)
        np.testing.assert_allclose(nll(preds, np.arange(5)), math.log(10.0), rtol=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.full(4, 0.9), np.full(3, 0.1)) == 1.0

    def test_identical_distributions(self):
        assert auroc(np.full(5, 0.7), np.full(9, 0.7)) == 0.5

    def test_pair_counting(self):
        assert auroc(np.array([0.9, 0.7]), np.array([0.8])) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        ids = rng.normal(1.0, 0.5, size=40)
        oods = rng.normal(0.0, 0.5, size=30)
        base = auroc(ids, oods)
        assert auroc(np.exp(ids), np.exp(oods)) == base
        assert auroc(3.0 * ids + 7.0, 3.0 * oods + 7.0) == base

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([]), np.array([0.5]))


class TestMeanFlipProbability:
    def test_constant_sequences(self):
        assert mean_flip_probability([np.array([2, 2, 2, 2])]) == 0.0

    def test_alternating(self):
        assert mean_flip_probability([np.array([0, 1, 0, 1, 0])]) == 1.0

    def test_counting(self):
        assert mean_flip_probability([np.array([0, 0, 1, 1, 1])]) == 0.25

    def test_probability_rows_refused(self):
        probs = np.array([[0.6, 0.4], [0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match=r"expected \(n, frames\) class indices"):
            mean_flip_probability([probs])

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            mean_flip_probability([np.array([1])])

    def test_no_sequences_rejected(self):
        with pytest.raises(ValueError, match="no sequences"):
            mean_flip_probability([])

    def test_matches_per_sample_average(self):
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(3), size=(50, 7))
        frames = probs.argmax(axis=2)
        rates = [np.mean(f[1:] != f[:-1]) for f in frames]
        expected = float(np.mean(rates))
        assert mean_flip_probability(frames) == expected
        assert mean_flip_probability(list(frames)) == expected


class TestMuMatrix:
    def test_symmetric_input_fixed_point(self):
        preds = np.array([[0.7, 0.3], [0.3, 0.7]])
        labels = np.array([0, 1])
        np.testing.assert_array_equal(mu_matrix(preds, labels, 2), preds)

    def test_hand_symmetrization(self):
        preds = np.array([[0.9, 0.1], [0.3, 0.7]])
        labels = np.array([0, 1])
        np.testing.assert_allclose(mu_matrix(preds, labels, 2),
                                   [[0.9, 0.2], [0.2, 0.7]], rtol=1e-12)

    def test_uniform(self):
        preds = np.full((6, 3), 1.0 / 3.0)
        labels = np.array([0, 0, 1, 1, 2, 2])
        np.testing.assert_allclose(mu_matrix(preds, labels, 3), 1.0 / 3.0, rtol=1e-15)

    def test_missing_class_listed(self):
        with pytest.raises(ValueError, match=r"\[2\]"):
            mu_matrix(np.full((2, 3), 1 / 3), np.array([0, 1]), 3)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(3)
        preds = softmax(rng.normal(0, 4, size=(300, 6)))
        labels = rng.integers(0, 6, size=300)
        mu = mu_matrix(preds, labels, 6)
        np.testing.assert_array_equal(mu, mu.T)


class TestDeltaDecomposition:
    def test_zero_when_pred_equals_class_row(self):
        mu = np.array([[0.7, 0.3], [0.2, 0.8]])
        dk = delta_decomposition(mu[[0, 1]], np.array([0, 1]), mu)
        np.testing.assert_array_equal(dk.delta, np.zeros((2, 2)))
        np.testing.assert_array_equal(dk.delta_l1, np.zeros(2))

    def test_hand_case(self):
        mu = np.array([[0.9, 0.1], [0.4, 0.6]])
        dk = delta_decomposition(np.array([[0.8, 0.2]]), np.array([0]), mu)
        np.testing.assert_allclose(dk.delta, [[-0.1, 0.1]], rtol=1e-12)
        np.testing.assert_allclose(dk.delta_l1, [0.2], rtol=1e-12)

    def test_class_mean_after_symmetrization_not_zero(self):
        # symmetrizing shifts the class rows, so per-class mean deviation
        # generally stays nonzero
        rng = np.random.default_rng(4)
        preds = softmax(rng.normal(0, 2, size=(100, 3)))
        labels = rng.integers(0, 3, size=100)
        mu = mu_matrix(preds, labels, 3)
        dk = delta_decomposition(preds, labels, mu)
        assert np.any(dk.class_mean_delta_l1 > 1e-6)

    def test_reconstruction_bit_exact_even_for_tiny_entries(self):
        # logit scale 20 drives entries below 1e-40, the worst case for
        # re-adding the class mean
        rng = np.random.default_rng(5)
        preds = softmax(rng.normal(0, 20, size=(400, 4)))
        labels = rng.integers(0, 4, size=400)
        mu = mu_matrix(preds, labels, 4)
        dk = delta_decomposition(preds, labels, mu)
        recon = reconstruct_predictions(dk, labels)
        np.testing.assert_array_equal(recon, preds)

    def test_exact_residual_identity(self):
        rng = np.random.default_rng(6)
        preds = softmax(rng.normal(0, 8, size=(50, 3)))
        labels = rng.integers(0, 3, size=50)
        mu = mu_matrix(preds, labels, 3)
        dk = delta_decomposition(preds, labels, mu)
        # delta alone reconstructs to within one rounding of the subtraction
        np.testing.assert_allclose(mu[labels] + dk.delta, preds, atol=1e-15)


class TestTemperature:
    @staticmethod
    def calibrated_fixture():
        # ten samples at confidence 0.8 with exactly 8 correct: NLL-optimal T is 1
        logits = np.tile(np.log(np.array([[0.8, 0.2]])), (10, 1))
        labels = np.array([0] * 8 + [1] * 2)
        return logits, labels

    def test_calibrated_logits_give_unit_temperature(self):
        logits, labels = self.calibrated_fixture()
        assert abs(fit_temperature(logits, labels) - 1.0) < 1e-3

    def test_scaled_logits_give_scaled_temperature(self):
        logits, labels = self.calibrated_fixture()
        assert abs(fit_temperature(2.0 * logits, labels) - 2.0) < 2e-3

    def test_deterministic(self):
        logits, labels = self.calibrated_fixture()
        assert fit_temperature(logits, labels) == fit_temperature(logits, labels)

    @staticmethod
    def reference_fit(logits, labels, lo=0.05, hi=20.0, iters=80):
        """Golden section over the unhoisted nll(softmax(logits / t)) objective."""
        def objective(t):
            return nll(softmax(logits / t), labels)

        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
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

    @staticmethod
    def logit_sets():
        rng = np.random.default_rng(12)
        for scale in (0.5, 3.0, 50.0):
            logits = rng.normal(0.0, scale, size=(300, 4))
            labels = rng.integers(0, 4, size=300)
            yield logits, labels
            yield np.log(np.maximum(softmax(logits), 1e-12)), labels

    def test_hoisted_objective_is_bit_identical(self):
        ts = [0.05, 0.0731, 0.5, 1.0, 1.7, 3.3, 7.25, 20.0]
        for logits, labels in self.logit_sets():
            objective = _temperature_nll(logits, labels)
            for t in ts:
                assert objective(t) == nll(softmax(logits / t), labels), t

    def test_fit_matches_unhoisted_search(self):
        for logits, labels in self.logit_sets():
            assert fit_temperature(logits, labels) == self.reference_fit(logits, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.5]])
        logits[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_temperature(logits, np.array([0, 1, 1]))

    def test_overflowing_scaled_logits_rejected(self):
        # finite logits whose quotient by a small temperature overflows
        logits = np.array([[0.0, 1e307], [-1e307, 0.0]])
        objective = _temperature_nll(logits, np.array([1, 1]))
        assert objective(1.0) == 0.0
        with pytest.raises(ValueError, match="non-finite"):
            objective(0.05)

    @pytest.mark.parametrize("lo, hi", [(0.0, 20.0), (5.0, 1.0), (1.0, 1.0),
                                        (0.05, float("inf")), (float("nan"), 20.0)])
    def test_bad_search_domain_rejected(self, lo, hi):
        logits, labels = self.calibrated_fixture()
        with pytest.raises(ValueError, match=re.escape(
                f"temperature search needs finite 0 < lo < hi, got lo={lo}, hi={hi}")):
            fit_temperature(logits, labels, lo=lo, hi=hi)

    def test_degenerate_logits_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_temperature(np.zeros((4, 3)), np.array([0, 1, 2, 0]))

    def test_temperature_scale_matches_power_transform(self):
        rng = np.random.default_rng(7)
        preds = softmax(rng.normal(0, 2, size=(20, 4)))
        scaled = temperature_scale(preds, 2.0)
        expected = preds ** 0.5 / (preds ** 0.5).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(scaled, expected, rtol=1e-12)


class TestTempAdjustedKl:
    def test_identical_snapshots_zero(self):
        rng = np.random.default_rng(8)
        preds = softmax(rng.normal(0, 2, size=(30, 3)))
        np.testing.assert_allclose(
            temp_adjusted_kl(preds, preds, (1.3, 1.3)), 0.0, atol=1e-12)

    def test_per_sample_then_average(self):
        rng = np.random.default_rng(9)
        snap = softmax(rng.normal(0, 2, size=(25, 3)))
        final = softmax(rng.normal(0, 2, size=(25, 3)))
        from bsdlab.numerics import kl_div
        t_snap, t_final = 1.5, 0.8
        rows = kl_div(temperature_scale(final, t_final), temperature_scale(snap, t_snap))
        np.testing.assert_allclose(
            temp_adjusted_kl(snap, final, (t_snap, t_final)), rows.mean(), rtol=1e-12)

    def test_misalignment_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            temp_adjusted_kl(np.full((3, 2), 0.5), np.full((4, 2), 0.5), (1.0, 1.0))


def test_calibration_report_bins_sum_to_n():
    rng = np.random.default_rng(10)
    preds = softmax(rng.normal(0, 2, size=(120, 4)))
    labels = rng.integers(0, 4, size=120)
    report = calibration_report(preds, labels)
    assert sum(report.bin_count) == 120
    assert 0.0 <= report.ece <= 1.0
    assert 0.0 <= report.accuracy <= 1.0
