import math
import re

import numpy as np
import pytest

from bsdlab import analysis
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


class TestPredictions:
    """Every entry point that takes predictions refuses a non-finite entry."""

    labels = np.array([0, 1, 2])
    ENTRY_POINTS = {
        "accuracy": accuracy,
        "ece": ece,
        "sce": sce,
        "ace": ace,
        "nll": nll,
        "reliability_bins": reliability_bins,
        "calibration_report": calibration_report,
        "mu_matrix": lambda p, y: mu_matrix(p, y, 3),
        "delta_decomposition": lambda p, y: delta_decomposition(p, y, np.full((3, 3), 1 / 3)),
        "temperature_scale": lambda p, y: temperature_scale(p, 1.0),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_non_finite_prediction_rejected(self, name, bad):
        # argmax picks a NaN or inf at the label, so accuracy counted the row correct
        preds = TestLabels.preds.copy()
        preds[1, 1] = bad
        with pytest.raises(ValueError, match="^predictions hold a non-finite entry$"):
            self.ENTRY_POINTS[name](preds, self.labels)


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

    @pytest.mark.parametrize("k", [2, 4])
    def test_class_count_other_than_the_predictions_rejected(self, k):
        # k = 2 failed in a numpy broadcast; k = 4 named classes 2 and 3 missing
        preds = np.full((3, 3), 1 / 3)
        with pytest.raises(ValueError, match=re.escape(
                f"k={k} does not match the predictions' 3 classes")):
            mu_matrix(preds, np.array([0, 1, 1]), k)


class TestDeltaDecomposition:
    @pytest.mark.parametrize("mu", [np.eye(3), np.eye(2)[0], np.ones((2, 3))])
    def test_mu_of_another_shape_rejected(self, mu):
        with pytest.raises(ValueError, match=re.escape(
                f"mu has shape {mu.shape}, not (2, 2) for 2-class predictions")):
            delta_decomposition(np.full((3, 2), 0.5), np.array([0, 1, 1]), mu)

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
    def reference_fit(logits, labels, lo=0.05, hi=20.0, steps=None):
        """Golden section over the unhoisted nll(softmax(logits / t)) objective:
        ``steps`` steps, or by ``fit_temperature``'s stop rule when None."""
        def objective(t):
            return nll(softmax(logits / t), labels)

        def go_on(a, b, c, d):
            if steps is not None:
                return step < steps
            return b - a >= 2.0 ** -27 * (a + b) and a < c < d < b

        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = objective(c), objective(d)
        step = 0
        while go_on(a, b, c, d):
            step += 1
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

    @staticmethod
    def interior_sets():
        """Sets whose NLL-optimal T lies inside the search domain: labels drawn
        from softmax(logits / t0), and a 10 000 x 4 set of log-probabilities
        with 40% of its labels moved to the next class."""
        rng = np.random.default_rng(37)
        for scale, t0 in ((0.5, 0.3), (3.0, 1.0), (50.0, 4.0), (3.0, 15.0)):
            logits = rng.normal(0.0, scale, size=(300, 4))
            p = softmax(logits / t0)
            labels = (rng.random((300, 1)) > np.cumsum(p, axis=1)).sum(axis=1)
            yield logits, np.minimum(labels, 3)
        labels = rng.integers(0, 4, size=10_000)
        logits = rng.normal(0.0, 1.0, size=(10_000, 4))
        logits[np.arange(10_000), labels] += 2.0
        labels = np.where(rng.random(10_000) < 0.4, (labels + 1) % 4, labels)
        yield np.log(np.maximum(softmax(logits), 1e-12)), labels

    def test_fit_matches_unhoisted_search(self):
        for logits, labels in self.logit_sets():
            assert fit_temperature(logits, labels) == self.reference_fit(logits, labels)

    @staticmethod
    def count_evaluations(monkeypatch, limit):
        """Count objective evaluations per fit; fail a fit that runs past ``limit``."""
        calls = [0]
        hoist = analysis._temperature_nll

        def counted(logits, labels):
            objective = hoist(logits, labels)

            def call(t):
                calls[0] += 1
                assert calls[0] <= limit, f"more than {limit} evaluations"
                return objective(t)

            calls[0] = 0
            return call

        monkeypatch.setattr(analysis, "_temperature_nll", counted)
        return calls

    def test_fit_stops_within_52_evaluations(self, monkeypatch):
        # the bracket shrinks by 0.618 a step from 19.95 to 2**-26 of T >= 0.05
        calls = self.count_evaluations(monkeypatch, 1000)
        for logits, labels in [*self.logit_sets(), *self.interior_sets()]:
            fit_temperature(logits, labels)
            assert 2 < calls[0] <= 52

    def test_fit_is_within_the_nll_resolution_of_80_steps(self):
        # Near an interior minimum the NLL is quadratic in T, so stopping at
        # 2**-26 of T moves the NLL by a few ulp at most. The logit_sets fit at
        # hi, where the NLL is linear in T; there only T is bounded.
        for interior, sets in ((False, self.logit_sets()), (True, self.interior_sets())):
            for logits, labels in sets:
                t = fit_temperature(logits, labels)
                t80 = self.reference_fit(logits, labels, steps=80)
                assert abs(t - t80) <= 2e-8 * t80
                if interior:
                    f, f80 = nll(softmax(logits / t), labels), nll(softmax(logits / t80), labels)
                    assert abs(f - f80) <= 4 * math.ulp(f80)

    TINY = np.array([[0.0, 1e-320], [1e-320, 0.0]])

    @pytest.mark.parametrize("logits, labels, lo, hi", [
        (TINY, [1, 0], 5e-324, 1e-321),  # T goes down to the subnormal edge of NLL 0
        (TINY, [0, 1], 5e-324, 1e-321),  # T goes up to hi, every probe subnormal
        (TINY, [1, 0], 5e-324, 20.0),    # a flat NLL: ties move T up to hi
        (np.log([[0.8, 0.2]] * 5), [0, 0, 0, 0, 1], 5e-324, 20.0),
        (np.log([[0.8, 0.2]] * 5), [0, 0, 0, 0, 1], 1e-300, 1e300),
        (np.log([[0.8, 0.2]] * 5), [0, 0, 0, 0, 1], 1.0, 1.0 + 1e-12),
    ])
    def test_fit_ends_on_every_finite_domain(self, monkeypatch, logits, labels, lo, hi):
        # at subnormal widths 2**-27 * (a + b) underflows to 0; the loop still
        # ends, once the probes no longer fall strictly inside the bracket
        self.count_evaluations(monkeypatch, 3000)
        assert lo <= fit_temperature(logits, np.array(labels), lo=lo, hi=hi) <= hi

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_probe_raises_the_named_error_alone(self):
        # 1 / T overflows at a subnormal probe; a numpy float64 probe would warn
        # "overflow encountered in scalar divide" first
        with pytest.raises(ValueError, match="^non-finite logits$"):
            fit_temperature([[0, 1], [1, 0]], [1, 0], lo=5e-324, hi=1e-321)

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

    @pytest.mark.parametrize("t", [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_temperature_scale_refuses_a_temperature_that_is_not_one(self, t):
        # -1.0 inverted the class ranking; 0.0 warned and blamed the logits
        preds = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        with pytest.raises(ValueError, match=re.escape(
                f"temperature must be finite and > 0, got {t}")):
            temperature_scale(preds, t)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            temp_adjusted_kl(preds, preds, (1.0, t))

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
