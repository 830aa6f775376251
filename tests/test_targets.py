import csv
import io

import numpy as np
import pytest

from bsdlab.fileio import ROWS_PER_WRITE
from bsdlab.numerics import one_hot
from bsdlab.targets import (SIMPLEX_RENORM_TOL, EvidenceStore, StrategyConfig,
                            TargetStrategy, _check_pred, init_prior, sharpen, update_weight)

from oracles import bsd_update, conjugate_update_oracle, evidence_mass_closed_form, fixed_point


def random_simplex(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


class TestInitPrior:
    def test_reference_hyperparameters(self):
        store = init_prior(np.array([1]), k=3, c=1000.0, epsilon=0.0, gamma=0.95)
        np.testing.assert_array_equal(store.y[0], [0.0, 1.0, 0.0])
        assert store.A[0] == 1000.0

    def test_degenerate_equal_weights(self):
        store = init_prior(np.array([2]), k=4, c=2.0, epsilon=2.0, gamma=0.95)
        np.testing.assert_allclose(store.y[0], 0.25, rtol=1e-15)
        assert store.A[0] == 8.0

    def test_direct_normalization(self):
        store = init_prior(np.array([0]), k=3, c=98.0, epsilon=1.0, gamma=0.95)
        np.testing.assert_allclose(store.y[0], [0.98, 0.01, 0.01], rtol=1e-12)
        assert store.A[0] == 100.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            init_prior(np.array([3]), k=3, c=1.0, epsilon=0.0, gamma=0.95)

    def test_nonpositive_c(self):
        with pytest.raises(ValueError, match="c must be > 0"):
            init_prior(np.array([0]), k=3, c=0.0, epsilon=0.0, gamma=0.95)


class TestBsdUpdate:
    def test_gamma_zero_returns_pred_bit_exact(self):
        store = init_prior(np.array([0]), k=2, c=500.0, epsilon=0.0, gamma=0.0)
        pred = np.array([0.3, 0.7])
        y, A = bsd_update(store, 0, pred)
        np.testing.assert_array_equal(y, pred)
        assert A == 1.0

    def test_ema_at_fixed_point(self):
        store = init_prior(np.array([0]), k=2, c=1.0, epsilon=0.0, gamma=0.5)
        store.A[0] = 2.0  # 1 / (1 - 0.5)
        y, A = bsd_update(store, 0, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(y, [0.5, 0.5])
        assert A == 2.0

    def test_hand_evaluation(self):
        store = init_prior(np.array([0]), k=2, c=1.0, epsilon=0.0, gamma=0.9)
        store.y[0] = [0.8, 0.2]
        store.A[0] = 10.0
        y, A = bsd_update(store, 0, np.array([0.2, 0.8]))
        # w = 9/10 so y = 0.9*[0.8,0.2] + 0.1*[0.2,0.8]
        np.testing.assert_allclose(y, [0.74, 0.26], rtol=1e-12)
        np.testing.assert_allclose(A, 10.0, rtol=1e-15)

    def test_near_simplex_drift_renormalized(self):
        store = init_prior(np.array([0]), k=2, c=10.0, epsilon=0.0, gamma=0.5)
        y, _ = bsd_update(store, 0, np.array([0.5, 0.5 + 1e-9]))
        np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)

    def test_far_off_simplex_rejected(self):
        store = init_prior(np.array([0]), k=2, c=10.0, epsilon=0.0, gamma=0.5)
        with pytest.raises(ValueError, match="off the simplex"):
            bsd_update(store, 0, np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="negative"):
            bsd_update(store, 0, np.array([1.1, -0.1]))

    def test_simplex_conservation_property(self):
        # 10^5 random updates leave every row on the simplex
        rng = np.random.default_rng(20)
        n, k = 1000, 5
        store = init_prior(rng.integers(0, k, size=n), k=k, c=100.0, epsilon=0.5,
                           gamma=0.95)
        for _ in range(100):
            store.update_rows(np.arange(n), random_simplex(rng, n, k))
        assert np.all(store.y >= 0.0)
        np.testing.assert_allclose(store.y.sum(axis=1), 1.0, atol=1e-9)


class TestConjugacyOracle:
    def test_plain_addition(self):
        out = conjugate_update_oracle([1000.0, 0.0, 0.0], [0.5, 0.3, 0.2], gamma=1.0)
        np.testing.assert_array_equal(out, [1000.5, 0.3, 0.2])

    def test_gamma_zero_is_pred(self):
        out = conjugate_update_oracle([3.0, 4.0], [0.9, 0.1], gamma=0.0)
        np.testing.assert_array_equal(out, [0.9, 0.1])

    def test_factorized_update_matches_oracle(self):
        # algebraic identity, checked numerically to 1e-12 including gamma = 1
        rng = np.random.default_rng(21)
        for trial in range(500):
            k = int(rng.integers(2, 8))
            alpha = rng.uniform(0.0, 1000.0, size=k)
            alpha[0] += 1e-3  # keep total mass positive
            pred = random_simplex(rng, 1, k)[0]
            gamma = 1.0 if trial % 10 == 0 else float(rng.uniform(0.0, 1.0))
            ap = conjugate_update_oracle(alpha, pred, gamma)
            expected = ap / ap.sum()

            store = EvidenceStore(y=(alpha / alpha.sum())[None, :],
                                  A=np.array([alpha.sum()]), gamma=gamma)
            y, _ = bsd_update(store, 0, pred)
            np.testing.assert_allclose(y, expected, atol=1e-12)


class TestEvidenceMass:
    def test_recurrence_hand_case(self):
        assert evidence_mass_closed_form(1.0, 0.5, 2) == 1.75

    def test_t_zero(self):
        assert evidence_mass_closed_form(7.0, 0.9, 0) == 7.0

    def test_fixed_point_is_stationary(self):
        A0 = fixed_point(0.95)
        for t in (1, 10, 1000):
            np.testing.assert_allclose(evidence_mass_closed_form(A0, 0.95, t), A0,
                                       rtol=1e-12)

    def test_gamma_one_limit_form(self):
        assert evidence_mass_closed_form(5.0, 1.0, 100) == 105.0

    def test_matches_recurrence(self):
        for gamma in (0.0, 0.5, 0.9, 0.99):
            A = 3.0
            for t in range(1, 200):
                A = gamma * A + 1.0
                np.testing.assert_allclose(evidence_mass_closed_form(3.0, gamma, t),
                                           A, atol=1e-10)


class TestFixedPoint:
    def test_values(self):
        assert fixed_point(0.0) == 1.0
        np.testing.assert_allclose(fixed_point(0.95), 20.0, rtol=1e-12)
        assert fixed_point(0.5) == 2.0

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            fixed_point(1.0)

    def test_update_weight_monotone_in_mass(self):
        # larger accumulated evidence weights history more
        A = np.linspace(0.1, 50.0, 200)
        w = update_weight(0.9, A)
        assert np.all(np.diff(w) > 0.0)

    def test_update_weight_equals_gamma_at_fixed_point(self):
        for gamma in (0.0, 0.5, 0.9, 0.95, 0.99):
            A = 1.0 if gamma == 0.0 else fixed_point(gamma)
            assert float(update_weight(gamma, A)) == gamma

    def test_geometric_convergence_of_mass(self):
        # |A^t - 1/(1-gamma)| = gamma^t |A^0 - 1/(1-gamma)|
        gamma = 0.9
        fp = fixed_point(gamma)
        A, A0 = 1.0, 1.0
        for t in range(1, 60):
            A = gamma * A + 1.0
            np.testing.assert_allclose(abs(A - fp), gamma ** t * abs(A0 - fp),
                                       atol=1e-12)


class TestSharpen:
    def test_identity_at_one(self):
        np.testing.assert_array_equal(sharpen([0.8, 0.2], 1.0), [0.8, 0.2])

    def test_square_then_normalize(self):
        p = np.array([0.8, 0.2])
        expected = p ** 2 / (p ** 2).sum()
        np.testing.assert_allclose(sharpen(p, 0.5), expected, rtol=1e-12)

    def test_onehot_fixed_point(self):
        for tau in (0.3, 1.0, 4.0):
            np.testing.assert_array_equal(sharpen([1.0, 0.0], tau), [1.0, 0.0])

    def test_argmax_preserved(self):
        rng = np.random.default_rng(22)
        p = random_simplex(rng, 300, 6)
        for tau in (0.25, 0.8, 1.5, 5.0):
            out = sharpen(p, tau)
            np.testing.assert_array_equal(out.argmax(axis=1), p.argmax(axis=1))
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            sharpen([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            sharpen([0.5, 0.5], -1.0)


class TestStrategyConfig:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown strategy mode"):
            StrategyConfig(mode="frobnicate")

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            StrategyConfig(gamma=1.5)


class TestTargetStrategy:
    labels = np.array([2, 0, 1, 3])
    k = 4

    def make(self, mode, epochs=10, **kw):
        cfg = StrategyConfig(mode=mode, **kw)
        return TargetStrategy(cfg, self.labels, self.k, epochs)

    def test_baseline_always_onehot(self):
        strat = self.make("baseline")
        expected = one_hot(self.labels, self.k)
        for epoch in (1, 5, 10):
            np.testing.assert_array_equal(strat.targets(np.arange(4), epoch), expected)
        strat.update(np.arange(4), np.full((4, 4), 0.25))
        np.testing.assert_array_equal(strat.targets(np.arange(4), 3), expected)

    def test_label_smoothing_row(self):
        cfg = StrategyConfig(mode="label-smoothing", ls_alpha=0.1)
        strat = TargetStrategy(cfg, np.array([0]), 2, 10)
        np.testing.assert_allclose(strat.targets(np.array([0]), 1)[0], [0.95, 0.05], rtol=1e-12)

    def test_pskd_terminal_ramp(self):
        cfg = StrategyConfig(mode="ps-kd", pskd_alpha=0.8)
        strat = TargetStrategy(cfg, np.array([0]), 2, 10)
        strat.update(np.array([0]), np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(strat.targets(np.array([0]), 10)[0], [0.68, 0.32], rtol=1e-12)

    def test_pskd_first_epoch_pure_onehot(self):
        cfg = StrategyConfig(mode="ps-kd", pskd_alpha=0.8)
        strat = TargetStrategy(cfg, np.array([0]), 2, 10)
        np.testing.assert_array_equal(strat.targets(np.array([0]), 1)[0], [1.0, 0.0])

    def test_dlb_serves_previous_pass_prediction(self):
        strat = self.make("dlb")
        np.testing.assert_array_equal(strat.targets(np.array([0]), 1),
                                      one_hot(self.labels[:1], self.k))
        pred = np.array([[0.1, 0.2, 0.3, 0.4]])
        strat.update(np.array([0]), pred)
        np.testing.assert_array_equal(strat.targets(np.array([0]), 2), pred)

    def test_te_before_first_update_is_onehot(self):
        strat = self.make("te")
        np.testing.assert_array_equal(strat.targets(np.arange(4), 1),
                                      one_hot(self.labels, self.k))

    def test_te_bias_correction_recovers_constant_pred(self):
        # with a constant prediction the corrected accumulator equals it exactly
        strat = self.make("te", te_momentum=0.6)
        pred = np.tile(np.array([[0.4, 0.3, 0.2, 0.1]]), (4, 1))
        for _ in range(7):
            strat.update(np.arange(4), pred)
        np.testing.assert_allclose(strat.targets(np.arange(4), 8), pred, rtol=1e-12)

    def test_bsd_serves_store_rows(self):
        strat = self.make("bsd", gamma=0.5, c=10.0)
        np.testing.assert_array_equal(strat.targets(np.arange(4), 1),
                                      strat.store.y)
        pred = np.full((4, 4), 0.25)
        strat.update(np.arange(4), pred)
        assert np.all(strat.store.A == 0.5 * 10.0 + 1.0)

    def test_label_smoothing_approximation_monotone(self):
        # epsilon > 0, mass at its stationary value, model pinned to the one-hot
        # label: off-label mass stays positive and shrinks by gamma each step
        gamma = 0.9
        cfg = StrategyConfig(mode="bsd", gamma=gamma, c=8.0, epsilon=0.1)
        strat = TargetStrategy(cfg, np.array([1]), 3, 100)
        strat.store.A[0] = fixed_point(gamma)
        onehot = np.array([[0.0, 1.0, 0.0]])
        masses = []
        for _ in range(30):
            row = strat.targets(np.array([0]), 1)[0]
            masses.append(row[0] + row[2])
            strat.update(np.array([0]), onehot)
        masses = np.array(masses)
        assert np.all(masses > 0.0)
        assert np.all(np.diff(masses) < 0.0)
        np.testing.assert_allclose(masses[1:] / masses[:-1], gamma, rtol=1e-9)


class TestStoreCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        store = init_prior(rng.integers(0, 3, size=5), k=3, c=50.0, epsilon=0.5,
                           gamma=0.8)
        store.update_rows(np.arange(5), random_simplex(rng, 5, 3))
        path = tmp_path / "store.csv"
        store.save_csv(path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(table[:, 0], np.arange(5))
        np.testing.assert_array_equal(table[:, 1], store.A)
        np.testing.assert_array_equal(table[:, 2:], store.y)

    @pytest.mark.parametrize("n", [1, ROWS_PER_WRITE, 2 * ROWS_PER_WRITE + 3])
    def test_bytes_match_csv_writer_and_round_trip_bit_exact(self, n, tmp_path):
        rng = np.random.default_rng(n)
        y = random_simplex(rng, n, 3)
        y[0] = [5e-324, 1e-310, 1.0]
        A = rng.uniform(1.0, 1e4, size=n)
        A[0] = 1e-05
        store = EvidenceStore(y=y, A=A, gamma=0.8)
        path = tmp_path / "store.csv"
        store.save_csv(path)

        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["sample_id", "A", "y_0", "y_1", "y_2"])
        for i in range(n):
            writer.writerow([i, repr(float(A[i]))] + [repr(float(v)) for v in y[i]])
        assert path.read_bytes() == ref.getvalue().encode()

        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(table[:, 2:].view(np.int64), y.view(np.int64))
        np.testing.assert_array_equal(table[:, 1].view(np.int64), A.view(np.int64))


def test_update_rows_matches_update_weight_formula():
    rng = np.random.default_rng(31)
    store = init_prior(rng.integers(0, 4, size=40), k=4, c=30.0, epsilon=0.1, gamma=0.9)
    for _ in range(5):
        idx = rng.choice(40, size=16, replace=False)
        preds = random_simplex(rng, 16, 4)
        w = update_weight(store.gamma, store.A[idx])
        y_ref = w[:, None] * store.y[idx] + (1.0 - w)[:, None] * preds
        A_ref = store.gamma * store.A[idx] + 1.0
        store.update_rows(idx, preds)
        np.testing.assert_array_equal(store.y[idx].view(np.int64), y_ref.view(np.int64))
        np.testing.assert_array_equal(store.A[idx].view(np.int64), A_ref.view(np.int64))


def reference_check_pred(pred):
    """The six-pass ``_check_pred`` that the fused version replaced, kept verbatim."""
    pred = np.asarray(pred, dtype=np.float64)
    if np.any(pred < 0.0):
        raise ValueError("prediction has negative entries")
    s = pred.sum(axis=-1, keepdims=True)
    err = np.abs(s - 1.0)
    if np.any(err > SIMPLEX_RENORM_TOL):
        raise ValueError(
            f"prediction off the simplex by {err.max():.3e} (> {SIMPLEX_RENORM_TOL})"
        )
    if np.all(err <= 1e-12):
        return pred
    return pred / s


def check_pred_outcome(check, pred):
    try:
        return check(pred)
    except ValueError as exc:
        return str(exc)


class TestCheckPred:
    def same_as_reference(self, pred):
        got = check_pred_outcome(_check_pred, pred)
        want = check_pred_outcome(reference_check_pred, pred)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return got

    def test_negative_entry_rejected(self):
        pred = np.array([[0.5, 0.5, 0.0], [1.1, -0.1, 0.0]])
        assert self.same_as_reference(pred) == "prediction has negative entries"

    def test_nan_does_not_hide_negative_entry_in_its_row(self):
        pred = np.array([[0.5, 0.5, 0.0], [np.nan, -0.1, 1.1]])
        assert self.same_as_reference(pred) == "prediction has negative entries"

    def test_off_simplex_rejected_even_beside_a_nan_row(self):
        assert "off the simplex by 1.000e-01" in self.same_as_reference(np.array([[0.5, 0.6]]))
        # the message reports err.max(), which a NaN row turns into nan
        pred = np.array([[0.5, 0.6], [np.nan, 0.5]])
        assert "off the simplex by nan" in self.same_as_reference(pred)

    def test_exact_rows_pass_through_unchanged(self):
        pred = random_simplex(np.random.default_rng(3), 16, 4)
        assert self.same_as_reference(pred) is pred

    def test_small_drift_renormalized(self):
        pred = np.array([[0.5, 0.5 + 1e-9], [0.25, 0.75]])
        got = self.same_as_reference(pred)
        assert got.tobytes() == (pred / pred.sum(axis=1, keepdims=True)).tobytes()

    def test_nan_row_passes_through_as_nan(self):
        pred = np.array([[0.25, 0.75], [np.nan, 0.5]])
        got = self.same_as_reference(pred)
        assert np.isnan(got[1]).all() and got[0].tobytes() == pred[0].tobytes()

    def test_empty_batch_passes_through(self):
        assert self.same_as_reference(np.empty((0, 3))).shape == (0, 3)

    def test_single_row_vector(self):
        self.same_as_reference(np.array([0.5, 0.5 + 1e-9]))
        self.same_as_reference(np.array([0.5, -0.5]))
