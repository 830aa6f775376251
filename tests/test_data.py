import re
import struct
import tracemalloc

import numpy as np
import pytest

from bsdlab.data import (Dataset, NoiseSpec, _erase, apply_noise, augment_strong,
                         augment_weak, export_csv,
                         inject_asymmetric, inject_symmetric, load_csv,
                         load_idx, make_blobs, read_idx, write_idx)
from bsdlab.models import ModelSpec, init_model
from bsdlab.numerics import one_hot
from bsdlab.targets import StrategyConfig, TargetStrategy
from bsdlab.training import TrainConfig, evaluate, make_optimizer, train_epoch


def quick_linear_accuracy(train, test, epochs=30):
    """Train a bias-only-seeded linear model on one-hot targets, report test accuracy."""
    spec = ModelSpec(input_dim=train.d, classes=train.k, hidden=(), dropout=0.0, seed=0)
    model = init_model(spec)
    cfg = TrainConfig(epochs=epochs, batch_size=64, optimizer="adam", lr=0.05,
                      strategy=StrategyConfig(mode="baseline"), eval_every=epochs)
    strategy = TargetStrategy(cfg.strategy, train.labels, train.k, cfg.epochs)
    opt = make_optimizer(cfg)
    for epoch in range(1, epochs + 1):
        train_epoch(model, train, strategy, opt, cfg, epoch, seed=0)
    return evaluate(model, test)["acc"]


class TestMakeBlobs:
    def test_fixed_seed_identical(self):
        a = make_blobs(3, 20, seed=5)
        b = make_blobs(3, 20, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_wide_spacing_linearly_separable(self):
        train = make_blobs(3, 100, spacing=50.0, cov_scale=1.0, seed=1)
        test = make_blobs(3, 50, spacing=50.0, cov_scale=1.0, seed=2)
        assert quick_linear_accuracy(train, test) > 0.99

    def test_coincident_centers_chance_level(self):
        # a ring of radius 0 puts every class center at the origin
        train = make_blobs(2, 200, spacing=0.0, seed=3)
        test = make_blobs(2, 200, spacing=0.0, seed=4)
        acc = quick_linear_accuracy(train, test)
        assert 0.35 < acc < 0.65

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(ValueError, match="covariance"):
            make_blobs(2, 10, cov_scale=0.0)

    def test_one_dim_rejected(self):
        # the ring puts its centers in the first two dimensions
        with pytest.raises(ValueError, match=r"ring centers need dim >= 2"):
            make_blobs(3, 10, dim=1)


class TestIdx:
    def test_header_parsing(self, tmp_path):
        # magic 0x00000803: ubyte, 3 dims
        payload = bytes(range(256)) * (10 * 28 * 28 // 256 + 1)
        raw = struct.pack(">BBBB", 0, 0, 0x08, 3)
        raw += struct.pack(">III", 10, 28, 28)
        raw += payload[: 10 * 28 * 28]
        path = tmp_path / "images.idx"
        path.write_bytes(raw)
        arr = read_idx(path)
        assert arr.shape == (10, 28, 28)

        labels_path = tmp_path / "labels.idx"
        write_idx(labels_path, np.arange(10, dtype=np.uint8) % 3)
        ds = load_idx(path, labels_path)
        assert ds.n == 10 and ds.d == 784 and ds.is_grid

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x08\x01" + struct.pack(">I", 1) + b"\x00")
        with pytest.raises(ValueError, match="magic"):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 10) + b"\x00" * 4)
        with pytest.raises(ValueError, match="truncated"):
            read_idx(path)

    # the first header's size wraps to 0 in int64; neither may be allocated
    @pytest.mark.parametrize("dims", [(2 ** 31, 2 ** 31, 4), (60000, 2 ** 20, 2 ** 20)],
                             ids=["wraps-int64", "too-large"])
    def test_header_claiming_more_than_the_file(self, tmp_path, dims):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">III", *dims)
                         + bytes(16))
        size = dims[0] * dims[1] * dims[2]
        with pytest.raises(ValueError, match=re.escape(
                f"truncated IDX payload in {path}: expected {size} bytes, got 16")):
            read_idx(path)

    def test_unsupported_type(self, tmp_path):
        path = tmp_path / "float.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x0D, 1) + struct.pack(">I", 0))
        with pytest.raises(ValueError, match="type"):
            read_idx(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
        path = tmp_path / "rt.idx"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_load_scales_pixels_in_one_float_copy(self, tmp_path):
        # a second float copy of the pixels would peak past twice the samples' bytes
        images = np.random.default_rng(4).integers(0, 256, size=(2000, 12, 12), dtype=np.uint8)
        images[0, 0, :2] = 0, 255
        write_idx(tmp_path / "images.idx", images)
        write_idx(tmp_path / "labels.idx", np.arange(2000, dtype=np.uint8) % 10)
        tracemalloc.start()
        try:
            ds = load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.samples.tobytes() == (images.astype(np.float64)[..., None] / 255.0).tobytes()
        assert peak < 1.5 * ds.samples.nbytes


class TestCsv:
    def test_round_trip_identical(self, tmp_path):
        ds = make_blobs(3, 15, seed=7)
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.samples, ds.samples)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.k == ds.k

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one; here it abuts the label column
        text = "label,x0,x1\r\n1,0.5,-1.25\r\n0,1e-3,2\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = load_csv(plain), load_csv(marked)
        assert a.samples.tobytes() == b.samples.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.labels, [1, 0])
        export_csv(b, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes().startswith(b"x0,x1,label\r\n")

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("x0,label\n1.0,-1\n")
        with pytest.raises(ValueError, match="label out of range"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path)


class TestSymmetricNoise:
    def test_rate_zero_unchanged(self):
        labels = np.array([0, 1, 2, 1])
        np.testing.assert_array_equal(inject_symmetric(labels, 0.0, 3, seed=0), labels)

    def test_rate_one_binary_flips_all(self):
        labels = np.array([0, 1, 0, 1, 1])
        noisy = inject_symmetric(labels, 1.0, 2, seed=1)
        np.testing.assert_array_equal(noisy, 1 - labels)

    def test_exact_count_changed(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, size=1000)
        noisy = inject_symmetric(labels, 0.2, 4, seed=2)
        assert int((noisy != labels).sum()) == 200

    def test_guaranteed_flip(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 5, size=500)
        for seed in range(5):
            noisy = inject_symmetric(labels, 0.5, 5, seed=seed)
            changed = noisy != labels
            assert int(changed.sum()) == 250
            assert np.all(noisy[changed] != labels[changed])

    def test_deterministic(self):
        labels = np.arange(100) % 3
        a = inject_symmetric(labels, 0.3, 3, seed=11)
        b = inject_symmetric(labels, 0.3, 3, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_one_class_rejected(self):
        # the new class is drawn from the other k - 1, of which one class has none
        with pytest.raises(ValueError, match="no other class to flip a label to"):
            inject_symmetric(np.array([0, 0, 0, 0]), 0.5, 1, seed=0)


class TestAsymmetricNoise:
    def test_rate_zero(self):
        labels = np.array([0, 1, 2])
        np.testing.assert_array_equal(
            inject_asymmetric(labels, 0.0, 3, seed=0), labels)

    def test_cyclic_per_class_counts(self):
        labels = np.repeat(np.arange(3), 100)
        noisy = inject_asymmetric(labels, 0.3, 3, seed=1)
        for src in range(3):
            moved = (labels == src) & (noisy != labels)
            assert int(moved.sum()) == 30
            assert np.all(noisy[moved] == (src + 1) % 3)

    def test_fixed_point_rejected(self):
        # with one class, (0 + 1) mod 1 = 0: every chosen label stayed as it was
        with pytest.raises(ValueError, match="fixed point"):
            inject_asymmetric(np.array([0, 0, 0, 0]), 0.5, 1, seed=0)

    def test_float_labels_refused(self):
        # these were truncated to [0, 1, 5] and relabelled to [1, 0, 5]
        with pytest.raises(ValueError, match="labels must be integers, got dtype float64"):
            inject_asymmetric([0.7, 1.9, 5.5], 1.0, 6, 0)

    def test_label_out_of_range_refused(self):
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
            inject_asymmetric([0, 1, 5], 1.0, 3, 0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(4), 25)
        a = inject_asymmetric(labels, 0.4, 4, seed=3)
        b = inject_asymmetric(labels, 0.4, 4, seed=3)
        np.testing.assert_array_equal(a, b)


class TestApplyNoise:
    def test_clean_labels_immutable(self):
        ds = make_blobs(4, 50, seed=10)
        before = ds.clean_labels.copy()
        noisy = apply_noise(ds, NoiseSpec(kind="symmetric", rate=0.4, seed=1))
        np.testing.assert_array_equal(ds.clean_labels, before)
        np.testing.assert_array_equal(noisy.clean_labels, before)
        assert int((noisy.labels != before).sum()) == int(round(0.4 * ds.n))

    def test_rate_without_a_kind_refused(self):
        # kind defaults to "none", which keeps the clean labels: this flipped none
        with pytest.raises(ValueError, match="noise.rate > 0 needs noise.kind 'symmetric' or "
                                             "'asymmetric'"):
            apply_noise(make_blobs(3, 20, seed=1), NoiseSpec(rate=0.4, seed=3))
        assert NoiseSpec(kind="none", rate=0.0).rate == 0.0

    # the samples apply_noise moves to the next class mod k, pinned here because no
    # golden digest trains with asymmetric noise
    @pytest.mark.parametrize("k, seed, flipped", [
        (2, 1, [3, 4, 7, 11, 17, 19]),
        (3, 0, [5, 6, 9, 10, 18, 19, 25, 28, 29]),
        (4, 5, [0, 5, 7, 12, 14, 15, 22, 23, 25, 30, 38, 39]),
        (5, 17, [1, 5, 7, 13, 14, 16, 23, 28, 29, 30, 34, 37, 42, 43, 44]),
    ])
    def test_asymmetric_labels_pinned(self, k, seed, flipped):
        ds = make_blobs(k, 10, seed=seed)
        noisy = apply_noise(ds, NoiseSpec(kind="asymmetric", rate=0.3, seed=seed))
        want = ds.clean_labels.copy()
        want[flipped] = (want[flipped] + 1) % k
        np.testing.assert_array_equal(noisy.labels, want)


class TestAugment:
    def test_zero_jitter_identity(self):
        x = np.random.default_rng(12).normal(size=(5, 3))
        out = augment_weak(x, np.random.default_rng(0), jitter_sigma=0.0)
        np.testing.assert_array_equal(out, x)

    def test_same_seed_same_view(self):
        x = np.random.default_rng(13).normal(size=(5, 3))
        a = augment_weak(x, np.random.default_rng(7), jitter_sigma=0.1)
        b = augment_weak(x, np.random.default_rng(7), jitter_sigma=0.1)
        np.testing.assert_array_equal(a, b)

    def test_grid_shapes_preserved(self):
        x = np.random.default_rng(14).uniform(size=(3, 8, 8, 1))
        weak = augment_weak(x, np.random.default_rng(1), jitter_sigma=0.05)
        strong = augment_strong(x, np.random.default_rng(2), jitter_sigma=0.2, erase_frac=0.3)
        assert weak.shape == x.shape and strong.shape == x.shape

    def test_full_erasure_blanks_image(self):
        x = np.random.default_rng(15).uniform(0.5, 1.0, size=(2, 6, 6, 1))
        out = augment_strong(x, np.random.default_rng(3), jitter_sigma=0.0,
                             erase_frac=1.0)
        np.testing.assert_array_equal(out, np.zeros_like(x))

    @pytest.mark.parametrize("frac", [0.0, 0.05, 1 / 12])
    def test_zero_side_erases_nothing(self, frac):
        # round(frac * 6) is 0: "in [0, 1]" admits these, and no pixel may go
        x = np.ones((2, 6, 6, 1))
        np.testing.assert_array_equal(_erase(x, np.random.default_rng(4), frac), x)


class TestDatasetInvariants:
    @pytest.mark.parametrize("build", [
        lambda: make_blobs(3, 0),
        lambda: Dataset(samples=np.zeros((0, 2)), clean_labels=np.zeros(0, dtype=np.int64),
                        labels=np.zeros(0, dtype=np.int64), k=2),
        lambda: Dataset(samples=np.zeros((0, 4, 4, 1)), clean_labels=np.zeros(0, dtype=np.int64),
                        labels=np.zeros(0, dtype=np.int64), k=2),
    ], ids=["make_blobs", "vectors", "grids"])
    def test_no_samples_rejected(self, build):
        # an empty training set used to reach train_epoch's loss_sum / n
        with pytest.raises(ValueError, match="^no samples$"):
            build()

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="label out of range"):
            Dataset(samples=np.zeros((2, 2)), clean_labels=np.array([0, 5]),
                    labels=np.array([0, 5]), k=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(samples=np.array([[np.nan, 0.0]]), clean_labels=np.array([0]),
                    labels=np.array([0]), k=2)

    def test_active_label_out_of_range_rejected(self):
        # a label -1 would have served its row the one-hot of class 3
        ds = make_blobs(4, 5, seed=0)
        noisy = np.where(ds.labels == 0, -1, ds.labels)
        with pytest.raises(ValueError, match=r"label out of range \[0, 4\)"):
            ds.with_labels(noisy)

    def test_active_label_count_checked(self):
        ds = make_blobs(4, 5, seed=0)
        with pytest.raises(ValueError, match="count mismatch"):
            ds.with_labels(np.array([0, 1]))
        with pytest.raises(ValueError, match="count mismatch"):
            Dataset(samples=np.zeros((2, 2)), clean_labels=np.array([0, 1]),
                    labels=np.array([[0, 1]]), k=2)
