import dataclasses
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bsdlab import models
from bsdlab.fileio import read_blocks, write_blocks
from bsdlab.models import (CHECKPOINT_MAGIC, Model, ModelSpec, backward, forward, init_model,
                           load_checkpoint, param_count, predict, save_checkpoint)
from bsdlab.numerics import soft_cross_entropy

from oracles import finite_diff_grad


def pack_params(model):
    return np.concatenate([model.params[n].ravel() for n in model.params])


def unpack_params(model, flat):
    pos = 0
    for name in model.params:
        block = model.params[name]
        block[...] = flat[pos:pos + block.size].reshape(block.shape)
        pos += block.size


def ce_loss(model, batch, targets):
    probs, _ = forward(model, batch)
    n, k = probs.shape
    return float(soft_cross_entropy(targets, probs).sum() / (n * k))


def relative_grad_error(model, batch, targets):
    """Analytic vs central-difference gradient over all parameter blocks."""
    probs, cache = forward(model, batch)
    n, k = probs.shape
    grads = backward(model, cache, (probs - targets) / (n * k))
    analytic = np.concatenate([grads[name].ravel() for name in model.params])
    x0 = pack_params(model)

    def f(flat):
        unpack_params(model, flat)
        return ce_loss(model, batch, targets)

    numeric = finite_diff_grad(f, x0.copy(), h=1e-5)
    unpack_params(model, x0)
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)


def random_targets(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


class TestInit:
    def test_linear_model_shapes(self):
        model = init_model(ModelSpec(input_dim=2, classes=2))
        assert model.params["w0"].shape == (2, 2)
        assert model.params["b0"].shape == (2,)
        assert list(model.params) == ["w0", "b0"]

    def test_same_seed_bit_identical(self):
        spec = ModelSpec(input_dim=5, classes=3, hidden=(8,), seed=11)
        a, b = init_model(spec), init_model(spec)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_param_count_arithmetic(self):
        spec = ModelSpec(input_dim=4, classes=3, hidden=(16, 16))
        expected = 4 * 16 + 16 + 16 * 16 + 16 + 16 * 3 + 3  # 403
        assert param_count(spec) == expected
        model = init_model(spec)
        assert sum(v.size for v in model.params.values()) == expected

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, classes=1)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, classes=2, hidden=(0,))
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, classes=2, dropout=1.0)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=9, classes=2, architecture="tiny-conv")


class TestForward:
    def test_zero_weights_give_uniform(self):
        model = init_model(ModelSpec(input_dim=3, classes=4))
        for name in model.params:
            model.params[name][...] = 0.0
        probs, _ = forward(model, np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_train_dropout_reproducible(self):
        model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8,), dropout=0.5, seed=2))
        x = np.random.default_rng(1).normal(size=(5, 4))
        p1, _ = forward(model, x, np.random.default_rng(42))
        p2, _ = forward(model, x, np.random.default_rng(42))
        np.testing.assert_array_equal(p1, p2)
        p3, _ = forward(model, x, np.random.default_rng(43))
        assert not np.array_equal(p1, p3)

    def test_dropout_requires_rng(self):
        model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8,), dropout=0.5))
        with pytest.raises(ValueError, match="rng"):
            forward(model, np.zeros((2, 4)))

    def test_rows_on_simplex(self):
        model = init_model(ModelSpec(input_dim=6, classes=5, hidden=(10,), seed=3))
        x = np.random.default_rng(4).normal(0, 30, size=(40, 6))
        probs, _ = forward(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_dimension_mismatch(self):
        model = init_model(ModelSpec(input_dim=4, classes=3))
        with pytest.raises(ValueError, match="shape"):
            forward(model, np.zeros((2, 5)))


# 32-wide layers: at this width how many rows one matmul gets moves the last
# bits of its product, so a predict that split the rows would fail here
PREDICT_SPECS = {
    "mlp-relu": ModelSpec(input_dim=3, classes=4, hidden=(32, 32), seed=5),
    "mlp-tanh": ModelSpec(input_dim=3, classes=4, hidden=(32, 32), activation="tanh", seed=5),
    "mlp-dropout": ModelSpec(input_dim=3, classes=4, hidden=(32, 32), dropout=0.1, seed=5),
    "tiny-conv": ModelSpec(input_dim=72, classes=3, hidden=(32,), architecture="tiny-conv",
                           grid_shape=(6, 6, 2), seed=5),
    "tiny-conv-12x12x1": ModelSpec(input_dim=144, classes=4, hidden=(32,),
                                   architecture="tiny-conv", grid_shape=(12, 12, 1), seed=5),
    "tiny-conv-odd-pool": ModelSpec(input_dim=98, classes=3, hidden=(32,),
                                    architecture="tiny-conv", grid_shape=(7, 7, 2), seed=5),
    # 6 * 5 conv rows per image: an odd image count leaves a conv product of
    # 2 (mod 4) rows, whose last two rows are not both dropped by the pool
    "tiny-conv-8x7x1": ModelSpec(input_dim=56, classes=3, hidden=(32,),
                                 architecture="tiny-conv", grid_shape=(8, 7, 1), seed=5),
}
CONV_SPECS = [name for name, spec in PREDICT_SPECS.items() if spec.architecture == "tiny-conv"]


def slice_edges(spec):
    """Set sizes on both sides of 16 and of predict's slice row count S, two with a
    lone last row (which joins the slice before it), and a set of several slices."""
    rows = models._slice_rows(spec)
    return (1, 15, 16, 17, rows - 1, rows, rows + 1, 2 * rows + 1,
            1001 if spec.architecture == "tiny-conv" else 10_000)


def slice_mismatches(name):
    """The sizes in ``slice_edges`` at which ``predict`` on PREDICT_SPECS[name] differs
    in any bit from ``forward`` with dropout 0 on the whole set."""
    spec = PREDICT_SPECS[name]
    model = init_model(spec)
    no_dropout = Model(dataclasses.replace(spec, dropout=0.0), model.flat)
    shape = spec.grid_shape or (spec.input_dim,)
    rng = np.random.default_rng(1)
    mismatches = []
    for n in slice_edges(spec):
        x = rng.normal(size=(n, *shape))
        if predict(model, x).tobytes() != forward(no_dropout, x)[0].tobytes():
            mismatches.append(n)
    return mismatches


def held_buffers(held):
    """The distinct arrays behind an eval set, each view traced to the array it slices."""
    found = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            base = value if value.base is None else value.base
            found.setdefault(id(base), base)
        elif isinstance(value, (dict, list, tuple)):
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)

    walk(held)
    return list(found.values())


class TestPredict:
    @pytest.mark.parametrize("name", PREDICT_SPECS)
    def test_equals_eval_forward_bit_for_bit(self, name):
        spec = PREDICT_SPECS[name]
        model = init_model(spec)
        # forward with dropout 0 runs the same operations as predict
        no_dropout = Model(dataclasses.replace(spec, dropout=0.0), model.flat)
        shape = spec.grid_shape if spec.architecture == "tiny-conv" else (spec.input_dim,)
        rng = np.random.default_rng(0)
        for n in (7, 10_000, 7):
            x = rng.normal(size=(n, *shape))
            probs = predict(model, x)
            expected, _ = forward(no_dropout, x)
            assert probs.tobytes() == expected.tobytes()
            held = model.scratch["predict"]
            for buf in held_buffers(held):
                assert not np.shares_memory(probs, buf)
            again = predict(model, x)
            assert probs.tobytes() == expected.tobytes()  # the first result survives
            assert again.tobytes() == expected.tobytes()
            assert list(model.scratch) == ["predict"] and model.scratch["predict"] is held
            assert held["logits"].shape == (n, spec.classes)

    @pytest.mark.parametrize("name", PREDICT_SPECS)
    def test_slice_edges_bit_for_bit(self, name):
        assert slice_mismatches(name) == []

    @pytest.mark.parametrize("coretype", ["Nehalem", "Haswell"])
    def test_slice_edges_under_other_blas_kernels(self, coretype):
        # OpenBLAS reads its settings once, when it loads, so a child process runs
        # another kernel. Nehalem sums a product's last count % 4 rows in another
        # order, Haswell an odd count's last row: slices of an odd row count fail
        # there. The child runs one thread, since threads split the whole product at
        # rows of their own choosing.
        child = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from test_models import PREDICT_SPECS, slice_mismatches
            print({name: slice_mismatches(name) for name in PREDICT_SPECS})
        """)
        src = str(Path(models.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", child, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{dict.fromkeys(PREDICT_SPECS, [])}\n"

    def test_repeat_conv_call_peaks_under_one_whole_set_conv_output(self):
        # the whole set's conv output z is 1000 * 100 * 8 * 8 B; a front end run on
        # the whole set at once peaks at more than twice that
        spec = PREDICT_SPECS["tiny-conv-12x12x1"]
        model = init_model(spec)
        x = np.random.default_rng(0).normal(size=(1000, *spec.grid_shape))
        predict(model, x)
        tracemalloc.start()
        try:
            predict(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 100 * 8 * 8

    def test_is_pure_with_dropout(self):
        model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8,), dropout=0.5, seed=2))
        x = np.random.default_rng(1).normal(size=(5, 4))
        p1 = predict(model, x)
        p2 = predict(model, x)
        np.testing.assert_array_equal(p1, p2)

    def test_scratch_holds_one_buffer_per_dense_layer(self):
        # the first hidden layer keeps one slice; the last holds the whole set's rows,
        # which the logits product reads
        spec = PREDICT_SPECS["mlp-relu"]
        rows = models._slice_rows(spec)
        assert rows == 2048
        n = 2 * rows + 5
        model = init_model(spec)
        x = np.random.default_rng(2).normal(size=(n, 3))
        predict(model, x)
        held = model.scratch["predict"]
        assert list(held) == ["layers", "logits"]
        assert [list(layer) for layer in held["layers"]] == [["h"], ["h"]]
        first, last = (layer["h"] for layer in held["layers"])
        assert [b.shape for b in held_buffers(held)] == [(rows, 32), (n, 32), (n, 4)]
        assert first.base is None and last.base is None
        assert models._slice_bounds(spec, n) == [(0, rows), (rows, 2 * rows), (2 * rows, n)]
        # the last slice's rows are left in the first buffer, every row in the last
        _, cache = forward(model, x)
        h0, h1 = (layer["h"] for layer in cache["buffers"]["layers"])
        assert first[:n - 2 * rows].tobytes() == h0[2 * rows:].tobytes()
        assert last.tobytes() == h1.tobytes() and not np.shares_memory(last, h1)
        assert held["logits"].shape == (n, 4)

    def test_eval_set_keeps_one_slice_beside_the_logits_input(self):
        # every layer whole would be 10_000 * (32 + 32 + 4) * 8 B
        spec = ModelSpec(input_dim=2, classes=4, hidden=(32, 32), seed=1)
        model = init_model(spec)
        predict(model, np.random.default_rng(0).normal(size=(10_000, 2)))
        held = sum(b.nbytes for b in held_buffers(model.scratch["predict"]))
        assert held <= 10_000 * (32 + 4) * 8 + models._slice_rows(spec) * 32 * 8

    def test_tiny_conv_without_hidden_layers(self):
        spec = ModelSpec(input_dim=144, classes=3, architecture="tiny-conv",
                         grid_shape=(12, 12, 1), seed=2)
        model = init_model(spec)
        x = np.random.default_rng(3).normal(size=(3 * models._slice_rows(spec) + 1, 12, 12, 1))
        assert predict(model, x).tobytes() == forward(model, x)[0].tobytes()
        layers = model.scratch["predict"]["layers"]
        assert [layer["h"].shape for layer in layers] == [(len(x), spec.head_input_dim())]

    def test_mlp_without_hidden_layers_keeps_no_layer(self):
        model = init_model(ModelSpec(input_dim=3, classes=4, seed=2))
        x = np.random.default_rng(3).normal(size=(9, 3))
        assert predict(model, x).tobytes() == forward(model, x)[0].tobytes()
        assert model.scratch["predict"]["layers"] == []

    @pytest.mark.parametrize("spec, batch, expected", [
        (ModelSpec(input_dim=4, classes=3), np.zeros(4), "(n, 4), got (4,)"),
        (ModelSpec(input_dim=36, classes=3, architecture="tiny-conv", grid_shape=(6, 6, 1)),
         np.zeros((2, 6, 7, 1)), "(n, 6, 6, 1), got (2, 6, 7, 1)"),
    ], ids=["mlp-1d", "tiny-conv-grid"])
    def test_batch_shape_refused_by_both_passes(self, spec, batch, expected):
        model = init_model(spec)
        for run in (predict, forward):
            with pytest.raises(ValueError, match=re.escape(f"expected batch of shape {expected}")):
                run(model, batch)

    def test_dimension_mismatch(self):
        model = init_model(ModelSpec(input_dim=4, classes=3))
        with pytest.raises(ValueError, match="shape"):
            predict(model, np.zeros((2, 5)))

    def test_repeat_call_reuses_its_buffers(self):
        # one hidden activation of this set is 10_000 * 32 * 8 B; a forward
        # that allocates its activations afresh peaks at several of them
        model = init_model(ModelSpec(input_dim=2, classes=4, hidden=(32, 32), seed=1))
        x = np.random.default_rng(0).normal(size=(10_000, 2))
        predict(model, x)
        tracemalloc.start()
        try:
            predict(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000 * 32 * 8


class TestTrainingPassMemory:
    @pytest.mark.parametrize("activation, dropout", [("relu", 0.0), ("tanh", 0.3)])
    def test_repeat_step_reuses_its_buffers(self, activation, dropout):
        # one hidden activation of this batch is 256 * 32 * 8 B; a pass that
        # allocates its intermediates afresh peaks at several of them
        n, k = 256, 4
        model = init_model(ModelSpec(input_dim=2, classes=k, hidden=(32, 32),
                                     activation=activation, dropout=dropout, seed=1))
        data_rng = np.random.default_rng(0)
        x, targets = data_rng.normal(size=(n, 2)), random_targets(data_rng, n, k)
        probs, dlogits = np.empty((n, k)), np.empty((n, k))
        grads = model.views(np.empty_like(model.flat))
        rng = np.random.default_rng(3)

        def step():
            _, cache = forward(model, x, rng, out=probs)
            soft_cross_entropy(targets, probs).sum()
            np.divide(np.subtract(probs, targets, out=dlogits), n * k, out=dlogits)
            backward(model, cache, dlogits, out=grads)

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 32 * 8


class TestBackward:
    def test_target_equals_probs_zero_gradient(self):
        model = init_model(ModelSpec(input_dim=3, classes=3, seed=5))
        x = np.random.default_rng(6).normal(size=(4, 3))
        probs, cache = forward(model, x)
        grads = backward(model, cache, (probs - probs) / (4 * 3))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_logit_gradient_convention(self):
        # single sample, k=2: (probs - target) / (|B| * k) = [-0.3, 0.3] / 2
        probs = np.array([[0.7, 0.3]])
        target = np.array([[1.0, 0.0]])
        np.testing.assert_allclose((probs - target) / (1 * 2),
                                   np.array([[-0.3, 0.3]]) / 2, rtol=1e-12)

    def test_stale_cache_rejected(self):
        model = init_model(ModelSpec(input_dim=3, classes=3))
        with pytest.raises(ValueError, match="cache"):
            backward(model, {}, np.zeros((1, 3)))

    def test_cache_overwritten_by_a_later_forward_rejected(self):
        model = init_model(ModelSpec(input_dim=3, classes=3, hidden=(4,), seed=1))
        rng = np.random.default_rng(2)
        probs, cache = forward(model, rng.normal(size=(5, 3)))
        forward(model, rng.normal(size=(5, 3)))  # same row count: same buffers
        with pytest.raises(ValueError, match="^stale or incomplete forward cache$"):
            backward(model, cache, probs / 15.0)

    def test_cache_survives_other_row_counts_and_predict(self):
        model = init_model(ModelSpec(input_dim=3, classes=3, hidden=(4, 4), dropout=0.2,
                                     seed=1))
        rng = np.random.default_rng(2)
        probs, cache = forward(model, rng.normal(size=(5, 3)), np.random.default_rng(3))
        dlogits = (probs - random_targets(rng, 5, 3)) / 15.0
        want = backward(model, cache, dlogits)
        forward(model, rng.normal(size=(6, 3)), np.random.default_rng(4))
        predict(model, rng.normal(size=(5, 3)))
        got = backward(model, cache, dlogits)  # a cache also serves more than one backward
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_mlp_gradient_check(self, activation):
        rng = np.random.default_rng(7)
        model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8,),
                                     activation=activation, seed=8))
        batch = rng.normal(size=(5, 4))
        targets = random_targets(rng, 5, 3)
        assert relative_grad_error(model, batch, targets) < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_tiny_conv_gradient_check(self, activation):
        rng = np.random.default_rng(9)
        spec = ModelSpec(input_dim=8 * 8 * 1, classes=3, hidden=(6,),
                         activation=activation, architecture="tiny-conv",
                         grid_shape=(8, 8, 1), seed=10)
        model = init_model(spec)
        batch = rng.uniform(size=(3, 8, 8, 1))
        targets = random_targets(rng, 3, 3)
        assert relative_grad_error(model, batch, targets) < 1e-4

    def test_deep_mlp_gradient_check(self):
        rng = np.random.default_rng(11)
        model = init_model(ModelSpec(input_dim=4, classes=3, hidden=(8, 6),
                                     activation="tanh", seed=12))
        batch = rng.normal(size=(5, 4))
        targets = random_targets(rng, 5, 3)
        assert relative_grad_error(model, batch, targets) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = ModelSpec(input_dim=5, classes=4, hidden=(7,), activation="tanh",
                         dropout=0.2, seed=13)
        model = init_model(spec)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_conv_round_trip(self, tmp_path):
        spec = ModelSpec(input_dim=36, classes=2, hidden=(4,),
                         architecture="tiny-conv", grid_shape=(6, 6, 1), seed=14)
        model = init_model(spec)
        path = tmp_path / "conv.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_reordered_manifest_loads_the_same_model(self, tmp_path):
        # blocks are matched by name, not by their place in the file
        model = init_model(ModelSpec(input_dim=3, classes=2, hidden=(4, 5), seed=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, blocks = read_blocks(path, CHECKPOINT_MAGIC)
        del header["blocks"]
        write_blocks(path, CHECKPOINT_MAGIC, header, dict(reversed(blocks.items())))
        assert read_blocks(path, CHECKPOINT_MAGIC)[0]["blocks"][0]["name"] == "b2"
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec and loaded.flat.tobytes() == model.flat.tobytes()

    @pytest.mark.parametrize("case", ["no spec", "no hidden", "unknown key", "null hidden",
                                      "blocks differ"])
    def test_bad_spec_names_the_file(self, tmp_path, case):
        model = init_model(ModelSpec(input_dim=3, classes=2, hidden=(4,)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, blocks = read_blocks(path, CHECKPOINT_MAGIC)
        del header["blocks"]
        spec = header["spec"]
        if case == "no spec":
            del header["spec"]
        elif case == "no hidden":
            del spec["hidden"]
        elif case == "unknown key":
            spec["width"] = 4
        elif case == "null hidden":
            spec["hidden"] = None
        else:
            spec["hidden"] = [5]
        write_blocks(path, CHECKPOINT_MAGIC, header, blocks)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("missing", [f.name for f in dataclasses.fields(ModelSpec)])
    def test_spec_without_a_field_names_it(self, tmp_path, missing):
        # every field is required: a default would load a different model silently
        model = init_model(ModelSpec(input_dim=3, classes=2, hidden=(4,), activation="tanh",
                                     dropout=0.3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header, blocks = read_blocks(path, CHECKPOINT_MAGIC)
        del header["blocks"], header["spec"][missing]
        write_blocks(path, CHECKPOINT_MAGIC, header, blocks)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: model spec lacks {missing}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block, index, value", [("w0", (0, 0), np.nan), ("b1", 1, -np.inf)])
    def test_non_finite_block_names_the_file(self, tmp_path, block, index, value):
        # a loaded model would raise only at its first predict, naming no file
        model = init_model(ModelSpec(input_dim=3, classes=2, hidden=(4,)))
        model.params[block][index] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: block '{block}' "
                                             "does not hold finite values$"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = init_model(ModelSpec(input_dim=3, classes=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
