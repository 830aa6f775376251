"""Small differentiable classifiers with hand-derived backward passes.

Two architectures: a plain MLP over feature vectors and a tiny convolutional
net for image-grid inputs (one 3x3 conv with 8 channels, relu, 2x2 average
pool, then an MLP head). The softmax head is shared. Gradients are derived
per layer; there is no autodiff. Dropout applies to fully-connected hidden
activations in the training pass only, with masks drawn from an explicit rng
stream so every forward is reproducible. All parameters live in one contiguous
float64 vector, ``Model.flat``; ``Model.params`` maps each block name to a
reshaped view into it, in ``block_shapes`` order.

``forward`` is the training pass: it keeps the activations ``backward``
needs. ``predict`` is the only eval pass, over a whole set: it keeps nothing.
Both run one dense-layer loop in buffer sets of one layout (``_buffers``) that
the model keeps between calls (``Model.scratch``): one training set per batch
row count, and one eval set for the latest row count, which ``predict`` fills
in row slices (``_slice_bounds``). A ``forward`` cache is its set, valid only
until the next ``forward`` on the model at that row count; ``backward`` refuses
a cache a later pass has overwritten.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .fileio import check_blocks, read_blocks, write_blocks
from .numerics import _all_finite, softmax
from .settings import Settings, setting

CONV_CHANNELS = 8
# Bytes of the widest array of one ``predict`` slice (``_slice_rows``): 64 grids'
# conv patches at 12 x 12 x 1, or 2048 rows of a 32-wide hidden layer.
SLICE_BYTES = 1 << 19
CHECKPOINT_MAGIC = "BSDLAB-CKPT v1"

__all__ = [
    "ModelSpec",
    "Model",
    "block_shapes",
    "init_model",
    "param_count",
    "forward",
    "predict",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class ModelSpec(Settings):
    input_dim: int
    classes: int
    hidden: tuple = setting((), lambda v: all(type(h) is int and h >= 1 for h in v),
                            "a list of positive integers", config_default=[32, 32])
    activation: str = setting("relu", lambda v: v in ("relu", "tanh"), "'relu' or 'tanh'")
    architecture: str = setting("mlp", lambda v: v in ("mlp", "tiny-conv"),
                                "'mlp' or 'tiny-conv'")
    dropout: float = setting(0.0, lambda v: 0.0 <= v < 1.0, "in [0, 1)", config_default=0.1)
    seed: int = 0
    grid_shape: tuple | None = None  # (h, w, ch), required for tiny-conv

    def __post_init__(self):
        super().__post_init__()
        self.hidden = tuple(self.hidden)
        if self.grid_shape is not None:
            self.grid_shape = tuple(int(g) for g in self.grid_shape)
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.architecture == "tiny-conv":
            if self.grid_shape is None or len(self.grid_shape) != 3:
                raise ValueError("tiny-conv requires grid_shape=(h, w, ch)")
            h, w, ch = self.grid_shape
            if h < 4 or w < 4:
                raise ValueError("tiny-conv needs grids of at least 4x4")
            if h * w * ch != self.input_dim:
                raise ValueError("grid_shape does not match input_dim")

    def head_input_dim(self):
        """Width of the first fully-connected layer's input."""
        if self.architecture == "mlp":
            return self.input_dim
        h, w, _ = self.grid_shape
        return ((h - 2) // 2) * ((w - 2) // 2) * CONV_CHANNELS


def block_shapes(spec: ModelSpec):
    """(name, shape) of every parameter block, in storage order."""
    shapes = []
    if spec.architecture == "tiny-conv":
        shapes += [("conv_w", (9 * spec.grid_shape[2], CONV_CHANNELS)),
                   ("conv_b", (CONV_CHANNELS,))]
    widths = [spec.head_input_dim(), *spec.hidden, spec.classes]
    for i in range(len(widths) - 1):
        shapes += [(f"w{i}", (widths[i], widths[i + 1])), (f"b{i}", (widths[i + 1],))]
    return shapes


def param_count(spec: ModelSpec) -> int:
    return sum(math.prod(shape) for _, shape in block_shapes(spec))


@dataclass
class Model:
    spec: ModelSpec
    flat: np.ndarray
    params: dict = field(init=False, repr=False)
    # working memory, never saved or compared: ("forward", n) -> the training pass's
    # set for n rows, "predict" -> the eval pass's set (both ``_buffers``);
    # "view_grad" -> ``training.contrastive_term``'s gradient vector
    scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flat.shape != (param_count(self.spec),) or not self.flat.flags.c_contiguous:
            raise ValueError("flat must be one contiguous vector holding every parameter")
        self.params = self.views(self.flat)

    def views(self, flat):
        """Block name -> reshaped view into ``flat``, a vector laid out like ``self.flat``."""
        out, pos = {}, 0
        for name, shape in block_shapes(self.spec):
            size = math.prod(shape)
            out[name] = flat[pos:pos + size].reshape(shape)
            pos += size
        return out


def _init_limit(activation, fan_in, fan_out):
    # He-uniform for relu, Xavier-uniform for tanh.
    if activation == "relu":
        return np.sqrt(6.0 / fan_in)
    return np.sqrt(6.0 / (fan_in + fan_out))


def init_model(spec: ModelSpec) -> Model:
    """Allocate and initialize parameter blocks, deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    model = Model(spec=spec, flat=np.zeros(param_count(spec)))
    for name, block in model.params.items():
        if block.ndim == 2:
            lim = _init_limit("relu" if name == "conv_w" else spec.activation, *block.shape)
            block[...] = rng.uniform(-lim, lim, size=block.shape)
    return model


def _activate(name, z, out=None):
    return np.maximum(z, 0.0, out=out) if name == "relu" else np.tanh(z, out=out)


def _activate_grad(name, a, out):
    if name == "relu":  # a > 0 equals z > 0, -0.0 and NaN included
        return np.greater(a, 0.0, out=out)  # a bool or 0.0/1.0 gate multiplies alike
    g = np.multiply(a, a, out=out)
    return np.subtract(1.0, g, out=g)


@functools.lru_cache(maxsize=None)
def _dense_names(n_hidden):
    """(weight, bias) block names of every dense layer, the logits layer last."""
    return tuple((f"w{i}", f"b{i}") for i in range(n_hidden + 1))


@functools.lru_cache(maxsize=None)
def _patch_index(h, w, ch):
    y, x, ky, kx, c = np.ogrid[:h - 2, :w - 2, :3, :3, :ch]
    idx = (((y + ky) * w + (x + kx)) * ch + c).ravel()
    idx.flags.writeable = False
    return idx


def _conv_forward(model, batch):
    """3x3 valid convolution via im2col, relu, 2x2 average pool, flatten."""
    h, w, ch = model.spec.grid_shape
    n = batch.shape[0]
    oh, ow = h - 2, w - 2
    # patch row (i, y, x) holds the 3x3 window at (y, x); columns ordered (ky, kx, ch)
    patches = batch.reshape(n, h * w * ch).take(_patch_index(h, w, ch), axis=1)
    patches = patches.reshape(n * oh * ow, 9 * ch)
    z = patches @ model.params["conv_w"]
    # the bias tiled over one image's rows: one long add per image, not one per row
    per_image = z.reshape(n, oh * ow * CONV_CHANNELS)
    per_image += np.tile(model.params["conv_b"], oh * ow)
    relu_open = z > 0.0
    a = np.maximum(z, 0.0, out=z).reshape(n, oh, ow, CONV_CHANNELS)
    # 2x2 mean in the order numpy's mean(axis=(2, 4)) adds: ((a00 + a01) + a10) + a11;
    # an odd last row or column is dropped
    ph, pw = oh // 2, ow // 2
    pooled = a[:, 0:2 * ph:2, 0:2 * pw:2] + a[:, 0:2 * ph:2, 1:2 * pw:2]
    pooled += a[:, 1:2 * ph:2, 0:2 * pw:2]
    pooled += a[:, 1:2 * ph:2, 1:2 * pw:2]
    pooled /= 4.0
    flat = pooled.reshape(n, ph * pw * CONV_CHANNELS)
    return flat, {"patches": patches, "relu_open": relu_open}


def _conv_backward(model, cache, dflat, grads):
    h, w, _ = model.spec.grid_shape
    oh, ow = h - 2, w - 2
    ph, pw = oh // 2, ow // 2
    n = cache["patches"].shape[0] // (oh * ow)
    # Each pooled cell spreads its gradient evenly over its 2x2 source block;
    # rows/cols truncated by the pool get zero gradient.
    da = (np.zeros if oh % 2 or ow % 2 else np.empty)((n, oh, ow, CONV_CHANNELS))
    # splitting the axes of a strided view never copies, so ``blocks`` writes into ``da``
    blocks = da[:, :2 * ph, :2 * pw].reshape(n, ph, 2, pw, 2, CONV_CHANNELS)
    np.divide(dflat.reshape(n, ph, 1, pw, 1, CONV_CHANNELS), 4.0, out=blocks)
    dz = da.reshape(n * oh * ow, CONV_CHANNELS)
    dz *= cache["relu_open"]
    np.matmul(cache["patches"].T, dz, out=grads["conv_w"])
    # adds row by row from 0.0, the order of dz.sum(axis=0), with a cheaper inner loop
    np.einsum("ij->j", dz, out=grads["conv_b"])


def _check_batch(spec, batch):
    shape = spec.grid_shape if spec.architecture == "tiny-conv" else (spec.input_dim,)
    if batch.shape[1:] != shape:
        raise ValueError(f"expected batch of shape (n, {', '.join(map(str, shape))}), "
                         f"got {batch.shape}")


def _head_input(model, batch):
    """(input of the first dense layer, conv cache or None) for a checked float64 batch."""
    if model.spec.architecture == "mlp":
        return batch, None
    return _conv_forward(model, batch)


def _slice_rows(spec):
    """Rows per ``predict`` slice: the most, a multiple of 16 and at least 16, whose
    widest array fits ``SLICE_BYTES``: a hidden layer's output or the conv patches.

    OpenBLAS dgemm kernels run a product's rows in blocks and can sum a short last
    block in another order (Haswell its last row when the count is odd, Nehalem its
    last count % 4 rows). Slices of a multiple of 16 rows, and for tiny-conv of 16
    images, start every product on a multiple of 16 rows, a multiple of each such
    block. Such slices keep the bits of the hidden layers' products, though not of
    the logits product (see ``predict``)."""
    widths = list(spec.hidden)
    if spec.architecture == "tiny-conv":
        h, w, ch = spec.grid_shape
        widths.append((h - 2) * (w - 2) * 9 * ch)
    return max(16, SLICE_BYTES // (8 * max(widths, default=1)) // 16 * 16)


def _slice_bounds(spec, n):
    """(start, stop) of each ``predict`` slice of n rows: ``_slice_rows`` rows each, but
    numpy multiplies a one-row matrix as a vector (gemv), which sums in another order
    than gemm, so a lone last row joins the slice before it."""
    starts = list(range(0, n, _slice_rows(spec)))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _buffers(model, n, train):
    """A pass's memory for n rows in ``model.scratch``: ``layers``, a dict of arrays per
    hidden layer, and the ``logits``.

    A training set (``("forward", n)``) gives each layer n rows of ``h`` (matmul, bias
    and activation in place), ``backward``'s ``da`` and float ``gate`` (a bool one is
    cast through a fresh buffer), and with dropout the ``mask`` and ``masked``
    activation. The eval set (``"predict"``, latest n only) gives each layer ``h``
    alone, of one slice's rows but n for the last, the logits product's input: a
    tiny-conv with no hidden layer keeps its conv output there, an MLP with none
    keeps no layer."""
    key = ("forward", n) if train else "predict"
    bufs = model.scratch.get(key)
    if bufs is None or bufs["logits"].shape[0] != n:
        model.scratch.pop(key, None)  # free the old eval set before building the new one
        spec = model.spec
        widths = list(spec.hidden)
        if train:
            names = ("h", "da", "gate") + (("mask", "masked") if spec.dropout > 0.0 else ())
            rows = [n] * len(widths)
        else:
            names = ("h",)
            if spec.architecture == "tiny-conv" and not widths:
                widths = [spec.head_input_dim()]
            most = max((stop - start for start, stop in _slice_bounds(spec, n)), default=0)
            rows = [most] * (len(widths) - 1) + [n]
        layers = [{name: np.empty((r, w)) for name in names} for r, w in zip(rows, widths)]
        bufs = {"layers": layers, "logits": np.empty((n, spec.classes))}
        model.scratch[key] = bufs
    return bufs


def _dense(model, a, layers, rng):
    """The hidden layers on ``a``, each into its ``layers`` entry; returns the input
    of the logits product: the last hidden output (masked under dropout), or ``a``."""
    spec = model.spec
    for (w, b), layer in zip(_dense_names(len(spec.hidden)), layers):
        h = np.matmul(a, model.params[w], out=layer["h"])
        if "gate" in layer:
            # numpy buffers a broadcast operand afresh per call, so a training set adds
            # b tiled into the gate, which backward overwrites before it reads it
            np.copyto(layer["gate"], model.params[b])
            h += layer["gate"]
        else:  # an eval set keeps no gate
            h += model.params[b]
        _activate(spec.activation, h, out=h)
        a = h
        if "mask" in layer:  # (rng.uniform(size=...) >= p) / (1 - p), bit for bit
            mask = rng.random(out=layer["mask"])
            np.greater_equal(mask, spec.dropout, out=mask)
            mask /= 1.0 - spec.dropout
            a = np.multiply(h, mask, out=layer["masked"])
    return a


def _logits(model, a, out):
    w, b = _dense_names(len(model.spec.hidden))[-1]
    logits = np.matmul(a, model.params[w], out=out)
    logits += model.params[b]
    return logits


def forward(model: Model, batch, rng=None, out=None):
    """The training pass on a batch; returns (probs, cache) for ``backward``.

    ``batch`` is (n, d) for mlp or (n, h, w, ch) for tiny-conv. Dropout runs
    whenever ``spec.dropout > 0``, with masks drawn from ``rng``, which is
    needed only then. The probabilities go into ``out``, an (n, classes)
    array, when given, and into a fresh array otherwise. The dense layers
    run in the model's training set for n rows (``_buffers``). The cache is
    that set with the head input, the conv cache and the set's stamp: the
    next ``forward`` on this model at n rows overwrites the set, and
    ``backward`` then refuses this cache. Evaluation goes through ``predict``.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if model.spec.dropout > 0.0 and rng is None:
        raise ValueError("forward with dropout requires an rng stream")
    _check_batch(model.spec, batch)
    a, conv_cache = _head_input(model, batch)
    bufs = _buffers(model, batch.shape[0], train=True)
    bufs["stamp"] = bufs.get("stamp", 0) + 1  # counts the forwards run in this set
    cache = {"input": a, "conv": conv_cache, "buffers": bufs, "stamp": bufs["stamp"]}
    logits = _logits(model, _dense(model, a, bufs["layers"], rng), bufs["logits"])
    return softmax(logits, out=out), cache


def predict(model: Model, batch):
    """The eval pass: class probabilities for ``batch``, with no dropout.

    Builds no cache and draws nothing; the output, a fresh array, is bit for bit
    that of ``forward`` on the same parameters with dropout 0, through the same
    dense loop (``_dense``). The tiny-conv front end and the hidden layers run
    per ``_slice_bounds`` slice, which keeps their bits, in the model's eval set
    (``_buffers``). The logits product reads the last layer's n rows in one call:
    its narrow output (k columns) changes in its last bits when its rows are split.
    """
    batch = np.asarray(batch, dtype=np.float64)
    spec = model.spec
    _check_batch(spec, batch)
    n = batch.shape[0]
    bufs = _buffers(model, n, train=False)
    if not bufs["layers"]:  # an MLP with no hidden layer: the logits read the batch
        return softmax(_logits(model, batch, bufs["logits"]))
    *kept, whole = (layer["h"] for layer in bufs["layers"])
    for start, stop in _slice_bounds(spec, n):
        a, _ = _head_input(model, batch[start:stop])
        if spec.hidden:
            layers = [{"h": h[:stop - start]} for h in kept] + [{"h": whole[start:stop]}]
            _dense(model, a, layers, None)
        else:  # a tiny-conv with no hidden layer: the logits read the conv output
            whole[start:stop] = a
    return softmax(_logits(model, whole, bufs["logits"]))


def backward(model: Model, cache, dlogits, out=None):
    """Backpropagate a gradient w.r.t. the logits; returns gradient blocks.

    For cross-entropy-through-softmax callers pass (probs - target) scaled by
    the loss normalization directly; the fused form avoids differentiating
    through the probabilities. Blocks are written into ``out`` (by default
    a fresh ``model.views(...)``); pass ``model.views(grad_flat)`` to get
    the whole gradient in the flat vector ``grad_flat``. The layer inputs
    and hidden gradients live in the cache's set; a cache whose set a later
    ``forward`` has overwritten raises ``ValueError``.
    """
    if "stamp" not in cache or cache["stamp"] != cache["buffers"]["stamp"]:
        raise ValueError("stale or incomplete forward cache")
    spec = model.spec
    layers = cache["buffers"]["layers"]
    n_hidden = len(spec.hidden)
    grads = model.views(np.empty_like(model.flat)) if out is None else out
    conv = spec.architecture == "tiny-conv"
    names = _dense_names(n_hidden)
    da = dlogits  # the gradient w.r.t. dense layer i's output
    for i in range(n_hidden, -1, -1):
        w, b = names[i]
        if i < n_hidden:  # back through hidden layer i's dropout and activation
            layer = layers[i]
            if "mask" in layer:
                da *= layer["mask"]
            da *= _activate_grad(spec.activation, layer["h"], out=layer["gate"])
        below = layers[i - 1] if i else None
        a = cache["input"] if below is None else below.get("masked", below["h"])
        np.matmul(a.T, da, out=grads[w])
        np.add.reduce(da, axis=0, out=grads[b])
        if below is not None:
            da = np.matmul(da, model.params[w].T, out=below["da"])
        elif conv:  # an MLP's input gradient is never used; the conv front end's is fresh
            da = da @ model.params[w].T
    if conv:
        _conv_backward(model, cache["conv"], da, grads)
    return grads


def save_checkpoint(model: Model, path):
    """Write the spec and every block as a block file; round-trips are bit-exact."""
    header = {"format_version": 1, "spec": asdict(model.spec), "seed": model.spec.seed}
    write_blocks(path, CHECKPOINT_MAGIC, header, model.params)


def load_checkpoint(path) -> Model:
    """Read a ``save_checkpoint`` file; a header or blocks that do not make a
    model, non-finite values included, raise ``ValueError("<path>: ...")``."""
    header, blocks = read_blocks(path, CHECKPOINT_MAGIC)
    if header.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    spec_dict = header.get("spec")
    if not isinstance(spec_dict, dict):
        raise ValueError(f"{path}: header holds no model spec")
    missing = [f.name for f in fields(ModelSpec) if f.name not in spec_dict]
    if missing:
        raise ValueError(f"{path}: model spec lacks {', '.join(missing)}")
    try:
        spec = ModelSpec(**spec_dict)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model spec: {exc}") from None
    shapes = block_shapes(spec)
    check_blocks(path, blocks, {name: (shape, _all_finite, "finite values")
                                for name, shape in shapes})
    return Model(spec, np.concatenate([blocks[name].ravel() for name, _ in shapes]))
