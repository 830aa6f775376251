"""Small differentiable classifiers with hand-derived backward passes.

Two architectures: a plain MLP over feature vectors and a tiny convolutional
net for image-grid inputs (one 3x3 conv with 8 channels, relu, 2x2 average
pool, then an MLP head). The softmax head is shared. Gradients are derived
per layer; there is no autodiff. Dropout applies to fully-connected hidden
activations in train mode only, with masks drawn from an explicit rng stream
so every forward is reproducible. All parameters live in one contiguous
float64 vector, ``Model.flat``; ``Model.params`` maps each block name to a
reshaped view into it, in ``block_shapes`` order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .fileio import read_blocks, write_blocks
from .numerics import softmax

CONV_CHANNELS = 8
CHECKPOINT_MAGIC = "BSDLAB-CKPT v1"

__all__ = [
    "ModelSpec",
    "Model",
    "block_shapes",
    "init_model",
    "param_count",
    "forward",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class ModelSpec:
    input_dim: int
    classes: int
    hidden: tuple = ()
    activation: str = "relu"  # "relu" | "tanh"
    architecture: str = "mlp"  # "mlp" | "tiny-conv"
    dropout: float = 0.0
    seed: int = 0
    grid_shape: tuple | None = None  # (h, w, ch), required for tiny-conv

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.grid_shape is not None:
            self.grid_shape = tuple(int(g) for g in self.grid_shape)
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.input_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("all layer sizes must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.architecture not in ("mlp", "tiny-conv"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
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
    mode: str = "train"  # "train" | "eval"
    params: dict = field(init=False, repr=False)

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

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self

    def block_names(self):
        return list(self.params)

    def copy(self):
        return Model(self.spec, self.flat.copy(), self.mode)


def _init_limit(activation, fan_in, fan_out):
    # He-uniform for relu, Xavier-uniform for tanh.
    if activation == "relu":
        return np.sqrt(6.0 / fan_in)
    return np.sqrt(6.0 / (fan_in + fan_out))


def init_model(spec: ModelSpec) -> Model:
    """Allocate and initialize parameter blocks, deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    model = Model(spec=spec, flat=np.zeros(param_count(spec)), mode="train")
    for name, block in model.params.items():
        if block.ndim == 2:
            lim = _init_limit("relu" if name == "conv_w" else spec.activation, *block.shape)
            block[...] = rng.uniform(-lim, lim, size=block.shape)
    return model


def _activate(name, z):
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _activate_grad(name, z, a):
    if name == "relu":
        return z > 0.0  # a bool mask multiplies exactly like its 0.0/1.0 cast
    return 1.0 - a * a


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
    if batch.shape[1:] != (h, w, ch):
        raise ValueError(f"expected grid batch of shape (n, {h}, {w}, {ch}), got {batch.shape}")
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
    cache = {"patches": patches, "relu_open": relu_open,
             "oh": oh, "ow": ow, "ph": ph, "pw": pw, "n": n}
    return flat, cache


def _conv_backward(model, cache, dflat, grads):
    n, oh, ow = cache["n"], cache["oh"], cache["ow"]
    ph, pw = cache["ph"], cache["pw"]
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


def forward(model: Model, batch, rng=None):
    """Run the network on a batch; returns (probs, cache).

    ``batch`` is (n, d) for mlp or (n, h, w, ch) for tiny-conv. In train mode
    with dropout enabled, ``rng`` must be provided; eval mode is a pure
    function of (parameters, input).
    """
    batch = np.asarray(batch, dtype=np.float64)
    spec = model.spec
    train = model.mode == "train"
    use_dropout = train and spec.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout requires an rng stream")

    cache = {"layers": [], "conv": None}
    if spec.architecture == "tiny-conv":
        a, conv_cache = _conv_forward(model, batch)
        cache["conv"] = conv_cache
    else:
        if batch.ndim != 2 or batch.shape[1] != spec.input_dim:
            raise ValueError(f"expected batch of shape (n, {spec.input_dim}), got {batch.shape}")
        a = batch
    cache["head_input"] = a

    n_hidden = len(spec.hidden)
    for i in range(n_hidden):
        z = a @ model.params[f"w{i}"] + model.params[f"b{i}"]
        act = _activate(spec.activation, z)
        if use_dropout:
            mask = (rng.uniform(size=act.shape) >= spec.dropout) / (1.0 - spec.dropout)
            out = act * mask
        else:
            mask = None
            out = act
        cache["layers"].append({"input": a, "z": z, "act": act, "mask": mask})
        a = out
    logits = a @ model.params[f"w{n_hidden}"] + model.params[f"b{n_hidden}"]
    cache["logits_input"] = a
    probs = softmax(logits)
    cache["probs"] = probs
    return probs, cache


def backward(model: Model, cache, dlogits, out=None):
    """Backpropagate a gradient w.r.t. the logits; returns gradient blocks.

    For cross-entropy-through-softmax callers pass (probs - target) scaled by
    the loss normalization directly; the fused form avoids differentiating
    through the probabilities. Blocks are written into ``out`` (by default
    a fresh ``model.views(...)``); pass ``model.views(grad_flat)`` to get
    the whole gradient in the flat vector ``grad_flat``.
    """
    if "logits_input" not in cache:
        raise ValueError("stale or incomplete forward cache")
    spec = model.spec
    n_hidden = len(spec.hidden)
    grads = model.views(np.empty_like(model.flat)) if out is None else out
    a = cache["logits_input"]
    np.matmul(a.T, dlogits, out=grads[f"w{n_hidden}"])
    dlogits.sum(axis=0, out=grads[f"b{n_hidden}"])
    da = dlogits @ model.params[f"w{n_hidden}"].T
    for i in range(n_hidden - 1, -1, -1):
        layer = cache["layers"][i]
        if layer["mask"] is not None:
            da = da * layer["mask"]
        dz = da * _activate_grad(spec.activation, layer["z"], layer["act"])
        np.matmul(layer["input"].T, dz, out=grads[f"w{i}"])
        dz.sum(axis=0, out=grads[f"b{i}"])
        da = dz @ model.params[f"w{i}"].T
    if spec.architecture == "tiny-conv":
        _conv_backward(model, cache["conv"], da, grads)
    return grads


def save_checkpoint(model: Model, path):
    """Write the spec and every block as a block file; round-trips are bit-exact."""
    header = {"format_version": 1, "spec": asdict(model.spec), "seed": model.spec.seed}
    write_blocks(path, CHECKPOINT_MAGIC, header, model.params)


def load_checkpoint(path) -> Model:
    header, blocks = read_blocks(path, CHECKPOINT_MAGIC)
    if header.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
    spec_dict = dict(header["spec"])
    if spec_dict.get("grid_shape") is not None:
        spec_dict["grid_shape"] = tuple(spec_dict["grid_shape"])
    spec_dict["hidden"] = tuple(spec_dict["hidden"])
    spec = ModelSpec(**spec_dict)
    if [(n, b.shape) for n, b in blocks.items()] != block_shapes(spec):
        raise ValueError("checkpoint blocks do not match its model spec")
    return Model(spec, np.concatenate([b.ravel() for b in blocks.values()]), mode="eval")
