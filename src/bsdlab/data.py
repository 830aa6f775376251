"""Dataset construction, file ingestion, label-noise protocols, and augmentations.

Datasets hold at least one sample and are immutable after construction: noise
injection returns a copy with a fresh ``labels`` array while ``clean_labels`` is
never touched; both pass ``numerics._as_labels``. All generators and noise
protocols are pure functions of their spec and seed.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .fileio import atomic_open, read_declared, write_table
from .numerics import _as_labels
from .settings import Settings, setting

__all__ = [
    "Dataset",
    "NoiseSpec",
    "make_blobs",
    "read_idx",
    "write_idx",
    "load_idx",
    "load_csv",
    "export_csv",
    "inject_symmetric",
    "inject_asymmetric",
    "apply_noise",
    "augment_weak",
    "augment_strong",
]

IDX_UBYTE = 0x08


@dataclass
class Dataset:
    samples: np.ndarray          # (n, d) vectors or (n, h, w, ch) grids
    clean_labels: np.ndarray
    labels: np.ndarray           # active labels (post-noise); starts equal to clean
    k: int

    def __post_init__(self):
        if not self.samples.shape[0]:
            raise ValueError("no samples")
        self.clean_labels = _as_labels(self.clean_labels, self.samples.shape[0], self.k)
        self.labels = _as_labels(self.labels, self.samples.shape[0], self.k)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite sample values")

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def is_grid(self):
        return self.samples.ndim == 4

    @property
    def d(self):
        return int(np.prod(self.samples.shape[1:]))

    def with_labels(self, labels):
        return replace(self, labels=labels)


@dataclass
class NoiseSpec(Settings):
    kind: str = setting("none", lambda v: v in ("none", "symmetric", "asymmetric"),
                        "'none', 'symmetric' or 'asymmetric'")
    rate: float = setting(0.0, lambda v: 0.0 <= v <= 1.0, "in [0,1]")
    seed: int = setting(0, lambda v: v >= 0, ">= 0")

    def __post_init__(self):
        super().__post_init__()
        # kind "none" keeps the clean labels, so it would ignore the rate
        if self.kind == "none" and self.rate > 0.0:
            raise ValueError("noise.rate > 0 needs noise.kind 'symmetric' or 'asymmetric'")


def make_blobs(k, per_class, dim=2, spacing=3.0, cov_scale=1.0, seed=0):
    """Gaussian class clusters with controllable overlap.

    The centers sit on a ring of radius ``spacing`` in the first two
    dimensions, so adjacent classes overlap and confusions have structure.
    """
    if k < 2:
        raise ValueError("need at least 2 classes")
    if cov_scale <= 0.0:
        raise ValueError("degenerate covariance")
    if dim < 2:
        raise ValueError("ring centers need dim >= 2")
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = np.zeros((k, dim))
    centers[:, 0] = spacing * np.cos(angles)
    centers[:, 1] = spacing * np.sin(angles)
    rng = np.random.default_rng(seed)
    samples = np.empty((k * per_class, dim))
    labels = np.repeat(np.arange(k), per_class)
    for j in range(k):
        block = rng.normal(0.0, np.sqrt(cov_scale), size=(per_class, dim))
        samples[j * per_class:(j + 1) * per_class] = centers[j] + block
    return Dataset(samples=samples, clean_labels=labels, labels=labels.copy(), k=k)


def read_idx(path):
    """Parse one IDX file (unsigned-byte payload) into an ndarray."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if len(magic) != 4 or magic[0] != 0 or magic[1] != 0:
            raise ValueError(f"bad IDX magic in {path}")
        dtype_code, ndim = magic[2], magic[3]
        if dtype_code != IDX_UBYTE:
            raise ValueError(f"unsupported IDX data type 0x{dtype_code:02x} in {path}")
        dims = []
        for _ in range(ndim):
            raw = fh.read(4)
            if len(raw) != 4:
                raise ValueError(f"truncated IDX header in {path}")
            dims.append(struct.unpack(">I", raw)[0])
        payload = read_declared(fh, math.prod(dims), f"truncated IDX payload in {path}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def write_idx(path, array):
    """Atomically write an unsigned-byte ndarray in IDX layout (big-endian dims)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    with atomic_open(path) as fh:
        fh.write(bytes([0, 0, IDX_UBYTE, arr.ndim]))
        for dim in arr.shape:
            fh.write(struct.pack(">I", dim))
        fh.write(arr.tobytes())


def load_idx(images_path, labels_path):
    """Load an IDX image file plus its IDX label file as one Dataset.

    Pixels are scaled to [0, 1]; images become (n, h, w, 1) grids.
    """
    images = read_idx(images_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: expected 3-dimensional IDX image file, got {images.ndim} dims")
    labels = read_idx(labels_path)
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: expected 1-dimensional IDX label file, got {labels.ndim} dims")
    if labels.shape[0] != images.shape[0]:
        raise ValueError(f"{labels_path}: IDX image/label counts differ from {images_path}")
    if not labels.size:
        raise ValueError(f"{images_path}: no samples")
    samples = images.astype(np.float64)[..., None]
    samples /= 255.0  # in place: one float copy of the pixels, not two
    labels = labels.astype(np.int64)
    return Dataset(samples=samples, clean_labels=labels, labels=labels.copy(),
                   k=max(int(labels.max()) + 1, 2))


def load_csv(path, label_column="label"):
    """Load a header-bearing UTF-8 CSV, one labeled sample per row; a leading byte-order
    mark is skipped, and a bad byte reads as U+FFFD."""
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: no samples")
    header = rows[0]
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in CSV header")
    label_idx = header.index(label_column)
    feat_idx = [j for j in range(len(header)) if j != label_idx]
    samples = np.empty((len(rows) - 1, len(feat_idx)))
    labels = np.empty(len(rows) - 1, dtype=np.int64)
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ValueError(f"{path}: CSV row {i + 2} has {len(row)} fields, header has {len(header)}")
        j = label_idx
        try:
            labels[i] = int(row[j])
            for c, j in enumerate(feat_idx):
                samples[i, c] = float(row[j])
        except (ValueError, OverflowError):  # an integer label beyond int64 overflows
            raise ValueError(f"{path}: CSV row {i + 2}, column {header[j]!r}: {row[j]!r} is not "
                             f"{'an integer label' if j == label_idx else 'a number'}") from None
        if labels[i] < 0:
            raise ValueError(f"{path}: CSV row {i + 2}, column {label_column!r}: "
                             f"label out of range: {labels[i]} < 0")
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        i, j = bad[0][0], feat_idx[bad[0][1]]
        raise ValueError(f"{path}: CSV row {i + 2}, column {header[j]!r}: {rows[i + 1][j]!r} "
                         "is not a finite number")
    return Dataset(samples=samples, clean_labels=labels, labels=labels.copy(),
                   k=max(int(labels.max()) + 1, 2))


def export_csv(dataset: Dataset, path):
    """Write a vector dataset to CSV; floats use repr so re-import is exact."""
    if dataset.is_grid:
        raise ValueError("CSV export handles vector datasets only; use write_idx for grids")
    header = [f"x{j}" for j in range(dataset.samples.shape[1])] + ["label"]
    write_table(path, header, [dataset.samples, dataset.labels], newline="\r\n")


def inject_symmetric(labels, rate, k, seed):
    """Reassign exactly round(rate*n) labels, each to a different random class.

    Flips are guaranteed (the new class is drawn from the other k-1), so the
    realized noise rate equals the nominal rate.
    """
    if k < 2:
        raise ValueError(f"symmetric noise needs k >= 2; k = {k} has no other class "
                         "to flip a label to")
    labels = _as_labels(labels, None, k)
    n = labels.shape[0]
    n_flip = int(round(rate * n))
    rng = np.random.default_rng(seed)
    noisy = labels.copy()
    if n_flip == 0:
        return noisy
    chosen = rng.choice(n, size=n_flip, replace=False)
    offsets = rng.integers(1, k, size=n_flip)
    noisy[chosen] = (labels[chosen] + offsets) % k
    return noisy


def inject_asymmetric(labels, rate, k, seed):
    """Per class j, relabel round(rate * class_count) of its samples to (j + 1) mod k."""
    if k < 2:
        raise ValueError(f"asymmetric noise needs k >= 2; k = {k} maps class 0 to itself, "
                         "a fixed point")
    labels = _as_labels(labels, None, k)
    rng = np.random.default_rng(seed)
    noisy = labels.copy()
    for src in range(k):
        members = np.flatnonzero(labels == src)
        n_flip = int(round(rate * members.size))
        if n_flip == 0:
            continue
        chosen = rng.choice(members, size=n_flip, replace=False)
        noisy[chosen] = (src + 1) % k
    return noisy


def apply_noise(dataset: Dataset, spec: NoiseSpec) -> Dataset:
    """Return a copy of the dataset with active labels noised per the spec."""
    if spec.kind == "none" or spec.rate == 0.0:
        return dataset.with_labels(dataset.clean_labels.copy())
    inject = inject_symmetric if spec.kind == "symmetric" else inject_asymmetric
    return dataset.with_labels(inject(dataset.clean_labels, spec.rate, dataset.k, spec.seed))


def _jitter(batch, rng, sigma):
    if sigma == 0.0:
        return batch.copy()
    return batch + rng.normal(0.0, sigma, size=batch.shape)


def _crop_flip(batch, rng):
    """Pad-4-and-crop plus horizontal flip, drawn per sample."""
    pad = 4
    n, h, w, ch = batch.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = np.zeros((n, hp, wp, ch))
    padded[:, pad:pad + h, pad:pad + w] = batch
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.uniform(size=n) < 0.5
    # output pixel (i, y, x) reads padded pixel (i, oy + y, ox + x), or (i, oy + y, ox + w-1-x)
    rows = np.arange(n)[:, None] * hp + offs[:, :1] + np.arange(h)
    cols = offs[:, 1:] + np.where(flips[:, None], np.arange(w - 1, -1, -1), np.arange(w))
    return padded.reshape(n * hp * wp, ch).take(rows[:, :, None] * wp + cols[:, None, :], axis=0)


def _erase(batch, rng, frac):
    """Zero out one random square patch per sample (side = round(frac * min(h, w)); a
    side of 0 erases nothing, though the patch corners are still drawn)."""
    n, h, w, _ = batch.shape
    side = int(round(frac * min(h, w)))
    ys = rng.integers(0, h - side + 1, size=n)
    xs = rng.integers(0, w - side + 1, size=n)
    in_rows = (np.arange(h) >= ys[:, None]) & (np.arange(h) < ys[:, None] + side)
    in_cols = (np.arange(w) >= xs[:, None]) & (np.arange(w) < xs[:, None] + side)
    out = batch.copy()
    out[in_rows[:, :, None] & in_cols[:, None, :]] = 0.0
    return out


def augment_weak(batch, rng, jitter_sigma):
    """Weak view: pad-4 crop + horizontal flip for grids, light jitter for vectors."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 4:
        return _crop_flip(batch, rng)
    return _jitter(batch, rng, jitter_sigma)


def augment_strong(batch, rng, jitter_sigma, erase_frac):
    """Strong view: the weak transform plus square erasure and amplified jitter."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 4:
        out = _crop_flip(batch, rng)
        out = _erase(out, rng, erase_frac)
        return _jitter(out, rng, jitter_sigma)
    return _jitter(batch, rng, jitter_sigma)
