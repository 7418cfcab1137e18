"""Datasets: synthetic generators, IDX-format digit images, split handling.

Features handed to training are kept at unit scale (order-1 values inside
the unit box) by fixed affine maps chosen per generator, never by
data-dependent rescaling; the construction is recorded in the handle's
metadata so evaluations can undo it exactly.  All generators draw from a
counter-based stream keyed by the dataset seed, so a dataset spec plus a
seed pins every byte.

The on-disk image format is IDX (the classic digit-image container):
big-endian magic 0x00000803 for uint8 image tensors and 0x00000801 for
label vectors, followed by big-endian uint32 dimensions and the raw
payload.  A deterministic stroke renderer can synthesize digit images into
this format when no corpus is available.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

_DATA_STREAM = 0xDA7A


@dataclass
class DatasetHandle:
    """Features, labels, and disjoint split indices.

    Attributes:
        features: (n, d) float64 at unit scale.
        labels: (n,) integer class labels.
        train_idx / val_idx / test_idx: disjoint index arrays into rows.
        metadata: string map documenting provenance and feature scaling.
    """

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if y.shape != (f.shape[0],):
            raise ValueError(
                f"labels must have shape ({f.shape[0]},), got {y.shape}"
            )
        self.features = f
        self.labels = y
        splits = []
        for name in ("train_idx", "val_idx", "test_idx"):
            idx = np.asarray(getattr(self, name), dtype=np.int64)
            if idx.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if idx.size and (idx.min() < 0 or idx.max() >= f.shape[0]):
                raise ValueError(f"{name} holds out-of-range indices")
            setattr(self, name, idx)
            splits.append(idx)
        joined = np.concatenate(splits)
        if np.unique(joined).size != joined.size:
            raise ValueError("train/val/test splits overlap")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The read-only feature rows and labels of the named split.

        A split whose indices are one ascending run of rows, as every IDX
        split is, is a view of `features` and `labels`; any other split
        (the permuted synthetic ones) is gathered into a copy.  Either way
        the rows equal `features[idx]` bit for bit, and writing to them
        raises ValueError.
        """
        idx = {"train": self.train_idx, "val": self.val_idx,
               "test": self.test_idx}[name]
        rows = idx
        if np.all(np.diff(idx) == 1):
            start = int(idx[0]) if idx.size else 0
            rows = slice(start, start + idx.size)
        x, y = self.features[rows], self.labels[rows]
        x.flags.writeable = False
        y.flags.writeable = False
        return x, y


def _make_splits(n: int, rng: Rng):
    """A 70/10/20 train/validation/test split of a permutation of n rows."""
    order = rng.permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.1 * n))
    return (order[:n_train], order[n_train : n_train + n_val],
            order[n_train + n_val :])


# -------------------------------------------------------------- generators


def gauss_mixture(n: int, noise: float, seed: int, classes: int = 4,
                  dim: int = 8) -> DatasetHandle:
    """Isotropic Gaussian blobs at fixed means inside the unit box.

    Class c has mean 0.2 everywhere except coordinate c, which is 0.8, so
    every pair of means sits at distance 0.6 * sqrt(2) ~ 0.849; `noise` is
    the per-coordinate standard deviation in those same feature units
    (0.14 puts neighbors about six sigma apart).

    Args:
        n: total sample count, spread over classes as evenly as possible.
        noise: isotropic standard deviation; must be nonnegative.
        seed: dataset seed.
        classes: number of blobs, at most `dim`.
        dim: feature dimension.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if noise < 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    if not 2 <= classes <= dim:
        raise ValueError(f"need 2 <= classes <= dim, got {classes} and {dim}")
    rng = Rng(seed, stream=_DATA_STREAM)
    means = np.full((classes, dim), 0.2)
    means[np.arange(classes), np.arange(classes)] = 0.8
    labels = np.arange(n) % classes
    feats = means[labels] + noise * rng.normal((n, dim))
    train_idx, val_idx, test_idx = _make_splits(n, rng)
    handle = DatasetHandle(
        features=feats, labels=labels,
        train_idx=train_idx, val_idx=val_idx, test_idx=test_idx,
        metadata={
            "kind": "gauss_mixture",
            "n": str(n), "noise": repr(noise), "seed": str(seed),
            "classes": str(classes), "dim": str(dim),
            "mean_separation": repr(0.6 * np.sqrt(2.0)),
            "feature_scaling": "fixed means in the unit box; no rescaling",
        },
    )
    return handle


def two_moons(n: int, noise: float, seed: int) -> DatasetHandle:
    """Two interleaved half-circle arcs mapped affinely into the unit box.

    Canonical arcs before the affine map: class 0 is (cos t, sin t) and
    class 1 is (1 - cos t, 0.5 - sin t) for t in [0, pi].  The fixed map
    x' = (x + 1) / 3, y' = (y + 0.5) / 1.5 places both in [0, 1]^2; its
    constants live in the metadata so geometric checks can undo it.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if noise < 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    rng = Rng(seed, stream=_DATA_STREAM)
    n0 = n // 2 + n % 2
    n1 = n // 2
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    arc0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    arc1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    pts = np.concatenate([arc0, arc1], axis=0)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64),
                             np.ones(n1, dtype=np.int64)])
    if noise > 0.0:
        pts = pts + noise * rng.normal(pts.shape)
    feats = np.empty_like(pts)
    feats[:, 0] = (pts[:, 0] + 1.0) / 3.0
    feats[:, 1] = (pts[:, 1] + 0.5) / 1.5
    train_idx, val_idx, test_idx = _make_splits(n, rng)
    return DatasetHandle(
        features=feats, labels=labels,
        train_idx=train_idx, val_idx=val_idx, test_idx=test_idx,
        metadata={
            "kind": "two_moons",
            "n": str(n), "noise": repr(noise), "seed": str(seed),
            "affine": "x0=(u+1)/3, x1=(v+0.5)/1.5 from canonical arcs",
            "feature_scaling": "fixed affine into the unit box",
        },
    )


# ------------------------------------------------------------------ idx io


def write_idx(path, array) -> None:
    """Write a uint8 tensor in IDX format (big-endian dims, raw payload)."""
    a = np.asarray(array)
    if a.dtype != np.uint8:
        raise ValueError(f"IDX writer handles uint8 only, got {a.dtype}")
    if a.ndim not in (1, 3):
        raise ValueError(f"expected labels (1-D) or images (3-D), got {a.ndim}-D")
    magic = IDX_MAGIC_LABELS if a.ndim == 1 else IDX_MAGIC_IMAGES
    with open(path, "wb") as fh:
        fh.write(int(magic).to_bytes(4, "big"))
        for d in a.shape:
            fh.write(int(d).to_bytes(4, "big"))
        fh.write(a.tobytes())


def read_idx(path) -> np.ndarray:
    """Read one IDX file, validating magic, dimensions, and payload size.

    Raises:
        ValueError: on any malformed content, naming the byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise ValueError(f"{path}: truncated magic at byte 0 (file has {len(blob)} bytes)")
    magic = int.from_bytes(blob[:4], "big")
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise ValueError(
            f"{path}: bad magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{IDX_MAGIC_IMAGES:08x} or 0x{IDX_MAGIC_LABELS:08x})"
        )
    header_end = 4 + 4 * ndim
    if len(blob) < header_end:
        raise ValueError(f"{path}: truncated dimension header at byte {len(blob)}")
    dims = [int.from_bytes(blob[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    expect = header_end + math.prod(dims)
    if len(blob) != expect:
        raise ValueError(
            f"{path}: payload ends at byte {len(blob)}, expected {expect} "
            f"for dims {tuple(dims)}"
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=header_end).reshape(dims).copy()


def _labels_path_for(images_path: str) -> str:
    base = os.path.basename(images_path)
    if "images" not in base:
        raise ValueError(
            f"{images_path}: cannot derive a labels file (no 'images' in the name)"
        )
    return os.path.join(os.path.dirname(images_path), base.replace("images", "labels"))


def _pair_to_arrays(images_path, labels_path):
    """The uint8 images, flattened to rows, and int64 labels of an IDX
    pair, with the image shape."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise ValueError(f"{images_path}: expected an image tensor")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: expected a label vector")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {images.shape[0]} images in "
            f"{images_path} vs {labels.shape[0]} labels in {labels_path}"
        )
    if labels.size and labels.max() > 9:
        raise ValueError(
            f"{labels_path}: label {int(labels.max())} out of range [0, 9]"
        )
    return (images.reshape(images.shape[0], -1), labels.astype(np.int64),
            images.shape[1:])


def load_idx(path) -> DatasetHandle:
    """Build a dataset from IDX files.

    `path` may be a directory holding the conventional quadruple
    (train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
    t10k-labels-idx1-ubyte), in which case the t10k pair becomes the test
    split and the last tenth of the training rows become validation; or a
    single images file whose labels file is found by substituting 'labels'
    for 'images' in the name, split 80/10/10 in row order.

    Every image set is divided by 255 straight into its rows of one
    preallocated C-contiguous float64 array (`np.divide(..., out=)`, the
    bits of `astype(np.float64) / 255.0`), so no split is ever held as a
    float64 array of its own.  Each split is one ascending run of rows,
    which `DatasetHandle.split` hands out as a view.
    """
    if os.path.isdir(path):
        names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
        paths = [os.path.join(path, n) for n in names]
        for p in paths:
            if not os.path.exists(p):
                raise ValueError(f"{path}: missing expected IDX file {os.path.basename(p)}")
        tr_images, tr_labels, shape = _pair_to_arrays(paths[0], paths[1])
        te_images, te_labels, shape2 = _pair_to_arrays(paths[2], paths[3])
        if shape != shape2:
            raise ValueError(
                f"{path}: train images are {shape} but test images are {shape2}"
            )
        image_sets = [tr_images, te_images]
        labels = np.concatenate([tr_labels, te_labels])
        n_tr = tr_images.shape[0]
        n = n_tr + te_images.shape[0]
        n_val = n_tr // 10
        train_idx = np.arange(0, n_tr - n_val)
        val_idx = np.arange(n_tr - n_val, n_tr)
        test_idx = np.arange(n_tr, n)
    else:
        images, labels, shape = _pair_to_arrays(path, _labels_path_for(path))
        image_sets = [images]
        n = images.shape[0]
        n_tr = int(round(0.8 * n))
        n_val = int(round(0.1 * n))
        train_idx = np.arange(0, n_tr)
        val_idx = np.arange(n_tr, n_tr + n_val)
        test_idx = np.arange(n_tr + n_val, n)
    feats = np.empty((n, math.prod(shape)))
    start = 0
    for images in image_sets:
        stop = start + images.shape[0]
        np.divide(images, 255.0, out=feats[start:stop])
        start = stop
    return DatasetHandle(
        features=feats, labels=labels,
        train_idx=train_idx, val_idx=val_idx, test_idx=test_idx,
        metadata={
            "kind": "idx", "source": str(path),
            "image_shape": "x".join(str(d) for d in shape),
            "feature_scaling": "uint8 / 255 into [0, 1]",
        },
    )


# ------------------------------------------------------------ digit render

# Stroke skeletons in the unit square, y growing downward.  Loops are
# closed polygons; everything else is an open polyline.
_DIGIT_STROKES = {
    0: [[(0.50, 0.08), (0.26, 0.22), (0.20, 0.50), (0.26, 0.78),
         (0.50, 0.92), (0.74, 0.78), (0.80, 0.50), (0.74, 0.22), (0.50, 0.08)]],
    1: [[(0.35, 0.26), (0.52, 0.08), (0.52, 0.92)],
        [(0.36, 0.92), (0.68, 0.92)]],
    2: [[(0.22, 0.30), (0.30, 0.12), (0.52, 0.08), (0.74, 0.16),
         (0.78, 0.34), (0.62, 0.56), (0.24, 0.90), (0.80, 0.90)]],
    3: [[(0.24, 0.14), (0.50, 0.08), (0.72, 0.20), (0.62, 0.42), (0.46, 0.48)],
        [(0.46, 0.48), (0.72, 0.58), (0.72, 0.80), (0.48, 0.93), (0.22, 0.82)]],
    4: [[(0.62, 0.08), (0.22, 0.62), (0.84, 0.62)],
        [(0.62, 0.08), (0.62, 0.92)]],
    5: [[(0.76, 0.10), (0.28, 0.10), (0.24, 0.44), (0.52, 0.40),
         (0.76, 0.54), (0.74, 0.80), (0.48, 0.93), (0.22, 0.82)]],
    6: [[(0.68, 0.10), (0.42, 0.26), (0.27, 0.54), (0.28, 0.80),
         (0.52, 0.93), (0.74, 0.80), (0.72, 0.57), (0.50, 0.48), (0.30, 0.60)]],
    7: [[(0.22, 0.10), (0.80, 0.10), (0.46, 0.92)],
        [(0.36, 0.50), (0.66, 0.50)]],
    8: [[(0.50, 0.08), (0.30, 0.18), (0.32, 0.38), (0.50, 0.47),
         (0.30, 0.18), (0.50, 0.08), (0.70, 0.18), (0.68, 0.38), (0.50, 0.47)],
        [(0.50, 0.47), (0.27, 0.60), (0.28, 0.82), (0.50, 0.93),
         (0.72, 0.82), (0.73, 0.60), (0.50, 0.47)]],
    9: [[(0.70, 0.34), (0.52, 0.46), (0.30, 0.36), (0.30, 0.16),
         (0.52, 0.08), (0.70, 0.18), (0.70, 0.34)],
        [(0.70, 0.34), (0.66, 0.92)]],
}

_GRID = 28

# The skeletons as float64 arrays about the glyph center, and the pixel
# centers along either axis of the grid.
_SKELETONS = {
    digit: [np.asarray(stroke, dtype=np.float64) - 0.5 for stroke in strokes]
    for digit, strokes in _DIGIT_STROKES.items()
}
_CENTERS = (np.arange(_GRID) + 0.5) / _GRID


def _densify(points: np.ndarray) -> np.ndarray:
    """Resample a polyline at roughly uniform arc-length spacing.

    A segment from a to b of length L gives the k = max(ceil(L / 0.02), 1)
    points a + (i / k) (b - a), i = 0..k-1; the polyline's last point ends
    the list.  All segments are resampled in one pass.
    """
    diff = points[1:] - points[:-1]
    # One (1, 2) @ (2, 1) product per segment: this is the BLAS dot that
    # np.linalg.norm of a single vector takes, so a length that lands on a
    # multiple of 0.02 rounds the same way; a row sum of squares would not.
    length = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    k = np.maximum(np.ceil(length / 0.02).astype(np.int64), 1)
    seg = np.repeat(np.arange(k.size), k)
    i = np.arange(seg.size) - (np.cumsum(k) - k)[seg]
    # i * (1 / k) is np.linspace(0, 1, k, endpoint=False) bit for bit
    t = i * (1.0 / k)[seg]
    return np.concatenate([points[:-1][seg] + t[:, None] * diff[seg], points[-1:]])


def render_digit(digit: int, rng: Rng) -> np.ndarray:
    """One 28x28 grayscale image of `digit` with random pose and pen.

    Strokes are jittered by a random rotation, anisotropic scale, shear,
    and translation about the glyph center, then splatted with a Gaussian
    pen onto the pixel grid: a pixel's ink is exp(-d2 / (2 width^2)) for
    d2 the squared distance from its center to the nearest densified
    stroke point (exp is monotone, so this is the brightest point's ink).

    The squared distance from pixel (r, c) to point p is
    (y_r - py)^2 + (x_c - px)^2 with x and y the same pixel centers, so
    its two squares are computed once per (row, point) and per (column,
    point) and only their sum is formed per pixel.  Each sum sees the same
    two rounded squares as a full (28, 28, points) evaluation, and IEEE
    addition commutes, so the image is the same bit for bit.

    Returns:
        (28, 28) uint8 image, background 0.
    """
    if digit not in _SKELETONS:
        raise ValueError(f"digit must be 0..9, got {digit}")
    angle = rng.uniform(-0.21, 0.21)
    scale = rng.uniform(0.85, 1.12, 2)
    shear = rng.uniform(-0.15, 0.15)
    shift = rng.uniform(-0.07, 0.07, 2)
    width = rng.uniform(0.030, 0.045)
    contrast = rng.uniform(0.82, 1.0)
    ca, sa = np.cos(angle), np.sin(angle)
    lin = np.array([[ca, -sa], [sa, ca]]) @ np.array([[scale[0], shear], [0.0, scale[1]]])

    dense = np.concatenate([_densify(stroke @ lin.T + 0.5 + shift)
                            for stroke in _SKELETONS[digit]])
    dx2 = (_CENTERS[:, None] - dense[:, 0]) ** 2  # (column, point)
    dy2 = (_CENTERS[:, None] - dense[:, 1]) ** 2  # (row, point)
    d2 = (dy2[:, None, :] + dx2[None, :, :]).min(axis=2)
    img = np.exp(-d2 / (2.0 * width**2))
    img = contrast * img + 0.02 * rng.normal((_GRID, _GRID))
    return (np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def render_digit_set(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n images with balanced labels, shuffled deterministically."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = Rng(seed, stream=_DATA_STREAM + 1)
    labels = (np.arange(n) % 10).astype(np.uint8)
    labels = labels[rng.permutation(n)]
    images = np.zeros((n, _GRID, _GRID), dtype=np.uint8)
    for i in range(n):
        images[i] = render_digit(int(labels[i]), rng)
    return images, labels


def write_digit_corpus(out_dir, n_train: int, n_test: int, seed: int) -> None:
    """Materialize the conventional IDX quadruple under `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    tr_images, tr_labels = render_digit_set(n_train, seed)
    te_images, te_labels = render_digit_set(n_test, seed + 1)
    write_idx(os.path.join(out_dir, "train-images-idx3-ubyte"), tr_images)
    write_idx(os.path.join(out_dir, "train-labels-idx1-ubyte"), tr_labels)
    write_idx(os.path.join(out_dir, "t10k-images-idx3-ubyte"), te_images)
    write_idx(os.path.join(out_dir, "t10k-labels-idx1-ubyte"), te_labels)


# -------------------------------------------------------------- spec parse


def parse_dataset_spec(spec: str):
    """Parse 'kind:key=value,key=value' dataset strings."""
    if ":" in spec:
        kind, rest = spec.split(":", 1)
    else:
        kind, rest = spec, ""
    kind = kind.strip()
    opts = {}
    if rest.strip():
        for item in rest.split(","):
            if "=" not in item:
                raise ValueError(f"bad dataset option {item!r} in {spec!r}")
            k, v = item.split("=", 1)
            opts[k.strip()] = v.strip()
    return kind, opts


# The options each dataset kind takes, with their defaults; a default also
# fixes the option's type.
_DATASET_OPTIONS = {
    "gauss_mixture": {"n": 5000, "noise": 0.14, "classes": 4, "dim": 8},
    "two_moons": {"n": 2000, "noise": 0.08},
    "idx": {"path": None},
}


def make_dataset(spec: str, seed: int) -> DatasetHandle:
    """Materialize the dataset named by a spec string.

    Supported kinds: gauss_mixture (n, noise, classes, dim), two_moons
    (n, noise), idx (path=...).  Options left out take the defaults in
    `_DATASET_OPTIONS`.  Synthetic kinds are regenerated deterministically
    from (spec, seed).

    Raises:
        ValueError: on an unknown kind, an option the kind does not take,
            or an option value that does not convert to the option's type.
    """
    kind, opts = parse_dataset_spec(spec)
    if kind not in _DATASET_OPTIONS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    defaults = _DATASET_OPTIONS[kind]
    unknown = [key for key in opts if key not in defaults]
    if unknown:
        raise ValueError(f"dataset kind {kind!r} takes no option "
                         f"{', '.join(map(repr, unknown))} (spec {spec!r}); "
                         f"its options are {', '.join(defaults)}")
    if kind == "idx":
        if "path" not in opts:
            raise ValueError(f"idx dataset spec needs path=..., got {spec!r}")
        return load_idx(opts["path"])
    args = {}
    for key, default in defaults.items():
        cast = type(default)
        try:
            args[key] = cast(opts.get(key, default))
        except ValueError:
            raise ValueError(f"dataset option {key} takes {cast.__name__} "
                             f"values, got {opts[key]!r} (spec {spec!r})") from None
    generator = gauss_mixture if kind == "gauss_mixture" else two_moons
    return generator(seed=seed, **args)
