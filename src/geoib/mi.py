"""Representation evaluation: mutual information, accuracy, inversion.

Mutual information between continuous inputs and representations is
estimated nonparametrically with the Kraskov-Stoegbauer-Grassberger k-NN
estimator (variant 1) under the Chebyshev norm:

    I_hat = psi(k) + psi(n) - < psi(n_x + 1) + psi(n_z + 1) >

where n_x(i) counts neighbors strictly inside the i-th joint k-NN distance
in the x marginal, and likewise n_z.  The estimator and its k are recorded
in every emitted evaluation record so plane coordinates are comparable
across runs.

The neighbor search is an exact O(n^2 d) scan over blocks of rows: each
block's Chebyshev distances to every sample, in x and in z, come from
`cdist`; eps is the k-th smallest entry of their elementwise max, and the
marginal counts are strict `< eps` tests.  In the hundreds of dimensions of
an image joint a k-d tree prunes nothing and is slower than this scan.  A
Chebyshev distance is the max of correctly rounded |a_i - b_i| terms, so it
does not depend on evaluation order and equals what a tree query computes;
the strict test equals an inclusive ball query at nextafter(eps, 0).  The
estimate is therefore bit-identical to the tree-based one.  Each block's
distance arrays are capped at 256 KiB, which keeps peak memory flat.

Inversion leakage is measured by a fixed-architecture two-layer probe
trained to reconstruct x from z; its held-out mean squared error is the
reported number (low MSE = invertible representation = little compression).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import digamma

from .nets import LayerSpec, Network
from .rng import Rng

MI_ESTIMATOR = "ksg"
MI_DEFAULT_K = 5
# Bytes of one (rows, n) float64 distance array in the blocked KSG scan.
_KSG_BLOCK_BYTES = 1 << 18

# Inversion probe: fixed across all runs so MSEs are comparable.
PROBE_HIDDEN = 64
PROBE_EPOCHS = 200
PROBE_BATCH = 128
PROBE_LR = 0.05
PROBE_MOMENTUM = 0.9

CSV_COLUMNS = ("beta", "k_dim", "accuracy", "mi_xz_nats",
               "inversion_mse", "seed", "wall_clock_s")


def _as_2d(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def mi_knn(x, z, k: int = MI_DEFAULT_K) -> float:
    """KSG estimate of I(X; Z) in nats from paired samples.

    Args:
        x: (n, dx) or (n,) samples.
        z: (n, dz) or (n,) samples, paired row-for-row with x.
        k: neighbor count; must satisfy 1 <= k < n.

    Returns:
        The estimate in nats (can be slightly negative for independent data).
    """
    xa = _as_2d(x, "x")
    za = _as_2d(z, "z")
    n = xa.shape[0]
    if za.shape[0] != n:
        raise ValueError(f"x has {n} rows but z has {za.shape[0]}")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k}")
    # Contiguous once here, so cdist does not copy them for every block.
    xa = np.ascontiguousarray(xa)
    za = np.ascontiguousarray(za)
    if not (np.isfinite(xa).all() and np.isfinite(za).all()):
        raise ValueError("data must be finite, check for nan or inf values")
    eps = np.empty(n)
    nx = np.empty(n, dtype=np.intp)
    nz = np.empty(n, dtype=np.intp)
    rows = max(1, _KSG_BLOCK_BYTES // (8 * n))
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        dx = cdist(xa[block], xa, "chebyshev")
        dz = cdist(za[block], za, "chebyshev")
        # column k, not k - 1: every row holds its own sample at distance 0
        e = np.partition(np.maximum(dx, dz), k, axis=1)[:, k]
        eps[block] = e
        # strictly inside eps; the point itself always lands in its own ball
        nx[block] = np.count_nonzero(dx < e[:, None], axis=1) - 1
        nz[block] = np.count_nonzero(dz < e[:, None], axis=1) - 1
    degenerate = eps == 0.0
    if np.any(degenerate):
        nx = np.where(degenerate, 0, nx)
        nz = np.where(degenerate, 0, nz)
    value = (digamma(k) + digamma(n)
             - float(np.mean(digamma(nx + 1) + digamma(nz + 1))))
    return float(value)


def classification_accuracy(decoder: Network, z, labels) -> float:
    """Fraction of argmax-correct predictions of the decoder on z."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    logits = decoder.forward(z)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == labels))


def inversion_probe(z_train, x_train, z_test, x_test, seed: int = 0,
                    epochs: int = PROBE_EPOCHS) -> float:
    """Held-out reconstruction MSE of a fixed two-layer probe z -> x.

    The probe (hidden width 64, tanh) is trained fresh by minibatch SGD
    with momentum for a fixed epoch budget.  Inputs are centered by the
    train mean but deliberately not rescaled: a representation whose
    coordinates barely vary must stay hard to invert, and dividing by a
    tiny std would hand the probe an amplified copy of it.  Architecture
    and schedule never vary between calls, so the returned MSE is
    comparable across runs.

    Returns:
        Mean over held-out samples and features of the squared error.
    """
    z_tr = _as_2d(z_train, "z_train")
    x_tr = _as_2d(x_train, "x_train")
    z_te = _as_2d(z_test, "z_test")
    x_te = _as_2d(x_test, "x_test")
    if z_tr.shape[0] != x_tr.shape[0] or z_te.shape[0] != x_te.shape[0]:
        raise ValueError("probe inputs and targets must pair up row-for-row")
    mean = z_tr.mean(axis=0)
    z_tr = z_tr - mean
    z_te = z_te - mean

    rng = Rng(seed)
    net = Network(
        [
            LayerSpec(z_tr.shape[1], PROBE_HIDDEN, "tanh"),
            LayerSpec(PROBE_HIDDEN, x_tr.shape[1], "identity"),
        ],
        rng,
    )
    n = z_tr.shape[0]
    batch = min(PROBE_BATCH, n)
    velocity = np.zeros(net.n_params)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            out = net.forward(z_tr[idx], capture=True)
            resid = out - x_tr[idx]
            grads = net.backward(2.0 * resid / (resid.shape[0] * resid.shape[1]))
            flat = np.concatenate([g.ravel() for g in grads])
            velocity = PROBE_MOMENTUM * velocity - PROBE_LR * flat
            net.set_params(net.get_params() + velocity)
    pred = net.forward(z_te)
    return float(np.mean((pred - x_te) ** 2))


# ------------------------------------------------------------------- records


@dataclass(frozen=True)
class InfoPlanePoint:
    """One evaluated cell of the information plane.

    `wall_clock_s` is the training time; nan means it is not known (a run
    re-scored without its recorded point).
    """

    beta: float
    k_dim: int
    accuracy: float
    mi_xz_nats: float
    inversion_mse: float
    seed: int
    wall_clock_s: float
    mi_estimator: str = MI_ESTIMATOR
    mi_k: int = MI_DEFAULT_K

    def __post_init__(self):
        for name in ("beta", "accuracy", "mi_xz_nats", "inversion_mse",
                     "wall_clock_s"):
            v = getattr(self, name)
            if not np.isfinite(v) and not (name == "wall_clock_s" and np.isnan(v)):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.k_dim <= 0:
            raise ValueError(f"k_dim must be positive, got {self.k_dim}")


def write_points_jsonl(points, path) -> None:
    """One JSON object per line, including estimator metadata."""
    with open(path, "w", encoding="ascii") as fh:
        for p in points:
            fh.write(json.dumps(asdict(p), sort_keys=True) + "\n")


def read_points_jsonl(path) -> list[InfoPlanePoint]:
    points = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                points.append(InfoPlanePoint(**json.loads(line)))
    return points


def point_row(p: InfoPlanePoint) -> list[str]:
    """The CSV_COLUMNS fields of one point; floats as repr, so they round-trip."""
    return [repr(p.beta), str(p.k_dim), repr(p.accuracy), repr(p.mi_xz_nats),
            repr(p.inversion_mse), str(p.seed), repr(p.wall_clock_s)]


def write_points_csv(points, path) -> None:
    """The plotting contract: exactly the seven named columns."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(point_row(p) for p in points)


def read_points_csv(path) -> list[InfoPlanePoint]:
    points = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(
                f"{path}: header {header!r} does not match {CSV_COLUMNS!r}"
            )
        for row in reader:
            if not row:
                continue
            points.append(InfoPlanePoint(
                beta=float(row[0]), k_dim=int(row[1]), accuracy=float(row[2]),
                mi_xz_nats=float(row[3]), inversion_mse=float(row[4]),
                seed=int(row[5]), wall_clock_s=float(row[6]),
            ))
    return points
