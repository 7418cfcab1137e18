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
block's Chebyshev distances to every sample, in x and in z, come from the
kernel of scipy's `cdist(..., "chebyshev")`; eps is the k-th smallest entry
of their elementwise max, and the marginal counts are strict `< eps` tests.
In the hundreds of dimensions of an image joint a k-d tree prunes nothing
and is slower than this scan.  A Chebyshev distance is the max of correctly
rounded |a_i - b_i| terms, so it does not depend on evaluation order and
equals what a tree query computes; the strict test equals an inclusive ball
query at nextafter(eps, 0).  The estimate is therefore bit-identical to the
tree-based one.  Each block's distance arrays are capped at 256 KiB, which
keeps peak memory flat.  The blocks are dealt out to one thread per CPU the
process may use, the caller's among them; each block writes only its own
rows, so the estimate does not depend on the thread count.  The kernel, and
numpy's max, partition and counts, release the GIL.

The kernel is loaded on first use straight from scipy's compiled extension
`scipy/spatial/_distance_pybind` (`_chebyshev_kernel`), found without
importing scipy: importing `scipy.spatial.distance` would load
`scipy.sparse`, `scipy.special` and `scipy.linalg` too (0.3 s and 36 MB on
a 2-core x86-64 machine).  Every scipy this package supports (>= 1.10)
ships that extension.  The digamma values are a port of cephes' `psi` for
positive integers, the routine `scipy.special.digamma` runs, and equal its
results bit for bit.  So neither importing this module, as training and
`geoib verify` do, nor running the estimator loads any scipy package.

Inversion leakage is the held-out mean squared error of a fixed probe
that reconstructs x from z (low MSE = invertible representation = little
compression).  The probe reads x out of 256 random tanh features of the
code (Rahimi & Recht 2007) by ridge regression, solved exactly by Cholesky
(`linalg.spd_solve`) on normal equations accumulated over row blocks of at
most 256 KiB; a non-finite training code raises FloatingPointError.  Its
capacity is fixed and stated (Hewitt & Liang 2019): no step size, epoch
budget or stopping rule enters the number.  The ridge is a resolution
floor stated as a noise level: it is what least squares sees when every
feature reading carries independent noise of std s = PROBE_FEATURE_NOISE,
so a barely varying code stays hard to invert.  The probe's name is
recorded in every emitted evaluation record, and changes whenever its
definition does.
"""

from __future__ import annotations

import csv
import functools
import importlib.machinery
import importlib.util
import json
import math
import os
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .linalg import spd_solve
from .nets import Network
from .rng import Rng

MI_ESTIMATOR = "ksg"
MI_DEFAULT_K = 5
# Bytes of one float64 row block: a (rows, n) distance array of the KSG
# scan, or a (rows, PROBE_FEATURES + 1) feature block of the probe.
_BLOCK_BYTES = 1 << 18

# Inversion probe: fixed across all runs so MSEs are comparable.
PROBE_FEATURES = 256
# s: for the standard normal x of tests/test_mi.py, the code z = 1e-3 x keeps
# an MSE of at least Var(x) / 2 when s >= 0.012, and z = 0.1 x is inverted
# to MSE < 0.01 when s <= 0.26; 0.05 sits near the geometric middle.
PROBE_FEATURE_NOISE = 0.05
# Names the probe definition above; change it whenever that changes, so
# inversion MSEs of different probes are never mixed up.
PROBE_NAME = f"tanh_rf{PROBE_FEATURES}_ridge_s{PROBE_FEATURE_NOISE:g}"

# cephes' psi: Euler's constant, and the coefficients of its asymptotic
# series in 1/m^2, highest power first.
_EULER = 0.577215664901532860606512090082402431
_PSI_ASYMPTOTIC = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
                   7.57575757575757575758e-3, -4.16666666666666666667e-3,
                   3.96825396825396825397e-3, -8.33333333333333333333e-3,
                   8.33333333333333333333e-2)

CSV_COLUMNS = ("beta", "k_dim", "accuracy", "mi_xz_nats",
               "inversion_mse", "seed", "wall_clock_s")


def _as_2d(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _row_blocks(n: int, width: int):
    """Slices of at most _BLOCK_BYTES worth of (rows, width) floats."""
    rows = max(1, _BLOCK_BYTES // (8 * width))
    return (slice(start, min(start + rows, n)) for start in range(0, n, rows))


@functools.cache
def _chebyshev_kernel() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The (a, b) -> Chebyshev distance matrix kernel every scan calls:
    `cdist_chebyshev`, the routine `cdist(a, b, "chebyshev")` runs, loaded
    from scipy's `scipy/spatial/_distance_pybind` extension on its own, so
    no scipy package is imported."""
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    base = os.path.join(scipy_dir, "spatial", "_distance_pybind")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            loader = importlib.machinery.ExtensionFileLoader(
                "scipy.spatial._distance_pybind", base + suffix)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module.cdist_chebyshev
    raise ImportError(f"scipy's distance extension {base}.* is missing")


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _digamma(m: int) -> float:
    """psi(m) for an integer m >= 1, computed as cephes' `psi` (which
    `scipy.special.digamma` runs) computes it, so the bits are its bits."""
    if m <= 10:
        y = 0.0
        for i in range(1, m):
            y += 1.0 / i
        return y - _EULER
    x = float(m)
    z = 1.0 / (x * x)
    poly = _PSI_ASYMPTOTIC[0]
    for c in _PSI_ASYMPTOTIC[1:]:
        poly = poly * z + c
    # math.log is libm's log, the one cephes calls; numpy's SIMD np.log is
    # not correctly rounded and differs from it in the last bit on some
    # integers, which would change the estimate's bits
    return math.log(x) - 0.5 / x - z * poly


def _digamma_counts(counts: np.ndarray) -> np.ndarray:
    """_digamma of each entry of an integer array, one call per distinct
    value."""
    values, inverse = np.unique(counts, return_inverse=True)
    return np.array([_digamma(int(v)) for v in values])[inverse]


def _scan_blocks(kernel, xa, za, k: int, blocks, eps, nx, nz) -> None:
    """Fill eps, nx and nz at the rows of each block in `blocks`."""
    for block in blocks:
        dx = kernel(xa[block], xa)
        dz = kernel(za[block], za)
        # column k, not k - 1: every row holds its own sample at distance 0
        e = np.partition(np.maximum(dx, dz), k, axis=1)[:, k]
        eps[block] = e
        # strictly inside eps; the point itself always lands in its own ball
        nx[block] = np.count_nonzero(dx < e[:, None], axis=1) - 1
        nz[block] = np.count_nonzero(dz < e[:, None], axis=1) - 1


def mi_knn(x, z, k: int = MI_DEFAULT_K) -> float:
    """KSG estimate of I(X; Z) in nats from paired samples.

    Args:
        x: (n, dx) or (n,) samples.
        z: (n, dz) or (n,) samples, paired row-for-row with x.
        k: neighbor count; must satisfy 1 <= k < n.

    Returns:
        The estimate in nats (can be slightly negative for independent data).

    The row blocks are dealt into one share per usable CPU: the caller
    scans the first and a pool thread each other one, so one CPU starts no
    thread.
    """
    xa = _as_2d(x, "x")
    za = _as_2d(z, "z")
    n = xa.shape[0]
    if za.shape[0] != n:
        raise ValueError(f"x has {n} rows but z has {za.shape[0]}")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k}")
    # Contiguous once here, so the kernel does not copy them for every block.
    xa = np.ascontiguousarray(xa)
    za = np.ascontiguousarray(za)
    if not (np.isfinite(xa).all() and np.isfinite(za).all()):
        raise ValueError("data must be finite, check for nan or inf values")
    eps = np.empty(n)
    nx = np.empty(n, dtype=np.intp)
    nz = np.empty(n, dtype=np.intp)
    blocks = list(_row_blocks(n, n))
    # resolved before any worker starts, so only this thread loads it
    kernel = _chebyshev_kernel()
    shares = min(_usable_cpus(), len(blocks))
    # imported here: importing training must not load the pool's module
    from concurrent.futures import ThreadPoolExecutor

    # the pool starts one thread per submitted share, so a lone share starts
    # none; leaving the block joins every worker, also when a share raises
    with ThreadPoolExecutor(max_workers=shares) as pool:
        futures = [pool.submit(_scan_blocks, kernel, xa, za, k,
                               blocks[i::shares], eps, nx, nz)
                   for i in range(1, shares)]
        _scan_blocks(kernel, xa, za, k, blocks[::shares], eps, nx, nz)
        for future in futures:
            future.result()
    degenerate = eps == 0.0
    if np.any(degenerate):
        nx = np.where(degenerate, 0, nx)
        nz = np.where(degenerate, 0, nz)
    psi = _digamma_counts(np.concatenate([nx, nz]) + 1)
    return _digamma(k) + _digamma(n) - float(np.mean(psi[:n] + psi[n:]))


def classification_accuracy(decoder: Network, z, labels) -> float:
    """Fraction of argmax-correct predictions of the decoder on z."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    logits = decoder.forward(z)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == labels))


def _probe_features(z, w, b) -> np.ndarray:
    """Random tanh features of (centred) codes, with a trailing ones column
    for the intercept."""
    phi = np.empty((z.shape[0], w.shape[1] + 1))
    np.tanh(z @ w + b, out=phi[:, :-1])
    phi[:, -1] = 1.0
    return phi


def inversion_probe(z_train, x_train, z_test, x_test, seed: int = 0) -> float:
    """Held-out reconstruction MSE of a fixed random-feature ridge probe z -> x.

    Codes are centred by the train mean but deliberately not rescaled: a
    representation whose coordinates barely vary must stay hard to invert,
    and dividing by a tiny std would hand the probe an amplified copy of
    it.  The centred code is mapped to PROBE_FEATURES fixed features
    phi(z) = tanh(z W + b), W ~ N(0, 1/d) and b ~ N(0, 1) drawn from
    Rng(seed), and x is read out linearly from them, with an unpenalized
    intercept, by exact ridge regression with lambda = n s^2,
    s = PROBE_FEATURE_NOISE.  That ridge is what least squares sees on
    average when every feature reading carries independent noise of std s
    (E[(Phi + E)^T (Phi + E)] = Phi^T Phi + n s^2 I), so a code direction
    that moves the features by much less than s is not resolved.  The
    features, the noise level and the solve never vary between calls, so
    the returned MSE is comparable across runs.

    Returns:
        Mean over held-out samples and features of the squared error.

    Raises:
        FloatingPointError: if the training codes hold non-finite entries.
    """
    z_tr = _as_2d(z_train, "z_train")
    x_tr = _as_2d(x_train, "x_train")
    z_te = _as_2d(z_test, "z_test")
    x_te = _as_2d(x_test, "x_test")
    if z_tr.shape[0] != x_tr.shape[0] or z_te.shape[0] != x_te.shape[0]:
        raise ValueError("probe inputs and targets must pair up row-for-row")
    n, d = z_tr.shape
    mean = z_tr.mean(axis=0)
    rng = Rng(seed)
    w = rng.normal((d, PROBE_FEATURES)) / np.sqrt(d)
    b = rng.normal(PROBE_FEATURES)
    m = PROBE_FEATURES + 1
    gram = np.zeros((m, m))
    cross = np.zeros((m, x_tr.shape[1]))
    for block in _row_blocks(n, m):
        phi = _probe_features(z_tr[block] - mean, w, b)
        gram += phi.T @ phi
        cross += phi.T @ x_tr[block]
    ridge = np.arange(PROBE_FEATURES)  # the intercept stays unpenalized
    gram[ridge, ridge] += n * PROBE_FEATURE_NOISE**2
    coef = spd_solve(gram, cross, "probe normal equations")
    sq_err = 0.0
    for block in _row_blocks(z_te.shape[0], m):
        pred = _probe_features(z_te[block] - mean, w, b) @ coef
        sq_err += float(np.sum((pred - x_te[block]) ** 2))
    return sq_err / x_te.size


# ------------------------------------------------------------------- records


@dataclass(frozen=True)
class InfoPlanePoint:
    """One evaluated cell of the information plane.

    `wall_clock_s` is the training time; nan means it is not known (a run
    re-scored without its recorded point).  `probe` names the inversion
    probe that measured `inversion_mse` (PROBE_NAME), and `revision` the
    training revision of the code that evaluated the point
    (`training.REVISION`); None means it is not known (records written
    before the field existed).
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
    probe: str | None = None
    revision: str | None = None

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
    """The points of a JSON-lines file, one object per non-blank line.

    ValueError, naming the file and line, for a line that is not ASCII,
    does not parse, is not a JSON object, or holds fields InfoPlanePoint
    does not take.
    """
    points = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("ascii"))
                points.append(InfoPlanePoint(**record))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
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
