"""Checks the benchmark makes on geoib's outputs, computed apart from it.

Nothing here imports geoib: each check recomputes its quantity with plain
numpy from the arrays or files the program produced.
"""

from __future__ import annotations

import csv

import numpy as np

# Relative residual a natural-gradient solve must reach; the tolerance
# geoib's solver is configured with (TrainConfig.cg_tol).
SOLVE_TOL = 1e-6

IDX_IMAGES = 0x00000803
IDX_LABELS = 0x00000801


def kfac_residual(a_factors, g_factors, damping: float, direction, grad) -> float:
    """||(G + lam I) V (A + lam I) - g|| / ||g|| over all layer blocks.

    Blocks are laid out row-major per layer as (out, in + 1), the order of
    the flat parameter vector.
    """
    d = np.asarray(direction, dtype=np.float64).ravel()
    g = np.asarray(grad, dtype=np.float64).ravel()
    gnorm = float(np.linalg.norm(g))
    parts = []
    offset = 0
    for a_f, g_f in zip(a_factors, g_factors):
        p, q = a_f.shape[0], g_f.shape[0]
        v = d[offset : offset + p * q].reshape(q, p)
        applied = ((g_f + damping * np.eye(q)) @ v) @ (a_f + damping * np.eye(p))
        parts.append(applied.ravel() - g[offset : offset + p * q])
        offset += p * q
    if offset != g.size:
        return float("inf")
    if gnorm == 0.0:
        return float(np.linalg.norm(d))
    return float(np.linalg.norm(np.concatenate(parts))) / gnorm


# ------------------------------------------------------------ forward pass

_ACTIVATIONS = {
    "identity": lambda s: s,
    "tanh": np.tanh,
    "relu": lambda s: np.maximum(s, 0.0),
    "softplus": lambda s: np.logaddexp(0.0, s),
}


def load_net(path):
    """Parse a saved network: a text header line `net in:act:out ...`
    followed by the flat little-endian float64 parameters, each layer an
    (out, in + 1) block [W | b] in row-major order."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if not header or header[0] != "net":
        raise ValueError(f"{path}: not a network file")
    layers = []
    offset = 0
    for tok in header[1:]:
        n_in, act, n_out = tok.split(":")
        n_in, n_out = int(n_in), int(n_out)
        size = n_out * (n_in + 1)
        block = payload[offset : offset + size].reshape(n_out, n_in + 1)
        layers.append((block[:, :n_in], block[:, n_in], _ACTIVATIONS[act]))
        offset += size
    if offset != payload.size:
        raise ValueError(f"{path}: {payload.size} floats, header needs {offset}")
    return layers


def forward(layers, x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    for w, b, act in layers:
        a = act(a @ w.T + b)
    return a


def accuracy(enc_path, dec_path, x, labels, k_dim: int) -> float:
    """Test accuracy of the saved encoder/decoder pair, decoding the
    posterior mean (the first k_dim encoder outputs)."""
    mu = forward(load_net(enc_path), x)[:, :k_dim]
    pred = np.argmax(forward(load_net(dec_path), mu), axis=1)
    return int(np.count_nonzero(pred == np.asarray(labels))) / len(labels)


# --------------------------------------------------------------- files


def read_idx(path) -> np.ndarray:
    """Parse an IDX file, checking magic, dimensions and payload length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = int.from_bytes(blob[:4], "big")
    ndim = {IDX_IMAGES: 3, IDX_LABELS: 1}.get(magic)
    if ndim is None:
        raise ValueError(f"{path}: bad magic 0x{magic:08x}")
    dims = [int.from_bytes(blob[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    start = 4 + 4 * ndim
    if len(blob) != start + int(np.prod(dims)):
        raise ValueError(f"{path}: {len(blob)} bytes do not match dims {dims}")
    return np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(dims)


def balanced(labels, n_classes: int = 10) -> bool:
    counts = np.bincount(np.asarray(labels), minlength=n_classes)
    return counts.size == n_classes and int(counts.max() - counts.min()) <= 1


def read_points_csv(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def same_point(row: dict, point) -> bool:
    """A CSV row equals a returned point field by field, exactly."""
    return (float(row["beta"]) == point.beta
            and int(row["k_dim"]) == point.k_dim
            and float(row["accuracy"]) == point.accuracy
            and float(row["mi_xz_nats"]) == point.mi_xz_nats
            and float(row["inversion_mse"]) == point.inversion_mse
            and int(row["seed"]) == point.seed
            and float(row["wall_clock_s"]) == point.wall_clock_s)
