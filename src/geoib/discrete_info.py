"""Exact information geometry on finite joint distributions.

Joints are plain (nx, nz) float64 arrays of probabilities.  Everything here
is computed by direct summation in nats, with 0 * log 0 := 0 handled by an
explicit mask rather than by adding epsilons, so identities hold to
round-off: projecting a joint onto the independence manifold gives the pair
of marginals, and the divergence to any product reference splits as

    KL(p || q x r) = I(p) + KL(p_x || q) + KL(p_z || r).

The bottleneck functional is then a difference of two such projection
distances, one for the (x, z) joint and one for the (y, z) joint.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-12


def validate_joint(p, name: str = "joint") -> np.ndarray:
    """Check a matrix is a probability table: nonnegative, sums to 1."""
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-D table, got shape {a.shape}")
    if np.any(a < 0.0):
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise ValueError(f"{name} has a negative entry {a[i, j]:.3e} at cell ({i}, {j})")
    total = float(a.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{name} sums to {total!r}, not 1 within {SUM_TOL:.0e}")
    return a


def validate_distribution(p, name: str = "distribution") -> np.ndarray:
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {a.shape}")
    if np.any(a < 0.0):
        idx = int(np.argmin(a))
        raise ValueError(f"{name} has a negative entry {a[idx]:.3e} at index {idx}")
    total = float(a.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{name} sums to {total!r}, not 1 within {SUM_TOL:.0e}")
    return a


def marginals(p) -> tuple[np.ndarray, np.ndarray]:
    """Row and column marginals (p_x, p_z) of a joint table."""
    a = validate_joint(p)
    return a.sum(axis=1), a.sum(axis=0)


def kl_discrete(p, q, name: str = "kl") -> float:
    """KL(p || q) in nats for two distributions on the same support size."""
    pa = validate_distribution(p, f"{name}: p")
    qa = validate_distribution(q, f"{name}: q")
    if pa.shape != qa.shape:
        raise ValueError(f"{name}: shapes {pa.shape} and {qa.shape} differ")
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        idx = int(np.nonzero(mask & (qa == 0.0))[0][0])
        raise ValueError(
            f"{name}: p puts mass {pa[idx]:.3e} at index {idx} where q is zero"
        )
    return float(np.sum(pa[mask] * (np.log(pa[mask]) - np.log(qa[mask]))))


def mutual_information(p) -> float:
    """I(X; Z) of a joint table, in nats; zero cells contribute zero."""
    a = validate_joint(p)
    px, pz = a.sum(axis=1), a.sum(axis=0)
    prod = np.outer(px, pz)
    mask = a > 0.0
    # a > 0 forces both marginals > 0, so the log is safe under the mask
    return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(prod[mask]))))


def kl_to_product(p, qx, rz) -> float:
    """KL(p || qx x rz) against an arbitrary product reference.

    Raises:
        ValueError: if some cell has p > 0 while the reference product is
            zero there; the offending cell is named.
    """
    a = validate_joint(p)
    q = validate_distribution(qx, "qx")
    r = validate_distribution(rz, "rz")
    if a.shape != (q.shape[0], r.shape[0]):
        raise ValueError(
            f"joint of shape {a.shape} does not match marginals of sizes "
            f"{q.shape[0]} and {r.shape[0]}"
        )
    ref = np.outer(q, r)
    mask = a > 0.0
    bad = mask & (ref == 0.0)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), a.shape)
        raise ValueError(
            f"support violation: joint has mass {a[i, j]:.3e} at cell ({i}, {j}) "
            "where the product reference is zero"
        )
    return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(ref[mask]))))


def i_projection(p) -> tuple[np.ndarray, np.ndarray]:
    """The product distribution closest to p in KL: the pair of marginals.

    Returns:
        (qx, rz), each normalized to machine precision.
    """
    px, pz = marginals(p)
    return px / px.sum(), pz / pz.sum()


def pythagorean_residual(p, qx, rz) -> float:
    """KL(p || q x r) - [I(p) + KL(p_x || q) + KL(p_z || r)].

    Identically zero in exact arithmetic for any full-support reference;
    the float64 residual measures cancellation error only.
    """
    a = validate_joint(p)
    px, pz = a.sum(axis=1), a.sum(axis=0)
    total = kl_to_product(a, qx, rz)
    decomposed = (
        mutual_information(a)
        + kl_discrete(px, qx, "x-marginal")
        + kl_discrete(pz, rz, "z-marginal")
    )
    return float(total - decomposed)


def ib_projection_value(p_xz, p_yz, beta: float) -> float:
    """The bottleneck functional beta * I(X; Z) - I(Y; Z), written as a
    difference of distances to the respective independence manifolds.

    Each term is the minimized KL(p || q x r) over product references, i.e.
    the divergence to the product of marginals.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    qx, rz = i_projection(p_xz)
    qy, rz2 = i_projection(p_yz)
    compression = kl_to_product(p_xz, qx, rz)
    prediction = kl_to_product(p_yz, qy, rz2)
    return float(beta * compression - prediction)
