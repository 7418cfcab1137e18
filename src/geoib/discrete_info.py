"""Exact information geometry on finite joint distributions.

Joints are plain (nx, nz) float64 arrays of probabilities.  Everything here
is computed by direct summation in nats, with 0 * log 0 := 0 handled by an
explicit mask rather than by adding epsilons, so identities hold to
round-off: projecting a joint onto the independence manifold gives the pair
of marginals, and the divergence to any product reference splits as

    KL(p || q x r) = I(p) + KL(p_x || q) + KL(p_z || r).

The bottleneck functional is then a difference of two such projection
distances, one for the (x, z) joint and one for the (y, z) joint.

`kl_to_product` also scores a stack of m references, given as (m, nx) and
(m, nz) arrays, in one call; each of its m values has the bits of the
single-reference call, since both run the same masked sum.  Every input is
validated once per call: entries must be finite and nonnegative and sum to
1, and an error names the offending cell or index, and the row of a stack.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-12


def _bad_entry(a: np.ndarray):
    """Index and kind of an entry that is not a probability, else None.

    A non-finite entry is named first, else the most negative one.
    """
    finite = np.isfinite(a)
    if not finite.all():
        return np.unravel_index(int(np.argmin(finite)), a.shape), "non-finite"
    if (a < 0.0).any():
        return np.unravel_index(int(np.argmin(a)), a.shape), "negative"
    return None


def validate_joint(p, name: str = "joint") -> np.ndarray:
    """Check a matrix is a probability table: finite, nonnegative, sums to 1."""
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-D table, got shape {a.shape}")
    total = float(a.sum())
    # written so that NaN fails: abs(nan - 1.0) > SUM_TOL is False
    if a.min() >= 0.0 and abs(total - 1.0) <= SUM_TOL:
        return a
    bad = _bad_entry(a)
    if bad is not None:
        (i, j), kind = bad
        raise ValueError(f"{name} has a {kind} entry {a[i, j]:.3e} at cell ({i}, {j})")
    raise ValueError(f"{name} sums to {total!r}, not 1 within {SUM_TOL:.0e}")


def _check_simplex(a: np.ndarray, name: str) -> None:
    """Raise unless the 1-D a, or each row of the 2-D a, is a distribution.

    The error names the offending index, and for a stack its row.
    """
    rows = a.reshape(-1, a.shape[-1])
    totals = rows.sum(axis=1)
    off = np.abs(totals - 1.0)
    # NaN fails both tests; the initial values let an empty stack pass
    if rows.min(initial=0.0) >= 0.0 and off.max(initial=0.0) <= SUM_TOL:
        return

    def who(row: int) -> str:
        return f"{name} row {row}" if a.ndim == 2 else name

    bad = _bad_entry(rows)
    if bad is not None:
        (row, idx), kind = bad
        raise ValueError(
            f"{who(row)} has a {kind} entry {rows[row, idx]:.3e} at index {idx}"
        )
    row = int(np.argmax(off))
    raise ValueError(
        f"{who(row)} sums to {float(totals[row])!r}, not 1 within {SUM_TOL:.0e}"
    )


def validate_distribution(p, name: str = "distribution") -> np.ndarray:
    """Check a vector is a distribution: finite, nonnegative, sums to 1."""
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {a.shape}")
    _check_simplex(a, name)
    return a


def _validate_references(qx, rz) -> tuple[np.ndarray, np.ndarray]:
    """Two distributions, or two stacks of them with one row per reference."""
    q = np.asarray(qx, dtype=np.float64)
    r = np.asarray(rz, dtype=np.float64)
    if q.ndim == r.ndim == 1:
        return validate_distribution(q, "qx"), validate_distribution(r, "rz")
    if q.ndim != 2 or r.ndim != 2 or q.shape[1] == 0 or r.shape[1] == 0:
        raise ValueError(
            "qx and rz must be two nonempty distributions or two stacks of "
            f"them, got shapes {q.shape} and {r.shape}"
        )
    if q.shape[0] != r.shape[0]:
        raise ValueError(
            f"stacks differ in length: {q.shape[0]} qx rows, {r.shape[0]} rz rows"
        )
    _check_simplex(q, "qx")
    _check_simplex(r, "rz")
    return q, r


def _kl_on_support(p_pos: np.ndarray, ref: np.ndarray):
    """sum p log(p / ref) over the last axis of C-contiguous operands.

    `p_pos` holds the positive cells of p and `ref` the reference at those
    cells, one row per reference.  A C-contiguous row sums in the same
    pairwise order as a 1-D array, so a stacked row gives the bits of a
    single call.
    """
    return (p_pos * (np.log(p_pos) - np.log(ref))).sum(axis=-1)


def _kl_discrete(pa: np.ndarray, qa: np.ndarray, name: str) -> float:
    if pa.shape != qa.shape:
        raise ValueError(f"{name}: shapes {pa.shape} and {qa.shape} differ")
    (idx,) = np.nonzero(pa > 0.0)
    ref = qa[idx]
    if not ref.all():
        k = idx[int(np.argmin(ref))]
        raise ValueError(
            f"{name}: p puts mass {pa[k]:.3e} at index {k} where q is zero"
        )
    return float(_kl_on_support(pa[idx], ref))


def _mutual_information(a: np.ndarray) -> float:
    mask = a > 0.0
    # a > 0 forces both marginals > 0, so the log is safe under the mask
    return float(_kl_on_support(a[mask], np.outer(a.sum(axis=1), a.sum(axis=0))[mask]))


def _kl_to_product(a: np.ndarray, q: np.ndarray, r: np.ndarray):
    if a.shape != (q.shape[-1], r.shape[-1]):
        raise ValueError(
            f"joint of shape {a.shape} does not match marginals of sizes "
            f"{q.shape[-1]} and {r.shape[-1]}"
        )
    i, j = np.nonzero(a > 0.0)
    # take() returns C-order rows; q[:, i] would be an F-ordered copy
    ref = q.take(i, axis=-1) * r.take(j, axis=-1)
    if not ref.all():
        *row, c = np.unravel_index(int(np.argmin(ref != 0.0)), ref.shape)
        where = f" row {row[0]}" if row else ""
        raise ValueError(
            f"support violation: joint has mass {a[i[c], j[c]]:.3e} at cell "
            f"({i[c]}, {j[c]}) where the product reference{where} is zero"
        )
    return _kl_on_support(a[i, j], ref)


def marginals(p) -> tuple[np.ndarray, np.ndarray]:
    """Row and column marginals (p_x, p_z) of a joint table."""
    a = validate_joint(p)
    return a.sum(axis=1), a.sum(axis=0)


def kl_discrete(p, q, name: str = "kl") -> float:
    """KL(p || q) in nats for two distributions on the same support size."""
    pa = validate_distribution(p, f"{name}: p")
    qa = validate_distribution(q, f"{name}: q")
    return _kl_discrete(pa, qa, name)


def mutual_information(p) -> float:
    """I(X; Z) of a joint table, in nats; zero cells contribute zero."""
    return _mutual_information(validate_joint(p))


def kl_to_product(p, qx, rz):
    """KL(p || qx x rz) against one product reference or a stack of them.

    Args:
        p: (nx, nz) joint table.
        qx, rz: either two distributions of sizes nx and nz, or two stacks
            of shapes (m, nx) and (m, nz) whose rows pair up as the m
            references.

    Returns:
        A float for one reference; an (m,) array for a stack, whose entry
        k has the bits of kl_to_product(p, qx[k], rz[k]).

    Raises:
        ValueError: if an input is not a distribution (a stack names the
            row), if the stacks differ in length, or if some cell has
            p > 0 while a reference product is zero there; the offending
            cell, and the row of a stack, is named.
    """
    a = validate_joint(p)
    q, r = _validate_references(qx, rz)
    values = _kl_to_product(a, q, r)
    return values if q.ndim == 2 else float(values)


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
    the float64 residual measures cancellation error only.  The inputs are
    validated once, and every term is computed from the validated arrays.
    """
    a = validate_joint(p)
    q = validate_distribution(qx, "qx")
    r = validate_distribution(rz, "rz")
    total = float(_kl_to_product(a, q, r))
    decomposed = (
        _mutual_information(a)
        + _kl_discrete(a.sum(axis=1), q, "x-marginal")
        + _kl_discrete(a.sum(axis=0), r, "z-marginal")
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
