"""Dense float64 linear algebra with strict shape and domain checking.

Arrays everywhere are C-contiguous numpy float64; there is no sparse path
and no single-precision path.  The two routines that carry real numerical
risk for the rest of the package, `logdet_psd` and `conjugate_gradient`,
are written out explicitly so that failures name the offending pivot or
iterate instead of surfacing as a generic LinAlgError deep in a solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Rejection threshold for |M - M^T| in logdet_psd.
SYMMETRY_TOL = 1e-10
# A Cholesky pivot at or below this is treated as a rank deficiency.
PIVOT_TOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def logdet_psd(m) -> float:
    """log-determinant of a symmetric positive-definite matrix.

    Runs an explicit Cholesky factorization so that a non-positive pivot can
    be reported by index; `2 * sum(log(diag(L)))` is then exact in the
    factor.  Asymmetry beyond SYMMETRY_TOL is rejected rather than silently
    symmetrized.

    Args:
        m: (n, n) symmetric positive-definite matrix.

    Returns:
        ln det m as a float.

    Raises:
        ValueError: if m is not square, not symmetric within 1e-10, or a
            pivot falls at or below 1e-12 (the index of the failing pivot is
            named in the message).
    """
    a = as_matrix(m, "m")
    n, nc = a.shape
    if n != nc:
        raise ValueError(f"m must be square, got shape {a.shape}")
    if n == 0:
        return 0.0
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"m is not symmetric: max |m - m^T| = {asym:.3e} exceeds {SYMMETRY_TOL:.0e}"
        )
    low = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if not np.isfinite(pivot) or pivot <= PIVOT_TOL:
            raise ValueError(
                f"matrix is not positive definite: pivot {pivot:.3e} at index {j}"
            )
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return float(2.0 * np.sum(np.log(np.diag(low))))


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve.

    Attributes:
        x: the returned iterate.
        residual: relative residual ||(A + lam I)x - b|| / ||b|| (0 when b = 0).
        iterations: matrix-vector products consumed.
        converged: True when the tolerance was met within max_iter.
    """

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool


def conjugate_gradient(
    apply: Callable[[np.ndarray], np.ndarray],
    b,
    lam: float = 0.0,
    tol: float = 1e-6,
    max_iter: int = 50,
) -> CgResult:
    """Solve (A + lam I) x = b for symmetric positive semidefinite operator A.

    `apply` is only ever called on vectors, so A may be represented
    implicitly (Kronecker factors, sums of outer products, ...).  Iteration
    stops once the true-residual norm drops to tol * ||b||; after max_iter
    products the best iterate found so far is returned with converged=False
    rather than raising.

    Args:
        apply: v -> A v, must be linear and symmetric PSD.
        b: right-hand side vector.
        lam: Tikhonov damping added on top of A.
        tol: relative residual target.
        max_iter: cap on operator applications.

    Returns:
        CgResult with the iterate and a residual report.

    Raises:
        FloatingPointError: if any iterate or residual stops being finite.
        ValueError: if the operator changes the vector's dimension.
    """
    rhs = as_vector(b, "b")
    n = rhs.shape[0]
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return CgResult(x=np.zeros(n), residual=0.0, iterations=0, converged=True)

    def op(v: np.ndarray) -> np.ndarray:
        av = np.asarray(apply(v), dtype=np.float64)
        if av.shape != (n,):
            raise ValueError(
                f"operator returned shape {av.shape}, expected {(n,)}"
            )
        return av + lam * v

    x = np.zeros(n)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x = x
    best_res = 1.0
    iterations = 0
    converged = False
    for _ in range(max_iter):
        ap = op(p)
        iterations += 1
        pap = float(p @ ap)
        if not np.isfinite(pap):
            raise FloatingPointError("conjugate gradient produced a non-finite curvature")
        if pap <= 0.0:
            # Operator is not PD along p (numerically); keep the best iterate.
            break
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("conjugate gradient produced a non-finite iterate")
        res = float(np.linalg.norm(r)) / bnorm
        if res < best_res:
            best_res = res
            best_x = x
        rs_new = float(r @ r)
        if res <= tol:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CgResult(x=best_x, residual=best_res, iterations=iterations, converged=converged)
